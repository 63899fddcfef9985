//! Offline shim for serde's `#[derive(Serialize, Deserialize)]` macros.
//!
//! Generates impls of the *shim* `serde::Serialize` / `serde::Deserialize`
//! traits (a simplified `Value`-tree model, not the real serde visitor
//! API). The input grammar is parsed by hand — the build environment has
//! no registry access, so `syn`/`quote` are unavailable — and covers
//! exactly the shapes this workspace derives on:
//!
//! * structs with named fields, encoded as an object;
//! * tuple structs with a single field (newtypes), encoded as the field;
//! * enums whose variants are all unit variants, encoded as the variant
//!   name string;
//! * enums whose variants all have named fields, *internally tagged*:
//!   one flat object holding the variant's fields plus a tag key whose
//!   value is the variant name (serde's `#[serde(tag = "...")]`).
//!
//! Decoding is strict: a non-object, an unknown variant, or a missing or
//! mistyped field is a `DeError`. Unknown extra keys are ignored.
//!
//! Exactly three of serde's attributes are supported:
//!
//! * `#[serde(tag = "key")]` on an enum with named-field variants (and
//!   required there — externally tagged data enums are not supported);
//! * `#[serde(rename_all = "kebab-case")]` on a unit enum, which encodes
//!   `SwapInFault` as `"swap-in-fault"`;
//! * `#[serde(default)]` on a named field (of a struct or of a tagged
//!   variant), which makes a missing key deserialize via [`Default`]
//!   instead of erroring (used for forward-compatible spec fields).
//!
//! Any other `#[serde(...)]` content produces a compile error, as does
//! any other shape.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

/// One named field of a derived struct or tagged-enum variant.
struct Field {
    /// Field identifier.
    name: String,
    /// `#[serde(default)]`: tolerate a missing key on deserialize.
    default: bool,
}

/// Parsed shape of a derive input item (the type name is kept apart).
enum Item {
    /// `struct S { a: T, b: U }` — fields in declaration order.
    NamedStruct(Vec<Field>),
    /// `struct S(T);`
    Newtype,
    /// `enum E { A, B }` — `(variant, wire string)` in declaration order.
    UnitEnum(Vec<(String, String)>),
    /// `#[serde(tag = "key")] enum E { A { x: T }, B { y: U } }`.
    TaggedEnum {
        tag: String,
        variants: Vec<(String, Vec<Field>)>,
    },
}

/// A supported `#[serde(...)]` attribute.
enum SerdeAttr {
    /// `#[serde(default)]` (fields only).
    Default,
    /// `#[serde(tag = "key")]` (enums only).
    Tag(String),
    /// `#[serde(rename_all = "kebab-case")]` (unit enums only).
    RenameAllKebab,
}

/// Derives the shim `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

/// Derives the shim `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}

fn expand(input: TokenStream, serialize: bool) -> TokenStream {
    let (name, item) = match parse_item(input) {
        Ok(parsed) => parsed,
        Err(msg) => {
            return format!("compile_error!({msg:?});")
                .parse()
                .expect("valid compile_error tokens")
        }
    };
    let name = name.as_str();
    // Deserialize prologue of the object-encoded shapes.
    let obj = format!(
        "let obj = v.as_object().ok_or_else(|| \
         ::serde::DeError::custom(concat!(\"expected an object for \", {name:?})))?;\n"
    );
    let unknown = format!(
        "other => ::std::result::Result::Err(::serde::DeError::custom(\
         format!(\"unknown {name} variant `{{other}}`\"))),\n"
    );
    let code = match (&item, serialize) {
        (Item::NamedStruct(fields), true) => {
            let pairs: String = fields
                .iter()
                .map(|f| entry(&f.name, &format!("&self.{}", f.name)))
                .collect();
            impl_serialize(
                name,
                &format!("::serde::Value::Object(::serde::Map::from([{pairs}]))"),
            )
        }
        (Item::NamedStruct(fields), false) => impl_deserialize(
            name,
            &format!(
                "{obj}::std::result::Result::Ok({name} {{\n{}}})",
                field_reads(name, fields)
            ),
        ),
        (Item::Newtype, true) => impl_serialize(name, "::serde::Serialize::to_value(&self.0)"),
        (Item::Newtype, false) => impl_deserialize(
            name,
            &format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))"),
        ),
        (Item::UnitEnum(variants), true) => {
            let arms: String = variants
                .iter()
                .map(|(v, wire)| format!("{name}::{v} => {wire:?},\n"))
                .collect();
            impl_serialize(
                name,
                &format!("::serde::Value::String(match self {{\n{arms}}}.to_string())"),
            )
        }
        (Item::UnitEnum(variants), false) => {
            let arms: String = variants
                .iter()
                .map(|(v, wire)| format!("{wire:?} => ::std::result::Result::Ok({name}::{v}),\n"))
                .collect();
            impl_deserialize(
                name,
                &format!(
                    "match v.as_str().ok_or_else(|| \
                     ::serde::DeError::custom(concat!(\"expected a string for \", {name:?})))? \
                     {{\n{arms}{unknown}}}"
                ),
            )
        }
        (Item::TaggedEnum { tag, variants }, true) => {
            let arms: String = variants
                .iter()
                .map(|(v, fields)| {
                    let binds: String = fields.iter().map(|f| format!("{}, ", f.name)).collect();
                    let pairs: String = fields.iter().map(|f| entry(&f.name, &f.name)).collect();
                    let tag = entry(tag, &format!("{v:?}"));
                    format!("{name}::{v} {{ {binds} }} => ::serde::Map::from([{tag}{pairs}]),\n")
                })
                .collect();
            impl_serialize(
                name,
                &format!("::serde::Value::Object(match self {{\n{arms}}})"),
            )
        }
        (Item::TaggedEnum { tag, variants }, false) => {
            let arms: String = variants
                .iter()
                .map(|(v, fields)| {
                    let label = format!("{name}::{v}");
                    let reads = field_reads(&label, fields);
                    format!("{v:?} => ::std::result::Result::Ok({label} {{\n{reads}}}),\n")
                })
                .collect();
            impl_deserialize(
                name,
                &format!(
                    "{obj}match obj.get({tag:?}).and_then(::serde::Value::as_str).ok_or_else(|| \
                     ::serde::DeError::custom(concat!(\"missing string tag `\", {tag:?}, \"` for \", {name:?})))? \
                     {{\n{arms}{unknown}}}"
                ),
            )
        }
    };
    code.parse().expect("derive output parses as Rust")
}

/// `impl Serialize for {name}` whose `to_value` returns `body`.
fn impl_serialize(name: &str, body: &str) -> String {
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}

/// `impl Deserialize for {name}` whose `from_value(v)` evaluates `body`.
fn impl_deserialize(name: &str, body: &str) -> String {
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
         {body}\n}}\n}}\n"
    )
}

/// One `(key, value)` map entry; `value` is an expression of reference
/// type (a field borrow or a string literal).
fn entry(key: &str, value: &str) -> String {
    format!("({key:?}.to_string(), ::serde::Serialize::to_value({value})),\n")
}

/// Field initializers reading each field from the map `obj`; `label`
/// names the struct or variant in error messages.
fn field_reads(label: &str, fields: &[Field]) -> String {
    fields
        .iter()
        .map(|f| {
            let (f, default) = (&f.name, f.default);
            if default {
                format!(
                    "{f}: match obj.get({f:?}) {{\n\
                     ::std::option::Option::Some(v) => ::serde::Deserialize::from_value(v)?,\n\
                     ::std::option::Option::None => ::std::default::Default::default(),\n\
                     }},\n"
                )
            } else {
                format!(
                    "{f}: ::serde::Deserialize::from_value(obj.get({f:?}).ok_or_else(|| \
                     ::serde::DeError::custom(concat!(\"missing field `\", {f:?}, \"` in \", {label:?})))?)?,\n"
                )
            }
        })
        .collect()
}

/// `SwapInFault` → `swap-in-fault`.
fn kebab_case(ident: &str) -> String {
    let mut out = String::new();
    for (i, c) in ident.chars().enumerate() {
        if c.is_ascii_uppercase() && i > 0 {
            out.push('-');
        }
        out.push(c.to_ascii_lowercase());
    }
    out
}

/// Parses the derive input into its type name and one of the supported
/// [`Item`] shapes.
fn parse_item(input: TokenStream) -> Result<(String, Item), String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (attrs, mut i) = parse_attrs(&tokens, 0)?;

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected `struct` or `enum`".to_string()),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected a type name".to_string()),
    };
    i += 1;

    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err("serde shim derive does not support generic types".to_string());
    }

    let mut tag = None;
    let mut kebab = false;
    for attr in attrs {
        match attr {
            SerdeAttr::Tag(t) if kind == "enum" => tag = Some(t),
            SerdeAttr::RenameAllKebab if kind == "enum" => kebab = true,
            _ => return Err(format!("unsupported #[serde(...)] attribute on `{name}`")),
        }
    }

    let item = match (kind.as_str(), tokens.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Item::NamedStruct(parse_named_fields(g.stream())?)
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            match count_tuple_fields(g.stream()) {
                1 => Item::Newtype,
                n => {
                    return Err(format!(
                    "serde shim derive supports only single-field tuple structs, `{name}` has {n}"
                ))
                }
            }
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            let variants = parse_variants(g.stream())?.into_iter();
            match tag {
                None => Item::UnitEnum(
                    variants
                        .map(|(v, fields)| match fields {
                            None if kebab => Ok((v.clone(), kebab_case(&v))),
                            None => Ok((v.clone(), v)),
                            Some(_) => Err(format!(
                                "serde shim derive needs #[serde(tag = \"...\")] on `{name}`: \
                                 variant `{v}` has data"
                            )),
                        })
                        .collect::<Result<_, _>>()?,
                ),
                Some(_) if kebab => {
                    return Err(format!(
                        "rename_all is supported only on unit enums, not `{name}`"
                    ))
                }
                Some(tag) => {
                    let variants = variants
                        .map(|(v, fields)| match fields {
                            Some(fields) if fields.iter().any(|f| f.name == tag) => Err(format!(
                                "field `{tag}` of `{name}::{v}` collides with the tag"
                            )),
                            Some(fields) => Ok((v, fields)),
                            None => Err(format!(
                                "tagged enum `{name}` supports only named-field variants; \
                                 `{v}` is a unit variant"
                            )),
                        })
                        .collect::<Result<_, _>>()?;
                    Item::TaggedEnum { tag, variants }
                }
            }
        }
        _ => return Err(format!("unsupported shape for `{name}`")),
    };
    Ok((name, item))
}

/// Consumes the attributes (`#[...]`, including doc comments) and the
/// visibility qualifier starting at `tokens[i]`. Returns the `serde`
/// attributes found and the index of the first token after them.
fn parse_attrs(tokens: &[TokenTree], mut i: usize) -> Result<(Vec<SerdeAttr>, usize), String> {
    let mut attrs = Vec::new();
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    attrs.extend(parse_serde_attr(g)?);
                }
                i += 2; // '#' + bracketed group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // pub(crate) etc.
                    }
                }
            }
            _ => return Ok((attrs, i)),
        }
    }
}

/// Parses an attribute body (the tokens inside `#[...]`): `None` for a
/// non-serde attribute (doc, lint, ...), `Err` for unsupported serde
/// content.
fn parse_serde_attr(group: &Group) -> Result<Option<SerdeAttr>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    match tokens.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return Ok(None),
    }
    let Some(TokenTree::Group(args)) = tokens.get(1) else {
        return Err("malformed #[serde(...)] attribute".to_string());
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    let parsed = match args.as_slice() {
        [TokenTree::Ident(id)] if id.to_string() == "default" => Some(SerdeAttr::Default),
        [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(lit)]
            if eq.as_char() == '=' =>
        {
            let lit = lit.to_string();
            let value = lit
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .filter(|s| !s.is_empty() && !s.contains(['\\', '"']));
            match (key.to_string().as_str(), value) {
                ("tag", Some(tag)) => Some(SerdeAttr::Tag(tag.to_string())),
                ("rename_all", Some("kebab-case")) => Some(SerdeAttr::RenameAllKebab),
                _ => None,
            }
        }
        _ => None,
    };
    parsed.map(Some).ok_or_else(|| {
        format!(
            "serde shim derive supports only #[serde(default)], #[serde(tag = \"...\")] and \
             #[serde(rename_all = \"kebab-case\")], found #[serde({})]",
            args.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        )
    })
}

/// Extracts fields (name + `#[serde(default)]` flag) from the body of a
/// braced struct or variant.
fn parse_named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (attrs, next) = parse_attrs(&tokens, i)?;
        i = next;
        let mut default = false;
        for attr in attrs {
            match attr {
                SerdeAttr::Default => default = true,
                _ => return Err("only #[serde(default)] is supported on fields".to_string()),
            }
        }
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected a field name, found `{other}`")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err(format!("expected `:` after field `{name}`")),
        }
        // Skip the type: everything up to a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field { name, default });
    }
    Ok(fields)
}

/// Counts top-level fields of a tuple struct body.
fn count_tuple_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut commas = 0;
    let mut trailing_comma = false;
    for t in &tokens {
        trailing_comma = false;
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                commas += 1;
                trailing_comma = true;
            }
            _ => {}
        }
    }
    commas + usize::from(!trailing_comma)
}

/// An enum variant's name, with `None` for a unit variant and the named
/// fields otherwise.
type Variant = (String, Option<Vec<Field>>);

/// Extracts the variants of an enum body. Tuple variants and
/// discriminants are rejected.
fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (attrs, next) = parse_attrs(&tokens, i)?;
        if !attrs.is_empty() {
            return Err("#[serde(...)] is not supported on enum variants".to_string());
        }
        i = next;
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected a variant name, found `{other}`")),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Some(parse_named_fields(g.stream())?)
            }
            _ => None,
        };
        match tokens.get(i) {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            Some(_) => {
                return Err(format!(
                    "serde shim derive supports only unit and named-field enum variants; \
                     `{name}` is neither"
                ))
            }
        }
        variants.push((name, fields));
    }
    Ok(variants)
}
