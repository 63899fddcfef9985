//! Behaviour of the serde shim's derive macros on every supported
//! shape: the JSON wire encoding, round trips, and strict decoding.

use serde::{DeError, Deserialize, Map, Serialize, Value};

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
enum Reason {
    CpuPressure,
    SwapInFault,
    Cold,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Plain {
    CpuPressure,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Secs(f64);

/// Doc comments and lint attributes on variants and fields are ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "ev")]
enum Event {
    /// A variant with several field types.
    Dropped {
        /// Timestamp.
        at: Secs,
        conv: Option<u64>,
        reason: Reason,
        tokens: usize,
    },
    Flag {
        lost: bool,
        #[serde(default)]
        retries: u32,
    },
    Empty {},
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Spec {
    name: String,
    #[serde(default)]
    extra: Vec<u8>,
}

fn json(text: &str) -> Value {
    serde_json::from_str(text).expect("test input is valid JSON")
}

fn text(v: &impl Serialize) -> String {
    serde_json::to_string(&v.to_value()).expect("value prints")
}

#[test]
fn rename_all_kebab_case_maps_every_variant() {
    assert_eq!(text(&Reason::CpuPressure), r#""cpu-pressure""#);
    assert_eq!(text(&Reason::SwapInFault), r#""swap-in-fault""#);
    assert_eq!(text(&Reason::Cold), r#""cold""#);
    assert_eq!(
        Reason::from_value(&json(r#""swap-in-fault""#)),
        Ok(Reason::SwapInFault)
    );
    // Only the renamed form decodes.
    assert!(Reason::from_value(&json(r#""SwapInFault""#)).is_err());
    assert!(Reason::from_value(&json(r#""cpu_pressure""#)).is_err());
    assert!(Reason::from_value(&json("1")).is_err());
    // Without the attribute the variant name is the wire string.
    assert_eq!(text(&Plain::CpuPressure), r#""CpuPressure""#);
}

#[test]
fn tagged_enum_is_one_flat_object() {
    let ev = Event::Dropped {
        at: Secs(1.5),
        conv: None,
        reason: Reason::SwapInFault,
        tokens: 32,
    };
    assert_eq!(
        text(&ev),
        r#"{"at":1.5,"conv":null,"ev":"Dropped","reason":"swap-in-fault","tokens":32}"#
    );
    assert_eq!(Event::from_value(&ev.to_value()), Ok(ev));
    assert_eq!(text(&Event::Empty {}), r#"{"ev":"Empty"}"#);
    assert_eq!(
        Event::from_value(&json(r#"{"ev":"Empty"}"#)),
        Ok(Event::Empty {})
    );
}

#[test]
fn tagged_enum_decoding_is_strict() {
    let bad = [
        // unknown tag
        r#"{"ev":"Nope","lost":true}"#,
        // missing tag, non-string tag
        r#"{"lost":true}"#,
        r#"{"ev":3,"lost":true}"#,
        // missing field
        r#"{"ev":"Dropped","at":1,"conv":2,"reason":"cold"}"#,
        // mistyped fields
        r#"{"ev":"Flag","lost":"yes"}"#,
        r#"{"ev":"Dropped","at":1,"conv":2,"reason":"cold","tokens":-1}"#,
        r#"{"ev":"Dropped","at":1,"conv":2,"reason":"hot","tokens":1}"#,
        // non-objects
        r#""Flag""#,
        "[]",
        "null",
    ];
    for text in bad {
        assert!(Event::from_value(&json(text)).is_err(), "{text} decoded");
    }
}

#[test]
fn errors_name_the_missing_field_and_unknown_tag() {
    let missing = Event::from_value(&json(r#"{"ev":"Flag"}"#)).unwrap_err();
    assert_eq!(
        missing,
        DeError::custom("missing field `lost` in Event::Flag")
    );
    let unknown = Event::from_value(&json(r#"{"ev":"Nope"}"#)).unwrap_err();
    assert_eq!(unknown, DeError::custom("unknown Event variant `Nope`"));
}

#[test]
fn default_fields_and_extra_keys_are_tolerated() {
    assert_eq!(
        Event::from_value(&json(r#"{"ev":"Flag","lost":true,"note":"x"}"#)),
        Ok(Event::Flag {
            lost: true,
            retries: 0
        })
    );
    let spec = Spec {
        name: "a".into(),
        extra: vec![1],
    };
    assert_eq!(text(&spec), r#"{"extra":[1],"name":"a"}"#);
    assert_eq!(Spec::from_value(&spec.to_value()), Ok(spec));
    let mut m = Map::new();
    m.insert("name".into(), Value::String("b".into()));
    assert_eq!(
        Spec::from_value(&Value::Object(m)),
        Ok(Spec {
            name: "b".into(),
            extra: Vec::new()
        })
    );
    assert!(Spec::from_value(&json("{}")).is_err());
}
