//! Offline drop-in replacement for the subset of `serde` used by this
//! workspace.
//!
//! The build environment cannot reach a crates.io registry, so the
//! workspace vendors a simplified serialization framework under the same
//! item paths the real crate exposes. Instead of serde's
//! visitor/`Serializer` architecture, values pass through an in-memory
//! JSON-like [`Value`] tree:
//!
//! * [`Serialize`] converts a value *to* a [`Value`];
//! * [`Deserialize`] reconstructs a value *from* a [`Value`];
//! * the `#[derive(Serialize, Deserialize)]` macros (re-exported from the
//!   companion `serde_derive` shim) generate those impls for the shapes
//!   this repository uses, with the same wire format real serde gives
//!   them:
//!
//!   | Shape | Encoding |
//!   |---|---|
//!   | struct with named fields | object |
//!   | single-field tuple struct (newtype) | the field |
//!   | enum of unit variants | variant name string |
//!   | enum of named-field variants, `#[serde(tag = "k")]` | one flat object: the fields plus `"k": "Variant"` |
//!
//!   The supported attributes are `#[serde(tag = "...")]` (required on,
//!   and only allowed on, enums with named-field variants),
//!   `#[serde(rename_all = "kebab-case")]` on unit enums (`SwapInFault`
//!   → `"swap-in-fault"`), and `#[serde(default)]` on named fields. Any
//!   other attribute or shape is a compile error. Decoding is strict: a
//!   wrong shape, an unknown variant or tag, and a missing or mistyped
//!   field are [`DeError`]s; unknown extra object keys are ignored.
//!
//! ```
//! use serde::{Deserialize, Serialize, Value};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! #[serde(rename_all = "kebab-case")]
//! enum Dir { SwapIn, Out }
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! #[serde(tag = "ev")]
//! enum Ev { Moved { dir: Dir, bytes: u64 } }
//!
//! let ev = Ev::Moved { dir: Dir::SwapIn, bytes: 8 };
//! let v = ev.to_value();
//! assert_eq!(v.get("ev"), Some(&Value::String("Moved".into())));
//! assert_eq!(v.get("dir"), Some(&Value::String("swap-in".into())));
//! assert_eq!(Ev::from_value(&v), Ok(ev));
//! ```
//!
//! Data enums must be internally tagged:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! enum Untagged { A { x: u8 } }
//! ```
//!
//! and attributes beyond the three above are rejected:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Renamed { #[serde(rename = "y")] x: u8 }
//! ```
//!
//! The `serde_json` shim handles text parsing/printing on top of the same
//! [`Value`] type.

use std::collections::BTreeMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// Key-ordered JSON object representation.
pub type Map = BTreeMap<String, Value>;

/// An in-memory JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (stored as `f64`; integers up to 2^53 are exact).
    Number(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with sorted keys.
    Object(Map),
}

impl Value {
    /// Returns the elements if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the string contents if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the numeric value if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the numeric value as `u64` if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Returns the boolean if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the key-value map if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object field lookup by key; `None` for non-objects or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }
}

/// Error produced when a [`Value`] does not match the requested shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(String);

impl DeError {
    /// Creates an error with the given message.
    #[must_use]
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion of a value into the [`Value`] tree.
pub trait Serialize {
    /// Serializes `self` as a [`Value`].
    fn to_value(&self) -> Value;
}

/// Reconstruction of a value from the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes an instance from `v`.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when `v` has the wrong shape.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool()
            .ok_or_else(|| DeError::custom("expected a boolean"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::custom("expected a string"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64()
            .ok_or_else(|| DeError::custom("expected a number"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(f64::from_value(v)? as f32)
    }
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }

        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v
                    .as_f64()
                    .ok_or_else(|| DeError::custom("expected a number"))?;
                if n.fract() != 0.0 {
                    return Err(DeError::custom("expected an integer"));
                }
                if n < <$t>::MIN as f64 || n > <$t>::MAX as f64 {
                    return Err(DeError::custom("integer out of range"));
                }
                Ok(n as $t)
            }
        }
    )*};
}

impl_serde_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::custom("expected an array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert_eq!(usize::from_value(&42usize.to_value()), Ok(42));
        assert_eq!(f64::from_value(&1.5f64.to_value()), Ok(1.5));
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()),
            Ok("hi".to_string())
        );
        assert_eq!(
            Vec::<u64>::from_value(&vec![1u64, 2, 3].to_value()),
            Ok(vec![1, 2, 3])
        );
    }

    #[test]
    fn shape_mismatches_error() {
        assert!(usize::from_value(&Value::String("x".into())).is_err());
        assert!(usize::from_value(&Value::Number(1.5)).is_err());
        assert!(u8::from_value(&Value::Number(300.0)).is_err());
        assert!(Vec::<u64>::from_value(&Value::Number(1.0)).is_err());
    }

    #[test]
    fn value_accessors() {
        let mut m = Map::new();
        m.insert("k".into(), Value::Number(3.0));
        let obj = Value::Object(m);
        assert_eq!(obj.get("k").and_then(Value::as_u64), Some(3));
        assert_eq!(obj.get("missing"), None);
        assert_eq!(Value::Null.get("k"), None);
        assert_eq!(Value::Number(2.5).as_u64(), None);
    }
}
