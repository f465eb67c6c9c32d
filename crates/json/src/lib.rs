//! # nomc-json
//!
//! A small JSON codec replacing `serde`/`serde_json` so the workspace
//! builds hermetically. Three pieces:
//!
//! * [`Json`] / [`Number`] / [`Map`] — the value model (insertion-ordered
//!   objects, exact `f64` round-tripping like serde_json's
//!   `float_roundtrip` feature).
//! * [`ToJson`] / [`FromJson`] — derive-free conversion traits, with the
//!   [`json_struct!`], [`json_newtype!`] and [`json_enum!`] macros
//!   generating the impls for structs, transparent newtypes and enums.
//!   Enums use serde's external tagging (`"tag"`, `{"tag": value}`,
//!   `{"tag": [a, b]}`, `{"tag": {..fields..}}`) with an explicit tag
//!   per variant.
//! * [`to_string`] / [`to_string_pretty`] / [`from_str`] — the
//!   `serde_json`-shaped entry points the rest of the workspace calls.
//!
//! # Examples
//!
//! ```
//! use nomc_json::Json;
//!
//! let v: Json = "[1, {\"pi\": 3.25}, null]".parse().unwrap();
//! assert_eq!(v[1]["pi"].as_f64(), Some(3.25));
//! assert_eq!(v.to_string(), "[1,{\"pi\":3.25},null]");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod macros;
mod parse;
mod ser;

pub use convert::{FromJson, ToJson};
#[doc(hidden)]
pub use macros::enum_codec;

use std::fmt;

/// A JSON number, kept in the narrowest faithful representation:
/// tokens with a fraction or exponent parse as [`Number::F64`], plain
/// integers as [`Number::U64`]/[`Number::I64`] so 64-bit seeds survive
/// a round trip exactly.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// A negative integer (or any integer stored as `i64`).
    I64(i64),
    /// A non-negative integer.
    U64(u64),
    /// A floating-point number.
    F64(f64),
}

impl Number {
    /// The value as `f64` (integers convert, possibly losing precision).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::I64(v) => v as f64,
            Number::U64(v) => v as f64,
            Number::F64(v) => v,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::I64(v) => u64::try_from(v).ok(),
            Number::U64(v) => Some(v),
            Number::F64(_) => None,
        }
    }

    /// The value as `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::I64(v) => Some(v),
            Number::U64(v) => i64::try_from(v).ok(),
            Number::F64(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        use Number::*;
        match (*self, *other) {
            (F64(a), F64(b)) => a == b,
            (F64(_), _) | (_, F64(_)) => false,
            (a, b) => match (a.as_i64(), b.as_i64()) {
                (Some(x), Some(y)) => x == y,
                // At least one side exceeds i64::MAX; compare as u64
                // (negative values always have an i64 form).
                _ => a.as_u64().is_some() && a.as_u64() == b.as_u64(),
            },
        }
    }
}

/// An insertion-ordered JSON object.
///
/// Order is preserved through a parse → serialize round trip, which is
/// what makes the scenario-file fixpoint guarantee possible. Equality is
/// order-insensitive, like a map.
#[derive(Debug, Clone, Default)]
pub struct Map {
    entries: Vec<(String, Json)>,
}

impl Map {
    /// Creates an empty object.
    pub fn new() -> Self {
        Map::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a key mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Inserts a key, replacing in place or appending, and returns any
    /// previous value.
    pub fn insert(&mut self, key: impl Into<String>, value: Json) -> Option<Json> {
        let key = key.into();
        match self.get_mut(&key) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(i).1)
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates entries mutably in insertion order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&str, &mut Json)> {
        self.entries.iter_mut().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }
}

impl PartialEq for Map {
    fn eq(&self, other: &Self) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .all(|(k, v)| other.get(k).is_some_and(|ov| ov == v))
    }
}

impl<K: Into<String>> FromIterator<(K, Json)> for Map {
    fn from_iter<I: IntoIterator<Item = (K, Json)>>(iter: I) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Map),
}

/// Shared sentinel for missing-index lookups.
const NULL: Json = Json::Null;

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(entries.into_iter().collect())
    }

    /// Builds an array.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Parses JSON text (also available through [`str::parse`]).
    pub fn parse(text: &str) -> Result<Json, Error> {
        parse::parse(text)
    }

    /// `true` if the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The numeric value as `i64`, if an in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array contents, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The object, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The object mutably, if this is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Object-key lookup that tolerates non-objects (returns `None`).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Serializes compactly (same as the `Display` impl).
    pub fn dump(&self) -> String {
        ser::to_string_compact(self)
    }

    /// Serializes with two-space indentation.
    pub fn dump_pretty(&self) -> String {
        ser::to_string_pretty(self)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.dump())
    }
}

impl std::str::FromStr for Json {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        Json::parse(s)
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;

    /// Returns `Null` for missing keys or non-objects (serde_json
    /// semantics).
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::IndexMut<&str> for Json {
    /// Inserts `Null` for a missing key; panics when indexing a
    /// non-object (serde_json semantics).
    fn index_mut(&mut self, key: &str) -> &mut Json {
        let map = self
            .as_object_mut()
            .unwrap_or_else(|| panic!("cannot index non-object with key {key:?}"));
        if !map.contains_key(key) {
            map.insert(key, Json::Null);
        }
        map.get_mut(key).unwrap()
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;

    /// Returns `Null` when out of range or not an array.
    fn index(&self, i: usize) -> &Json {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl PartialEq<bool> for Json {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<f64> for Json {
    fn eq(&self, other: &f64) -> bool {
        matches!(self, Json::Num(Number::F64(v)) if v == other)
    }
}

impl PartialEq<u64> for Json {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<i64> for Json {
    fn eq(&self, other: &i64) -> bool {
        self.as_i64() == Some(*other)
    }
}

/// A parse or conversion error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Serializes a value compactly.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().dump()
}

/// Serializes a value with two-space indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().dump_pretty()
}

/// Parses JSON text into a typed value.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_json(&Json::parse(text)?)
}
