//! [`ToJson`] / [`FromJson`] and their implementations for primitives,
//! boxes, collections and tuples — the derive-free counterpart of
//! `serde::Serialize` / `Deserialize` for the data shapes the workspace
//! uses (tuples serialize as arrays, `Option` as nullable, newtypes
//! transparently via [`crate::json_newtype!`]).

use crate::{Error, Json, Number};

/// A value convertible to a [`Json`] tree.
pub trait ToJson {
    /// Converts to a JSON value.
    fn to_json(&self) -> Json;
}

/// A value reconstructible from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Converts from a JSON value.
    fn from_json(value: &Json) -> Result<Self, Error>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(value: &Json) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::new("expected boolean"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(Number::F64(*self))
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, Error> {
        value.as_f64().ok_or_else(|| Error::new("expected number"))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(Number::F64(f64::from(*self)))
    }
}

impl FromJson for f32 {
    fn from_json(value: &Json) -> Result<Self, Error> {
        Ok(f64::from_json(value)? as f32)
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),* $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(Number::U64(u64::from(*self)))
            }
        }

        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, Error> {
                let raw = value
                    .as_u64()
                    .ok_or_else(|| Error::new("expected unsigned integer"))?;
                <$t>::try_from(raw).map_err(|_| {
                    Error::new(format!(
                        "integer {raw} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(Number::U64(*self as u64))
    }
}

impl FromJson for usize {
    fn from_json(value: &Json) -> Result<Self, Error> {
        let raw = value
            .as_u64()
            .ok_or_else(|| Error::new("expected unsigned integer"))?;
        usize::try_from(raw).map_err(|_| Error::new(format!("integer {raw} out of range")))
    }
}

macro_rules! impl_json_int {
    ($($t:ty),* $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = i64::from(*self);
                if v >= 0 {
                    Json::Num(Number::U64(v as u64))
                } else {
                    Json::Num(Number::I64(v))
                }
            }
        }

        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, Error> {
                let raw = value
                    .as_i64()
                    .ok_or_else(|| Error::new("expected integer"))?;
                <$t>::try_from(raw).map_err(|_| {
                    Error::new(format!(
                        "integer {raw} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}

impl_json_int!(i8, i16, i32, i64);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::new("expected string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(value: &Json) -> Result<Self, Error> {
        T::from_json(value).map(Box::new)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, Error> {
        let items = value
            .as_array()
            .ok_or_else(|| Error::new("expected array"))?;
        items.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, Error> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_json(value).map(Some)
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Json) -> Result<Self, Error> {
        let items = value
            .as_array()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| Error::new("expected 2-element array"))?;
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(value: &Json) -> Result<Self, Error> {
        let items = value
            .as_array()
            .filter(|a| a.len() == 3)
            .ok_or_else(|| Error::new("expected 3-element array"))?;
        Ok((
            A::from_json(&items[0])?,
            B::from_json(&items[1])?,
            C::from_json(&items[2])?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert_eq!(f64::from_json(&1.5f64.to_json()).unwrap(), 1.5);
        assert_eq!(u64::from_json(&u64::MAX.to_json()).unwrap(), u64::MAX);
        assert_eq!(i64::from_json(&(-9i64).to_json()).unwrap(), -9);
        assert!(bool::from_json(&true.to_json()).unwrap());
        assert_eq!(String::from_json(&"x".to_json()).unwrap(), "x");
    }

    #[test]
    fn ints_widen_to_f64_when_asked() {
        // serde permits deserializing a JSON integer into an f64 field.
        assert_eq!(f64::from_json(&Json::Num(Number::U64(5))).unwrap(), 5.0);
        assert_eq!(f64::from_json(&Json::Num(Number::I64(-5))).unwrap(), -5.0);
    }

    #[test]
    fn narrowing_is_checked() {
        assert!(u8::from_json(&300u64.to_json()).is_err());
        assert!(u64::from_json(&(-1i64).to_json()).is_err());
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1usize, "a".to_string()), (2, "b".to_string())];
        let back: Vec<(usize, String)> = FromJson::from_json(&v.to_json()).unwrap();
        assert_eq!(back, v);
        assert_eq!(v.to_json().dump(), r#"[[1,"a"],[2,"b"]]"#);

        let opt: Option<u32> = None;
        assert!(opt.to_json().is_null());
        let some: Option<u32> = FromJson::from_json(&7u32.to_json()).unwrap();
        assert_eq!(some, Some(7));
    }
}
