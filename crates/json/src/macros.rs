//! Boilerplate generators for the workspace's data shapes: plain
//! structs with named fields (optionally defaulted, mirroring
//! `#[serde(default)]`), transparent newtypes, and externally tagged
//! enums.

/// Implements [`ToJson`](crate::ToJson) and [`FromJson`](crate::FromJson)
/// for a struct with named fields.
///
/// Append `= expr` to a field to make it optional on input with that
/// default (the equivalent of `#[serde(default)]`); all fields always
/// serialize.
///
/// # Examples
///
/// ```
/// struct Window {
///     lo: f64,
///     hi: f64,
///     label: String,
/// }
///
/// nomc_json::json_struct!(Window {
///     lo: f64,
///     hi: f64,
///     label: String = String::new(),
/// });
///
/// let w: Window = nomc_json::from_str(r#"{"lo": 0.5, "hi": 2.0}"#).unwrap();
/// assert_eq!(w.hi, 2.0);
/// assert_eq!(w.label, "");
/// assert_eq!(nomc_json::to_string(&w), r#"{"lo":0.5,"hi":2.0,"label":""}"#);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident : $fty:ty $(= $default:expr)?),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::object([
                    $((stringify!($field), $crate::ToJson::to_json(&self.$field))),+
                ])
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::Error> {
                let obj = value.as_object().ok_or_else(|| $crate::Error::new(
                    concat!("expected object for ", stringify!($ty)),
                ))?;
                Ok($ty {
                    $($field: match obj.get(stringify!($field)) {
                        Some(field_value) => {
                            <$fty as $crate::FromJson>::from_json(field_value).map_err(|e| {
                                $crate::Error::new(format!(
                                    concat!(stringify!($ty), ".", stringify!($field), ": {}"),
                                    e
                                ))
                            })?
                        }
                        None => $crate::json_field_default!($ty, $field $(, $default)?),
                    }),+
                })
            }
        }
    };
}

/// Expands to a field's default, or to an early `Err` return when the
/// field has none. Internal helper for [`json_struct!`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_field_default {
    ($ty:ident, $field:ident) => {
        return Err($crate::Error::new(concat!(
            "missing field `",
            stringify!($field),
            "` in ",
            stringify!($ty),
        )))
    };
    ($ty:ident, $field:ident, $default:expr) => {
        $default
    };
}

/// Implements [`ToJson`](crate::ToJson) and [`FromJson`](crate::FromJson)
/// for a single-field tuple struct, serializing transparently as the
/// inner value (serde's newtype-struct behavior).
///
/// # Examples
///
/// ```
/// #[derive(PartialEq, Debug)]
/// struct Celsius(f64);
///
/// nomc_json::json_newtype!(Celsius: f64);
///
/// assert_eq!(nomc_json::to_string(&Celsius(21.5)), "21.5");
/// let t: Celsius = nomc_json::from_str("21.5").unwrap();
/// assert_eq!(t, Celsius(21.5));
/// ```
#[macro_export]
macro_rules! json_newtype {
    ($ty:ident : $inner:ty) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::ToJson::to_json(&self.0)
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::Error> {
                Ok($ty(<$inner as $crate::FromJson>::from_json(value)
                    .map_err(|e| {
                        $crate::Error::new(format!(concat!(stringify!($ty), ": {}"), e))
                    })?))
            }
        }
    };
}

/// Implements [`ToJson`](crate::ToJson) and [`FromJson`](crate::FromJson)
/// for an enum in serde's external tagging, with an explicit tag per
/// variant. Each variant is written as its match pattern (binding names
/// for tuple fields, field names for struct fields) followed by its tag:
///
/// | variant                  | wire form               |
/// |--------------------------|-------------------------|
/// | `Unit = "tag"`           | `"tag"`                 |
/// | `Unit = {"tag": null}`   | `{"tag":null}`          |
/// | `Newtype(v) = "tag"`     | `{"tag":v}`             |
/// | `Tuple(a, b) = "tag"`    | `{"tag":[a,b]}`         |
/// | `Struct { a, b } = "tag"`| `{"tag":{"a":…,"b":…}}` |
///
/// Encoding matches on every listed variant with no catch-all, so a
/// variant missing from the list is a compile error. Decoding is total:
/// a wrong JSON type, an object without exactly one key, an unknown tag,
/// a body of the wrong shape and a missing struct field are each an
/// [`Error`](crate::Error) naming the type and the tag.
///
/// # Examples
///
/// ```
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Empty,
///     Circle(f64),
///     Span(f64, f64),
///     Rect { w: f64, h: f64 },
/// }
///
/// nomc_json::json_enum!(Shape {
///     Empty = "empty",
///     Circle(r) = "circle",
///     Span(lo, hi) = "span",
///     Rect { w, h } = "rect",
/// });
///
/// let r = Shape::Rect { w: 2.0, h: 0.5 };
/// assert_eq!(nomc_json::to_string(&r), r#"{"rect":{"w":2.0,"h":0.5}}"#);
/// assert_eq!(nomc_json::to_string(&Shape::Span(1.0, 2.0)), r#"{"span":[1.0,2.0]}"#);
/// assert_eq!(nomc_json::from_str::<Shape>(r#""empty""#).unwrap(), Shape::Empty);
/// assert!(nomc_json::from_str::<Shape>(r#"{"circle":1.0,"empty":null}"#).is_err());
/// ```
#[macro_export]
macro_rules! json_enum {
    ($ty:ident {
        $(
            $variant:ident $( ( $($x:ident),+ ) )? $( { $($f:ident),+ } )?
                = $( $tag:literal )? $( { $ntag:literal : null } )?
        ),+ $(,)?
    }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $(
                        $ty::$variant $( ( $($x),+ ) )? $( { $($f),+ } )? => $crate::json_enum_encode!(
                            $($tag)? $({ $ntag: null })?; $( ( $($x),+ ) )? $( { $($f),+ } )?
                        ),
                    )+
                }
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::Error> {
                let (at, body) = $crate::enum_codec::Variant::split(value, stringify!($ty))?;
                match at.tag {
                    $(
                        $($tag)? $($ntag)? => $crate::json_enum_decode!(
                            $ty::$variant, at, body;
                            $($tag)? $({ $ntag: null })?; $( ( $($x),+ ) )? $( { $($f),+ } )?
                        ),
                    )+
                    _ => Err(at.unknown()),
                }
            }
        }
    };
}

/// Expands to one variant's [`Json`](crate::Json) tree. Internal helper
/// for [`json_enum!`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_enum_encode {
    ($tag:literal;) => {
        $crate::Json::Str(::std::string::String::from($tag))
    };
    ({ $tag:literal : null };) => {
        $crate::Json::object([($tag, $crate::Json::Null)])
    };
    ($tag:literal; ($x:ident)) => {
        $crate::Json::object([($tag, $crate::ToJson::to_json($x))])
    };
    ($tag:literal; ($($x:ident),+)) => {
        $crate::Json::object([(
            $tag,
            $crate::Json::Arr(::std::vec![$($crate::ToJson::to_json($x)),+]),
        )])
    };
    ($tag:literal; { $($f:ident),+ }) => {
        $crate::Json::object([(
            $tag,
            $crate::Json::object([$((stringify!($f), $crate::ToJson::to_json($f))),+]),
        )])
    };
}

/// Expands to the decoding of one variant from its tag and optional
/// body. Internal helper for [`json_enum!`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_enum_decode {
    ($ty:ident::$v:ident, $at:ident, $b:ident; $tag:literal;) => {
        $at.unit($b).map(|()| $ty::$v)
    };
    ($ty:ident::$v:ident, $at:ident, $b:ident; { $tag:literal : null };) => {
        $at.null($b).map(|()| $ty::$v)
    };
    ($ty:ident::$v:ident, $at:ident, $b:ident; $tag:literal; ($x:ident)) => {
        $at.decode($at.body($b)?).map($ty::$v)
    };
    ($ty:ident::$v:ident, $at:ident, $b:ident; $tag:literal; ($($x:ident),+)) => {
        match $at.items($b)? {
            [$($x),+] => Ok($ty::$v($($at.decode($x)?),+)),
            items => Err($at.arity([$(stringify!($x)),+].len(), items.len())),
        }
    };
    ($ty:ident::$v:ident, $at:ident, $b:ident; $tag:literal; { $($f:ident),+ }) => {{
        let fields = $at.fields($b)?;
        Ok($ty::$v {
            $($f: $at.field(fields, stringify!($f))?),+
        })
    }};
}

/// The runtime half of [`json_enum!`]: splitting an externally tagged
/// value and checking each variant's body, with errors that name the
/// type and the tag.
#[doc(hidden)]
pub mod enum_codec {
    use crate::{Error, FromJson, Json, Map};

    /// The variant a decoder is reading: its type's name and the tag.
    pub struct Variant<'a> {
        /// The enum's name.
        pub ty: &'static str,
        /// The tag found in the input.
        pub tag: &'a str,
    }

    impl<'a> Variant<'a> {
        /// The variant `value` names and its body: a string is a tag
        /// without a body, an object with exactly one key is a tag with
        /// its body.
        pub fn split(value: &'a Json, ty: &'static str) -> Result<(Self, Option<&'a Json>), Error> {
            let (tag, body) = match value {
                Json::Str(tag) => (tag.as_str(), None),
                Json::Obj(map) => {
                    let mut entries = map.iter();
                    match (entries.next(), entries.next()) {
                        (Some((tag, body)), None) => (tag, Some(body)),
                        _ => {
                            return Err(Error::new(format!(
                                "{ty}: expected an object with one variant key, found {} keys",
                                map.len()
                            )))
                        }
                    }
                }
                _ => return Err(Error::new(format!("expected string or object for {ty}"))),
            };
            Ok((Variant { ty, tag }, body))
        }

        fn error(&self, what: impl std::fmt::Display) -> Error {
            Error::new(format!("{}::{}: {what}", self.ty, self.tag))
        }

        /// The error for a tag no variant has.
        pub fn unknown(&self) -> Error {
            Error::new(format!("unknown {} variant `{}`", self.ty, self.tag))
        }

        /// Checks a unit variant spelled as its bare tag.
        pub fn unit(&self, body: Option<&Json>) -> Result<(), Error> {
            match body {
                None => Ok(()),
                Some(_) => Err(self.error(format_args!("expected the string \"{}\"", self.tag))),
            }
        }

        /// Checks a unit variant spelled `{"tag":null}`.
        pub fn null(&self, body: Option<&Json>) -> Result<(), Error> {
            match body {
                Some(Json::Null) => Ok(()),
                _ => Err(self.error(format_args!("expected {{\"{}\":null}}", self.tag))),
            }
        }

        /// The body of a variant that carries data.
        pub fn body<'b>(&self, body: Option<&'b Json>) -> Result<&'b Json, Error> {
            body.ok_or_else(|| self.error(format_args!("expected {{\"{}\":…}}", self.tag)))
        }

        /// The elements of a tuple variant's array body.
        pub fn items<'b>(&self, body: Option<&'b Json>) -> Result<&'b [Json], Error> {
            match body {
                Some(Json::Arr(items)) => Ok(items),
                _ => Err(self.error("expected an array")),
            }
        }

        /// The error for a tuple variant's array of the wrong length.
        pub fn arity(&self, expected: usize, found: usize) -> Error {
            self.error(format_args!("expected {expected} elements, found {found}"))
        }

        /// The fields of a struct variant's object body.
        pub fn fields<'b>(&self, body: Option<&'b Json>) -> Result<&'b Map, Error> {
            match body {
                Some(Json::Obj(fields)) => Ok(fields),
                _ => Err(self.error("expected an object")),
            }
        }

        /// Decodes a newtype variant's value or a tuple variant's element.
        pub fn decode<T: FromJson>(&self, value: &Json) -> Result<T, Error> {
            T::from_json(value).map_err(|e| self.error(e))
        }

        /// Decodes one named field of a struct variant.
        pub fn field<T: FromJson>(&self, fields: &Map, name: &str) -> Result<T, Error> {
            let value = fields.get(name).ok_or_else(|| {
                Error::new(format!(
                    "missing field `{name}` in {}::{}",
                    self.ty, self.tag
                ))
            })?;
            T::from_json(value)
                .map_err(|e| Error::new(format!("{}::{}.{name}: {e}", self.ty, self.tag)))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate as nomc_json;
    use crate::{from_str, to_string};

    #[derive(Debug, PartialEq)]
    struct Inner(u32);
    nomc_json::json_newtype!(Inner: u32);

    #[derive(Debug, PartialEq)]
    struct Outer {
        a: Inner,
        b: Vec<f64>,
        c: bool,
    }
    nomc_json::json_struct!(Outer {
        a: Inner,
        b: Vec<f64>,
        c: bool = true,
    });

    #[test]
    fn struct_round_trip_and_defaults() {
        let v = Outer {
            a: Inner(3),
            b: vec![1.5, -2.0],
            c: false,
        };
        let text = to_string(&v);
        assert_eq!(text, r#"{"a":3,"b":[1.5,-2.0],"c":false}"#);
        assert_eq!(from_str::<Outer>(&text).unwrap(), v);

        let defaulted: Outer = from_str(r#"{"a": 9, "b": []}"#).unwrap();
        assert_eq!(
            defaulted,
            Outer {
                a: Inner(9),
                b: vec![],
                c: true
            }
        );
    }

    #[test]
    fn missing_required_field_is_an_error() {
        let err = from_str::<Outer>(r#"{"b": []}"#).unwrap_err();
        assert!(err.to_string().contains("missing field `a`"), "{err}");
    }

    #[derive(Debug, PartialEq)]
    enum Every {
        Bare,
        Null,
        One(Inner),
        Two(u32, bool),
        Named { a: Inner, c: bool },
    }
    nomc_json::json_enum!(Every {
        Bare = "bare",
        Null = {"null": null},
        One(v) = "one",
        Two(x, y) = "two",
        Named { a, c } = "named",
    });

    #[test]
    fn enum_shapes_round_trip_and_reject_what_they_do_not_name() {
        for (value, text) in [
            (Every::Bare, r#""bare""#),
            (Every::Null, r#"{"null":null}"#),
            (Every::One(Inner(4)), r#"{"one":4}"#),
            (Every::Two(5, true), r#"{"two":[5,true]}"#),
            (
                Every::Named {
                    a: Inner(6),
                    c: false,
                },
                r#"{"named":{"a":6,"c":false}}"#,
            ),
        ] {
            assert_eq!(to_string(&value), text);
            assert_eq!(from_str::<Every>(text).unwrap(), value);
        }

        let rejected = [
            // Unknown tag, bare and as a key.
            (r#""nope""#, "unknown Every variant `nope`"),
            (r#"{"nope":1}"#, "unknown Every variant `nope`"),
            // Wrong JSON type for the enum, and for each variant's body.
            ("3", "expected string or object for Every"),
            ("[]", "expected string or object for Every"),
            (r#"{"bare":null}"#, "Every::bare: expected the string"),
            (r#""null""#, "Every::null: expected {\"null\":null}"),
            (r#"{"null":1}"#, "Every::null: expected {\"null\":null}"),
            (r#""one""#, "Every::one: expected {\"one\":…}"),
            (
                r#"{"one":"x"}"#,
                "Every::one: Inner: expected unsigned integer",
            ),
            (r#"{"two":5}"#, "Every::two: expected an array"),
            (r#"{"two":[5]}"#, "Every::two: expected 2 elements, found 1"),
            (r#"{"two":[5,1]}"#, "Every::two: expected boolean"),
            (r#"{"named":[]}"#, "Every::named: expected an object"),
            (
                r#"{"named":{"a":1,"c":2}}"#,
                "Every::named.c: expected boolean",
            ),
            // Empty and ambiguous objects.
            (
                "{}",
                "Every: expected an object with one variant key, found 0 keys",
            ),
            (
                r#"{"one":4,"bare":null}"#,
                "Every: expected an object with one variant key, found 2 keys",
            ),
            // A struct variant's missing field.
            (r#"{"named":{"a":6}}"#, "missing field `c` in Every::named"),
        ];
        for (text, message) in rejected {
            let err = from_str::<Every>(text).unwrap_err();
            assert!(err.to_string().contains(message), "{text}: {err}");
        }
    }

    #[test]
    fn field_errors_carry_a_path() {
        let err = from_str::<Outer>(r#"{"a": 3, "b": ["x"]}"#).unwrap_err();
        assert!(err.to_string().contains("Outer.b"), "{err}");
    }
}
