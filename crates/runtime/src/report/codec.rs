//! The one mechanism behind every exported document: a value knows how to
//! become a [`Json`] tree and how to be read back from one.
//!
//! [`Codec`] is implemented once per *shape* — the integers, `f64`, `bool`,
//! `String`, `Option<T>`, `Vec<T>` — and once per exported struct by a
//! [`record!`] table that lists the struct's fields a single time, in
//! document order.  The document key *is* the field name, so the writer and
//! the reader cannot disagree on a spelling, and the reader is a struct
//! literal, so a field missing from the table does not compile.  Field-less
//! enums are written as labels from one [`labels!`] table each.
//!
//! Which types are exported, and under which keys, stays the decision of the
//! module that owns the format: the tables live in
//! [`export`](crate::report::export) (run reports) and
//! [`scenario::trace`](crate::scenario::trace) (syndrome traces); the types
//! themselves know nothing about JSON.
//!
//! Readers treat the document as outside input: a missing key, a value of
//! the wrong kind, an integer that does not fit its field, an unknown label
//! are all [`ExportError::Schema`] naming the path of fields that led there —
//! nothing is narrowed with `as`, nothing panics.

use crate::report::export::ExportError;
use crate::report::json::Json;
use std::fmt::Display;

/// The format every shape has by default.  A module that needs a second
/// spelling of a shape (the trace's hex-encoded 64-bit words) declares its
/// own marker and implements `Codec<Marker>` for the leaf; `Option` and
/// `Vec` carry any format through.
pub(crate) struct Plain;

/// A value with exactly one JSON spelling under `Format`.
pub(crate) trait Codec<Format = Plain>: Sized {
    /// Writes the value as a [`Json`] tree.
    fn encode(&self) -> Json;

    /// Reads the value back; the inverse of [`Codec::encode`].
    fn decode(value: &Json) -> Result<Self, ExportError>;
}

/// An [`ExportError::Schema`] saying `message`.
pub(crate) fn schema(message: impl Display) -> ExportError {
    ExportError::Schema(message.to_string())
}

/// Prefixes a schema error with the place it was found in.
fn within<T>(place: impl Display, result: Result<T, ExportError>) -> Result<T, ExportError> {
    result.map_err(|err| match err {
        ExportError::Schema(message) => schema(format_args!("{place}: {message}")),
        other => other,
    })
}

/// Reads the field `key` of the object `value`.
pub(crate) fn field<F, T: Codec<F>>(value: &Json, key: &str) -> Result<T, ExportError> {
    let found = value
        .get(key)
        .ok_or_else(|| schema(format_args!("missing field '{key}'")))?;
    within(format_args!("field '{key}'"), T::decode(found))
}

macro_rules! integer {
    ($($int:ty),*) => {$(
        impl Codec for $int {
            fn encode(&self) -> Json {
                Json::Num(*self as f64)
            }

            fn decode(value: &Json) -> Result<Self, ExportError> {
                value
                    .as_u64()
                    .and_then(|n| n.try_into().ok())
                    .ok_or_else(|| schema(concat!("not an integer in ", stringify!($int), " range")))
            }
        }
    )*};
}
integer!(u64, u32, usize);

impl Codec for f64 {
    fn encode(&self) -> Json {
        Json::Num(*self)
    }

    fn decode(value: &Json) -> Result<Self, ExportError> {
        value.as_f64().ok_or_else(|| schema("not a number"))
    }
}

impl Codec for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }

    fn decode(value: &Json) -> Result<Self, ExportError> {
        value.as_bool().ok_or_else(|| schema("not a boolean"))
    }
}

impl Codec for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }

    fn decode(value: &Json) -> Result<Self, ExportError> {
        let text = value.as_str().ok_or_else(|| schema("not a string"))?;
        Ok(text.to_string())
    }
}

/// `None` is `null`.
impl<F, T: Codec<F>> Codec<F> for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }

    fn decode(value: &Json) -> Result<Self, ExportError> {
        match value {
            Json::Null => Ok(None),
            some => T::decode(some).map(Some),
        }
    }
}

impl<F, T: Codec<F>> Codec<F> for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }

    fn decode(value: &Json) -> Result<Self, ExportError> {
        let items = value.as_array().ok_or_else(|| schema("not an array"))?;
        let decode = |(i, item)| within(format_args!("element {i}"), T::decode(item));
        items.iter().enumerate().map(decode).collect()
    }
}

/// Implements [`Codec`] for a struct from one list of its fields, in
/// document order: `field` is written under the key `field` in the field
/// type's own format, `field as Format` in another (see [`Plain`]).
macro_rules! record {
    ($ty:ty { $($field:ident $(as $format:ty)?),+ $(,)? }) => {
        impl $crate::report::codec::Codec for $ty {
            fn encode(&self) -> $crate::report::json::Json {
                use $crate::report::codec::{record, Codec};
                $crate::report::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        Codec::<record!(@format $($format)?)>::encode(&self.$field),
                    ),)+
                ])
            }

            fn decode(
                value: &$crate::report::json::Json,
            ) -> Result<Self, $crate::report::export::ExportError> {
                use $crate::report::codec::{field, record};
                Ok(Self {
                    $($field: field::<record!(@format $($format)?), _>(
                        value,
                        stringify!($field),
                    )?,)+
                })
            }
        }
    };
    (@format) => { $crate::report::codec::Plain };
    (@format $format:ty) => { $format };
}
pub(crate) use record;

/// Implements [`Codec`] for a field-less enum from its label table — an
/// array of `(variant, label)` pairs that lists every variant — so each
/// label has one spelling.  `$what` names the enum in errors.
macro_rules! labels {
    ($ty:ty, $what:literal, $table:expr) => {
        impl $crate::report::codec::Codec for $ty {
            fn encode(&self) -> $crate::report::json::Json {
                let entry = $table.iter().find(|(variant, _)| variant == self);
                let (_, label) = entry.expect("the label table lists every variant");
                $crate::report::json::Json::Str(label.to_string())
            }

            fn decode(
                value: &$crate::report::json::Json,
            ) -> Result<Self, $crate::report::export::ExportError> {
                use $crate::report::codec::schema;
                let text = value.as_str().ok_or_else(|| schema("not a string"))?;
                let entry = $table.iter().find(|(_, label)| *label == text);
                let variant = entry.map(|(variant, _)| *variant);
                variant.ok_or_else(|| schema(format_args!("unknown {} '{text}'", $what)))
            }
        }
    };
}
pub(crate) use labels;

/// Puts `header` in front of the fields of the encoded record `body`: every
/// exported document opens with `schema_version` and `kind`.
pub(crate) fn with_header(header: Vec<(&str, Json)>, body: Json) -> Json {
    let Json::Obj(body) = body else {
        unreachable!("a record encodes as an object");
    };
    let header = header
        .into_iter()
        .map(|(key, value)| (key.to_string(), value));
    Json::Obj(header.chain(body).collect())
}

/// Checks the header [`with_header`] wrote: a `schema_version` other than
/// `expected` is [`ExportError::Version`], another `kind` a schema error.
pub(crate) fn check_header(doc: &Json, expected: u64, kind: &str) -> Result<(), ExportError> {
    let found: u64 = field::<Plain, _>(doc, "schema_version")?;
    if found != expected {
        return Err(ExportError::Version { found, expected });
    }
    let found: String = field::<Plain, _>(doc, "kind")?;
    if found != kind {
        return Err(schema(format_args!(
            "document kind is '{found}', expected '{kind}'"
        )));
    }
    Ok(())
}
