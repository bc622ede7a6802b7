//! One-line JSON over the runtime's [`Json`] tree.
//!
//! The runtime crate already owns the document model, a pretty writer and
//! the parser; the benchmark's result must be the *last line* of standard
//! output, so this adds the single-line writer and an object builder.

use nisqplus_runtime::report::Json;

/// Builds a [`Json::Obj`] from `(key, value)` pairs, in order.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Serializes `value` on one line.  Scalars go through the runtime's own
/// writer, so strings are escaped and numbers keep every digit (`{:?}`, the
/// shortest text that parses back to the same `f64`; non-finite → `null`)
/// exactly as in its reports.
#[must_use]
pub fn to_line(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Json) {
    match value {
        Json::Arr(items) => write_list(out, '[', ']', items.iter().map(|item| (None, item))),
        Json::Obj(fields) => {
            let keyed = fields.iter().map(|(key, item)| (Some(key.as_str()), item));
            write_list(out, '{', '}', keyed);
        }
        scalar => out.push_str(scalar.to_pretty().trim_end()),
    }
}

fn write_list<'a>(
    out: &mut String,
    open: char,
    close: char,
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    for (index, (key, item)) in items.enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        if let Some(key) = key {
            out.push_str(Json::from(key).to_pretty().trim_end());
            out.push_str(": ");
        }
        write_value(out, item);
    }
    out.push(close);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisqplus_runtime::report::parse;

    #[test]
    fn line_writer_round_trips_through_the_runtime_parser() {
        let doc = object([
            ("correct", Json::Bool(true)),
            ("attempted", Json::from(1_000_000u64)),
            ("ratio", Json::Num(0.1 + 0.2)),
            ("tiny", Json::Num(1.5e-9)),
            ("text", Json::from("a \"quoted\"\nline\t\u{1}")),
            ("none", Json::Null),
            (
                "nested",
                Json::Arr(vec![Json::Num(-3.0), object([("k", Json::Arr(vec![]))])]),
            ),
        ]);
        let line = to_line(&doc);
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(parse(&line).expect("valid json"), doc);
    }

    #[test]
    fn numbers_keep_every_digit_and_integers_have_no_fraction() {
        assert_eq!(to_line(&Json::Num(0.1 + 0.2)), "0.30000000000000004");
        assert_eq!(to_line(&Json::Num(250000.0)), "250000");
        assert_eq!(to_line(&Json::Num(f64::NAN)), "null");
        assert_eq!(
            to_line(&object([("a", Json::Num(1.0)), ("b", Json::Bool(false))])),
            "{\"a\": 1, \"b\": false}"
        );
    }
}
