//! A minimal JSON value and its one deterministic pretty-printer — the
//! only JSON writer behind `BENCH_figures.json` and the golden snapshot.
//!
//! There is no parser: tests assert on the typed results the values are
//! built from, and snapshot tests compare rendered text.
//!
//! Layout rule: an object that contains no array prints on one line;
//! an array, or an object holding one, prints one member per line,
//! indented two spaces per level. Objects keep insertion order, so the
//! same value always renders to the same bytes.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (every count in this harness is unsigned).
    Int(u64),
    /// A float printed with a fixed number of decimals, e.g.
    /// `Fixed(0.5, 4)` → `0.5000`. Non-finite values print as `null`.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; members print in insertion order.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(fields.into_iter().collect())
    }

    /// An array from its items, in order.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Render with the module's layout rule (no trailing newline).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn has_array(&self) -> bool {
        match self {
            Json::Array(items) => !items.is_empty(),
            Json::Object(fields) => fields.iter().any(|(_, v)| v.has_array()),
            _ => false,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Object(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
            ),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => return out.push_str(&n.to_string()),
            Json::Fixed(v, decimals) if v.is_finite() => {
                return out.push_str(&format!("{v:.decimals$}"))
            }
            Json::Null | Json::Fixed(..) => return out.push_str("null"),
            Json::Str(s) => return escape(s, out),
        };
        out.push(open);
        let one_line = !self.has_array();
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(if one_line { ", " } else { "," });
            }
            if !one_line {
                out.push('\n');
                out.push_str(&" ".repeat(indent + 2));
            }
            if let Some(key) = key {
                escape(key, out);
                out.push_str(": ");
            }
            value.write(out, indent + 2);
        }
        if !one_line {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
        }
        out.push(close);
    }
}

/// Quote `s`, escaping `"`, `\` and every control character.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", u32::from(c)));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_as_json_literals() {
        assert_eq!(Json::Null.pretty(), "null");
        assert_eq!(Json::from(true).pretty(), "true");
        assert_eq!(Json::from(42u64).pretty(), "42");
        assert_eq!(Json::Fixed(0.5, 4).pretty(), "0.5000");
        assert_eq!(Json::Fixed(1234.56, 0).pretty(), "1235");
        assert_eq!(Json::Fixed(f64::NAN, 2).pretty(), "null");
        assert_eq!(Json::Fixed(f64::INFINITY, 1).pretty(), "null");
        assert_eq!(Json::from(None::<u64>).pretty(), "null");
        assert_eq!(Json::from(Some(7usize)).pretty(), "7");
    }

    #[test]
    fn every_string_is_escaped() {
        assert_eq!(
            Json::from("a\"b\\c\nd\u{1}é").pretty(),
            r#""a\"b\\c\u000ad\u0001é""#
        );
        assert_eq!(
            Json::object([("k\"ey", Json::Null)]).pretty(),
            r#"{"k\"ey": null}"#
        );
    }

    #[test]
    fn objects_without_arrays_stay_on_one_line() {
        let v = Json::object([
            ("name", "x".into()),
            ("inner", Json::object([("n", 1u64.into())])),
            ("empty", Json::array([])),
        ]);
        assert_eq!(
            v.pretty(),
            r#"{"name": "x", "inner": {"n": 1}, "empty": []}"#
        );
    }

    #[test]
    fn arrays_print_one_member_per_line() {
        let v = Json::object([
            (
                "rows",
                Json::array([Json::object([("a", 1u64.into())]), Json::Null]),
            ),
            ("n", 2u64.into()),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"rows\": [\n    {\"a\": 1},\n    null\n  ],\n  \"n\": 2\n}"
        );
    }
}
