//! A minimal JSON emitter for experiment records.
//!
//! The approved dependency set includes `serde` but not `serde_json`, so
//! the harnesses carry their own small, well-tested writer. Only the
//! shapes the harnesses need are supported: objects, arrays, strings,
//! numbers, and booleans.

use std::fmt::Write as _;

/// A JSON value under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string.
    Str(String),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// An integer (kept separate to avoid float formatting).
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Adds a field to an object (chainable).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on a non-object"),
        }
        self
    }

    /// Serializes to a compact JSON string.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Str(s) => write_escaped(s, out),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n as i64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}

/// Writes a record to the path given by `--json` (if any), appending a
/// newline (JSON-lines style, so sweeps can append multiple records).
pub(crate) fn write_json_line(path: &std::path::Path, record: &Json) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", record.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let j = Json::object()
            .field("name", "fig3")
            .field("avg_us", 24.33)
            .field("accesses", 63749u64)
            .field("ok", true)
            .field(
                "cdf",
                Json::Array(vec![
                    Json::Array(vec![Json::Num(0.1), Json::Num(0.25)]),
                    Json::Array(vec![Json::Num(31.6), Json::Num(0.99)]),
                ]),
            );
        assert_eq!(
            j.render(),
            r#"{"name":"fig3","avg_us":24.33,"accesses":63749,"ok":true,"cdf":[[0.1,0.25],[31.6,0.99]]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd\te\u{1}".to_string());
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn field_on_array_panics() {
        let _ = Json::Array(vec![]).field("x", 1u64);
    }

    #[test]
    fn json_lines_append() {
        let dir = std::env::temp_dir().join("fluidmem-json-test");
        let _ = std::fs::remove_file(&dir);
        let rec = Json::object().field("a", 1u64);
        write_json_line(&dir, &rec).unwrap();
        write_json_line(&dir, &rec).unwrap();
        let text = std::fs::read_to_string(&dir).unwrap();
        assert_eq!(text.lines().count(), 2);
        let _ = std::fs::remove_file(&dir);
    }
}
