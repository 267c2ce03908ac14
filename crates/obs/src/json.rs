//! A tiny hand-rolled JSON writer (the workspace builds fully offline, so no
//! serde): exactly the shapes the exporters need — objects, arrays, strings,
//! integers, finite floats — with deterministic key order. Shared by the
//! Chrome trace exporter and the flight recorder's JSONL rendering.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string (escaped on render).
    Str(String),
    /// An unsigned integer.
    Int(u64),
    /// A finite float, rendered with up to 6 significant decimals.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// An object; key order is preserved as inserted.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert (or replace) a field; panics on a non-object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Obj(fields) = &mut self else {
            panic!("Json::set on a non-object");
        };
        let value = value.into();
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            fields.push((key.to_string(), value));
        }
        self
    }

    /// Render with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Render on a single line with no whitespace — the JSONL shape the
    /// flight-recorder exports use (one event per line).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            scalar => scalar.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Str(s) => write_escaped(out, s),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                assert!(x.is_finite(), "json floats must be finite, got {x}");
                // Up to 6 significant decimals, trailing zeros trimmed, but
                // always a `.0` so the value round-trips as a float.
                let mut s = format!("{x:.6}");
                while s.ends_with('0') {
                    s.pop();
                }
                if s.ends_with('.') {
                    s.push('0');
                }
                out.push_str(&s);
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push(']');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
impl From<u64> for Json {
    fn from(i: u64) -> Json {
        Json::Int(i)
    }
}
impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i as u64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_with_stable_order() {
        let doc = Json::obj()
            .set("b", 2u64)
            .set("a", Json::obj().set("x", 0.5).set("ok", true));
        let text = doc.render();
        let b = text.find("\"b\"").unwrap();
        let a = text.find("\"a\"").unwrap();
        assert!(b < a, "insertion order must be preserved:\n{text}");
        assert!(text.contains("\"x\": 0.5"));
        assert!(text.contains("\"ok\": true"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings_and_trims_floats() {
        let doc = Json::obj()
            .set("quote\"tab\t", "line\nbreak")
            .set("third", 1.0 / 3.0)
            .set("whole", 2.0);
        let text = doc.render();
        assert!(text.contains("\"quote\\\"tab\\t\": \"line\\nbreak\""));
        assert!(text.contains("\"third\": 0.333333"));
        assert!(text.contains("\"whole\": 2.0"));
    }

    #[test]
    fn set_replaces_existing_keys() {
        let doc = Json::obj().set("k", 1u64).set("k", 2u64);
        assert_eq!(doc, Json::obj().set("k", 2u64));
    }

    #[test]
    fn compact_render_is_single_line() {
        let doc = Json::obj()
            .set("a", 1u64)
            .set(
                "b",
                Json::Arr(vec![Json::Bool(true), Json::Str("x\ny".into())]),
            )
            .set("c", Json::obj());
        assert_eq!(
            doc.render_compact(),
            "{\"a\":1,\"b\":[true,\"x\\ny\"],\"c\":{}}"
        );
    }

    #[test]
    fn arrays_render_with_indentation() {
        let doc = Json::obj().set(
            "items",
            Json::Arr(vec![Json::Int(1), Json::obj().set("k", "v")]),
        );
        let text = doc.render();
        assert!(text.contains("\"items\": [\n"));
        assert!(text.contains("    1,\n"));
        assert!(text.contains("\"k\": \"v\""));
        assert_eq!(Json::Arr(Vec::new()).render(), "[]\n");
    }
}
