//! Deterministic JSON rendering for the `BENCH_*.json` snapshots.
//!
//! The vendored serde shim has no serializer, and the bench binaries used to
//! hand-roll their JSON with `format!` — twice, divergently. This module is
//! the one shared writer: a tiny value tree with **explicit float precision**
//! (every float carries its decimal count, so output is deterministic and
//! diff-able across runs) rendered pretty with one field per line.
//!
//! One field per line is a CI contract, not just taste: the workflow re-runs
//! a bench and diffs the two files with volatile lines (`_ms`, `speedup`,
//! `windows_per_sec`, ...) filtered out by `grep`, which only works if every
//! field owns its line.

use std::fmt::Write as _;

/// A JSON value with deterministic rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A boolean.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A float rendered with a fixed number of decimals (`{:.d$}`).
    Float {
        /// The value.
        value: f64,
        /// Decimal places.
        decimals: usize,
    },
    /// A float rendered in scientific notation (`{:.d$e}`).
    Scientific {
        /// The value.
        value: f64,
        /// Decimal places of the mantissa.
        decimals: usize,
    },
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered fields.
    Object(JsonObject),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl From<JsonObject> for JsonValue {
    fn from(v: JsonObject) -> Self {
        JsonValue::Object(v)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

impl JsonValue {
    /// A fixed-precision float field.
    pub fn f(value: f64, decimals: usize) -> Self {
        JsonValue::Float { value, decimals }
    }

    /// A scientific-notation float field.
    pub fn sci(value: f64, decimals: usize) -> Self {
        JsonValue::Scientific { value, decimals }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Float { value, decimals } => {
                let _ = write!(out, "{value:.decimals$}");
            }
            JsonValue::Scientific { value, decimals } => {
                let _ = write!(out, "{value:.decimals$e}");
            }
            JsonValue::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.render_into(out, indent + 1);
                    out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
                }
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(obj) => obj.render_into(out, indent),
        }
    }
}

/// An insertion-ordered JSON object built field by field.
///
/// # Example
/// ```
/// use burstcap_bench::json::{JsonObject, JsonValue};
///
/// let obj = JsonObject::new()
///     .field("bench", "demo")
///     .field("runs", 3_u64)
///     .field("speedup", JsonValue::f(1.5, 2));
/// let text = obj.render();
/// assert!(text.contains("\"speedup\": 1.50"));
/// // One field per line: the CI diff can grep volatile lines away.
/// assert_eq!(text.lines().count(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JsonObject {
    fields: Vec<(&'static str, JsonValue)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Append a field (insertion order is rendering order).
    pub fn field(mut self, key: &'static str, value: impl Into<JsonValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Render the object pretty-printed (2-space indent, one field per
    /// line), with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        if self.fields.is_empty() {
            out.push_str("{}");
            return;
        }
        out.push_str("{\n");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            push_indent(out, indent + 1);
            let _ = write!(out, "\"{}\": ", escape(key));
            value.render_into(out, indent + 1);
            out.push_str(if i + 1 == self.fields.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        push_indent(out, indent);
        out.push('}');
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Write a rendered snapshot to `path` — the shared tail of every bench
/// binary. Announcing the path on stdout is the caller's job (library code
/// keeps off stdout — the crate root denies `clippy::print_stdout`).
///
/// # Panics
/// Panics if the file cannot be written (bench binaries treat an unwritable
/// snapshot as fatal).
pub fn write_report(path: &str, report: &JsonObject) {
    std::fs::write(path, report.render()).expect("write benchmark snapshot");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures_one_field_per_line() {
        let obj = JsonObject::new()
            .field("name", "bench")
            .field("ok", true)
            .field("count", 3_usize)
            .field("ratio", JsonValue::f(0.123456, 3))
            .field("gap", JsonValue::sci(1.5e-9, 2))
            .field(
                "rows",
                vec![
                    JsonValue::Object(JsonObject::new().field("x", 1_u64)),
                    JsonValue::Object(JsonObject::new().field("x", 2_u64)),
                ],
            )
            .field("empty", Vec::<JsonValue>::new())
            .field("inner", JsonObject::new());
        let text = obj.render();
        assert!(text.contains("\"ratio\": 0.123"));
        assert!(text.contains("\"gap\": 1.50e-9"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.contains("\"inner\": {}"));
        // Every scalar field sits on its own line.
        assert!(text.lines().any(|l| l.trim() == "\"ok\": true,"));
        assert!(text.lines().any(|l| l.trim() == "\"x\": 1"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            JsonObject::new()
                .field("a", JsonValue::f(1.0 / 3.0, 9))
                .field("b", 42_u64)
                .render()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn strings_are_escaped() {
        let obj = JsonObject::new().field("s", "a\"b\\c\nd");
        assert!(obj.render().contains("a\\\"b\\\\c\\nd"));
    }
}
