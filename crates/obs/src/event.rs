//! The event model: what one recorded observation looks like.
//!
//! An [`Event`] is a named point on the recorder's **logical clock** — a
//! sequence number assigned at emission, not a wall-clock timestamp. The
//! workspace-wide wall-clock ban (`clippy.toml`) applies here exactly as it
//! does to solver code: nothing in a recorded event may read `Instant::now`. When
//! an experiment wants wall-clock context it attaches it *outside* the
//! deterministic trace, through the sanctioned `burstcap_bench::timing`
//! seam, as a [volatile](Event::volatile) field — volatile events are kept
//! out of the deterministic export, the same convention the `BENCH_*.json`
//! CI diffs use for `_ms` lines.

use std::fmt::Write as _;

/// A typed field value attached to an event.
///
/// The variants cover everything the solvers and the planner report;
/// rendering is deterministic (integers verbatim, floats through Rust's
/// shortest-roundtrip formatter, which is a pure function of the bits).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (counts, indices, state-space sizes).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (residuals, statistics). Rendered via `{:?}` — shortest
    /// round-trip form, bit-determined.
    F64(f64),
    /// A static label (engine names, event qualifiers).
    Str(&'static str),
    /// A boolean flag.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl FieldValue {
    /// Render the value as a JSON scalar (deterministic).
    pub(crate) fn render_into(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            // `{:?}` is the shortest decimal that round-trips the exact
            // bits — deterministic, and it keeps 1e-12-scale residuals
            // readable. Non-finite values have no JSON spelling; quote
            // them so the export stays parseable.
            FieldValue::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            FieldValue::F64(v) => {
                let _ = write!(out, "\"{v:?}\"");
            }
            FieldValue::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            FieldValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
}

/// What kind of observation an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened: a named region of work begins. Carries the new span's
    /// `id` field; [`Event::span`] is the *parent* span.
    SpanStart,
    /// The matching span closed (emitted by the guard's `Drop`).
    SpanEnd,
    /// A point observation inside whatever span is open.
    Point,
}

impl EventKind {
    /// The stable label used in the JSON export.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Point => "point",
        }
    }
}

/// One recorded observation, ordered by logical clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Position on the recorder's logical clock. Volatile events do not
    /// advance the clock; they carry the clock value at emission, so the
    /// deterministic event stream's numbering is independent of how many
    /// volatile events interleave it.
    pub seq: u64,
    /// The enclosing span's id at emission (0 = no open span). For
    /// [`EventKind::SpanStart`] this is the **parent** span.
    pub span: u64,
    /// What kind of observation this is.
    pub kind: EventKind,
    /// Stable event name, dot-namespaced by subsystem
    /// (`"matfree.sweep"`, `"online.alarm"`, ...).
    pub name: &'static str,
    /// Typed payload, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Volatile events (worker counts, wall-clock attachments)
    /// are excluded from the deterministic export: their content may
    /// legitimately differ across worker counts or machines.
    pub volatile: bool,
}

impl Event {
    /// Render the event as a one-field-per-line JSON object at `indent`
    /// 2-space levels.
    pub(crate) fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        out.push_str("{\n");
        let _ = writeln!(out, "{pad}\"seq\": {},", self.seq);
        let _ = writeln!(out, "{pad}\"span\": {},", self.span);
        let _ = writeln!(out, "{pad}\"kind\": \"{}\",", self.kind.label());
        let _ = write!(out, "{pad}\"name\": \"{}\"", escape(self.name));
        for (key, value) in &self.fields {
            let _ = write!(out, ",\n{pad}\"{}\": ", escape(key));
            value.render_into(out);
        }
        if self.volatile {
            let _ = write!(out, ",\n{pad}\"volatile\": true");
        }
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
        out.push('}');
    }
}

/// Escape a string for a JSON literal.
pub(crate) fn escape(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_values_render_deterministically() {
        let cases: Vec<(FieldValue, &str)> = vec![
            (FieldValue::U64(42), "42"),
            (FieldValue::I64(-3), "-3"),
            (FieldValue::F64(0.1), "0.1"),
            (FieldValue::F64(1e-12), "1e-12"),
            (FieldValue::F64(f64::NAN), "\"NaN\""),
            (FieldValue::Str("jacobi"), "\"jacobi\""),
            (FieldValue::Bool(true), "true"),
        ];
        for (value, expected) in cases {
            let mut out = String::new();
            value.render_into(&mut out);
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn event_renders_one_field_per_line() {
        let e = Event {
            seq: 7,
            span: 1,
            kind: EventKind::Point,
            name: "matfree.sweep",
            fields: vec![("iter", 3_u64.into()), ("residual", 0.5.into())],
            volatile: false,
        };
        let mut out = String::new();
        e.render_into(&mut out, 0);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "{");
        assert!(lines.iter().any(|l| l.trim() == "\"seq\": 7,"));
        assert!(lines.iter().any(|l| l.trim() == "\"residual\": 0.5"));
        // One field per line: 4 header fields + 2 payload + 2 braces.
        assert_eq!(lines.len(), 8);
    }

    #[test]
    fn volatile_flag_is_rendered_only_when_set() {
        let mut e = Event {
            seq: 0,
            span: 0,
            kind: EventKind::Point,
            name: "x",
            fields: vec![],
            volatile: false,
        };
        let mut out = String::new();
        e.render_into(&mut out, 0);
        assert!(!out.contains("volatile"));
        e.volatile = true;
        out.clear();
        e.render_into(&mut out, 0);
        assert!(out.contains("\"volatile\": true"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        FieldValue::Str("a\"b\\c").render_into(&mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\"");
    }
}
