//! Serialization: point → protocol text, plus the batching builder.
//!
//! The paper stresses *batched transmission* ("multiple lines can be
//! concatenated"). [`BatchBuilder`] is the reusable buffer every sender in
//! the stack (host agent, router, libusermetric) serializes into; it never
//! shrinks, so a steady-state sender performs no allocations per flush
//! (perf-book "workhorse collection" idiom).

use crate::escape::{escape_measurement_into, escape_string_field_into, escape_tag_into};
use crate::point::{FieldValue, Point};
use std::fmt::Write as _;

/// The quoted marker a non-finite float is written as: InfluxDB rejects
/// nan/inf, so a marker keeps the line parseable rather than corrupt.
fn non_finite_marker(f: f64) -> Option<&'static str> {
    (!f.is_finite()).then_some(if f.is_nan() { "NaN" } else { "Inf" })
}

/// The value parsing `v`'s wire text reads: `v` itself, except that a
/// non-finite float reads back as the text of its marker. A writer that
/// stores what it writes records this instead of parsing its own text.
pub fn read_back(v: FieldValue) -> FieldValue {
    match v {
        FieldValue::Float(f) => non_finite_marker(f).map_or(v, FieldValue::from),
        v => v,
    }
}

/// Writes one field value in wire form.
pub fn write_field_value(v: &FieldValue, out: &mut String) {
    match v {
        FieldValue::Float(f) => match non_finite_marker(*f) {
            // `{}` on f64 produces the shortest string that parses back to
            // the same bits, and cannot be mistaken for an `i`-suffixed int
            // because bare numbers without `i` are floats by protocol rule.
            None => {
                let _ = write!(out, "{f}");
            }
            Some(marker) => {
                out.push('"');
                out.push_str(marker);
                out.push('"');
            }
        },
        FieldValue::Integer(i) => {
            let _ = write!(out, "{i}i");
        }
        FieldValue::Boolean(b) => out.push_str(if *b { "true" } else { "false" }),
        FieldValue::Text(s) => {
            out.push('"');
            escape_string_field_into(s, out);
            out.push('"');
        }
    }
}

/// Writes `measurement,tags` (the series key) into `out`.
pub fn write_series_key(measurement: &str, tags: &[(String, String)], out: &mut String) {
    escape_measurement_into(measurement, out);
    for (k, v) in tags {
        out.push(',');
        escape_tag_into(k, out);
        out.push('=');
        escape_tag_into(v, out);
    }
}

/// Serializes one point into `out` (no trailing newline).
///
/// Invalid points (no fields / empty measurement) are written as-is on the
/// principle that serialization must be total; validity is the *caller's*
/// contract and checked by `Point::is_valid`.
pub fn write_point(p: &Point, out: &mut String) {
    write_series_key(p.measurement(), p.tags(), out);
    out.push(' ');
    let mut first = true;
    for (k, v) in p.fields() {
        if !first {
            out.push(',');
        }
        first = false;
        escape_tag_into(k, out);
        out.push('=');
        write_field_value(v, out);
    }
    if let Some(ts) = p.timestamp() {
        let _ = write!(out, " {ts}");
    }
}

/// Accumulates newline-separated protocol lines into one reusable buffer.
///
/// ```
/// use lms_lineproto::{BatchBuilder, Point};
/// let mut b = BatchBuilder::new();
/// let mut p = Point::new("m");
/// p.add_field("v", 1.0);
/// b.push(&p);
/// b.push(&p);
/// assert_eq!(b.len(), 2);
/// assert_eq!(b.as_str(), "m v=1\nm v=1\n");
/// let body = b.take();       // buffer handed off for transmission
/// assert!(b.is_empty());     // builder ready for reuse
/// assert_eq!(body.lines().count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct BatchBuilder {
    buf: String,
    lines: usize,
}

impl BatchBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with pre-reserved capacity in bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        BatchBuilder { buf: String::with_capacity(bytes), lines: 0 }
    }

    /// Appends one point as a line.
    pub fn push(&mut self, p: &Point) {
        write_point(p, &mut self.buf);
        self.buf.push('\n');
        self.lines += 1;
    }

    /// Appends a pre-serialized line (the router's fast path: re-emit a
    /// parsed-and-enriched line without building a `Point`).
    pub fn push_raw(&mut self, line: &str) {
        self.buf.push_str(line);
        if !line.ends_with('\n') {
            self.buf.push('\n');
        }
        self.lines += 1;
    }

    /// Number of lines currently buffered.
    pub fn len(&self) -> usize {
        self.lines
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }

    /// Buffered bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// The buffered text.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Takes the buffered text, leaving the builder empty but with its
    /// capacity intact for reuse.
    pub fn take(&mut self) -> String {
        self.lines = 0;
        std::mem::take(&mut self.buf)
    }

    /// Clears the buffer without deallocating.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.lines = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> Point {
        let mut p = Point::new("flops_dp");
        p.add_tag("hostname", "h1")
            .add_tag("cpu", "0")
            .add_field("value", 1.25e9)
            .add_field("count", 42i64)
            .add_field("ok", true)
            .set_timestamp(1_501_804_800_000_000_000);
        p
    }

    #[test]
    fn wire_form() {
        assert_eq!(
            point().to_line(),
            "flops_dp,cpu=0,hostname=h1 value=1250000000,count=42i,ok=true 1501804800000000000"
        );
    }

    #[test]
    fn no_timestamp_omits_trailing_section() {
        let mut p = Point::new("m");
        p.add_field("v", 0.5);
        assert_eq!(p.to_line(), "m v=0.5");
    }

    #[test]
    fn string_fields_are_quoted_and_escaped() {
        let mut p = Point::new("events");
        p.add_field("text", r#"start of "run" \1"#);
        assert_eq!(p.to_line(), r#"events text="start of \"run\" \\1""#);
    }

    #[test]
    fn non_finite_floats_become_quoted_markers() {
        let mut p = Point::new("m");
        p.add_field("v", f64::NAN);
        assert_eq!(p.to_line(), r#"m v="NaN""#);
        let mut p = Point::new("m");
        p.add_field("v", f64::INFINITY);
        assert_eq!(p.to_line(), r#"m v="Inf""#);
    }

    #[test]
    fn special_characters_escaped_in_all_positions() {
        let mut p = Point::new("my measure,x");
        p.add_tag("tag key", "tag=value, more").add_field("field key", 1.0);
        assert_eq!(
            p.to_line(),
            r"my\ measure\,x,tag\ key=tag\=value\,\ more field\ key=1"
        );
    }

    #[test]
    fn batch_builder_reuses_capacity() {
        let mut b = BatchBuilder::with_capacity(1024);
        let p = point();
        for _ in 0..5 {
            b.push(&p);
        }
        assert_eq!(b.len(), 5);
        let cap_before = b.buf.capacity();
        let body = b.take();
        assert_eq!(body.lines().count(), 5);
        assert!(b.is_empty());
        // take() moves the allocation out; pushing again reallocates once,
        // clear() instead retains it:
        b.push(&p);
        b.clear();
        assert!(b.is_empty());
        assert!(b.buf.capacity() > 0);
        let _ = cap_before;
    }

    #[test]
    fn push_raw_normalizes_newlines() {
        let mut b = BatchBuilder::new();
        b.push_raw("m v=1");
        b.push_raw("m v=2\n");
        assert_eq!(b.as_str(), "m v=1\nm v=2\n");
        assert_eq!(b.len(), 2);
    }
}
