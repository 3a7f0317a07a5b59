//! Zero-copy line protocol parsing.
//!
//! [`parse_line`] borrows the input: tag keys/values and field keys are
//! `&str` slices of the original line when they contain no escapes, and only
//! unescaped into owned strings on [`ParsedLine::to_point`]. The router's hot
//! path (parse → look up hostname → splice tags into the received bytes,
//! [`ParsedLine::fields_raw`]) therefore never materialises a line.
//!
//! [`parse_batch`] parses a newline-separated batch, *collecting* rather than
//! propagating per-line errors: one malformed line must not poison a batch
//! (failure-injection tests rely on this; the paper's router keeps serving
//! misbehaving collectors).
//!
//! The scanner walks raw bytes and only ever splits at single-byte ASCII
//! delimiters, which are always UTF-8 character boundaries — the input is
//! validated exactly once (when the HTTP body becomes a `&str`) and never
//! re-checked per token. Batch parsing additionally pre-sizes the output to
//! the newline count and seeds each line's tag/field vectors with the
//! previous line's shape: collector batches are long and homogeneous, so
//! steady state does one exact-size allocation per vector.

use crate::escape::{
    escape_measurement_into, escape_tag_into, unescape, MEASUREMENT_ESCAPES, STRING_ESCAPES,
    TAG_ESCAPES,
};
use crate::point::{FieldValue, Point};
use lms_util::{Error, Result};
use std::borrow::Cow;

/// A parsed line borrowing from the input text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedLine<'a> {
    /// Measurement name (unescaped; owned only if escapes were present).
    pub measurement: Cow<'a, str>,
    /// Tag key/value pairs in input order (unescaped lazily like above).
    pub tags: Vec<(Cow<'a, str>, Cow<'a, str>)>,
    /// Field key → typed value.
    pub fields: Vec<(Cow<'a, str>, FieldValue)>,
    /// Optional timestamp in the precision of the request (nanoseconds once
    /// scaled by the write endpoint).
    pub timestamp: Option<i64>,
    /// The exact input slice this line was parsed from (no trailing
    /// newline). Lets forwarders re-emit unmodified lines without
    /// re-serializing.
    pub raw: &'a str,
    /// Where the field section starts in `raw`.
    fields_at: usize,
}

impl<'a> ParsedLine<'a> {
    /// Tag lookup by key.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_ref())
    }

    /// Field lookup by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The `hostname` tag — the one tag the paper makes mandatory
    /// ("the only mandatory tag for all metrics and events is the host
    /// name which is used as key in the tag store's hash table").
    pub fn hostname(&self) -> Option<&str> {
        self.tag("hostname")
    }

    /// Converts into an owned [`Point`] (tags become sorted/canonical).
    pub fn to_point(&self) -> Point {
        let mut p = Point::new(self.measurement.as_ref());
        for (k, v) in &self.tags {
            p.add_tag(k.as_ref(), v.as_ref());
        }
        for (k, v) in &self.fields {
            p.add_field_value(k.as_ref(), v.clone());
        }
        if let Some(ts) = self.timestamp {
            p.set_timestamp(ts);
        }
        p
    }

    /// The field section and timestamp exactly as received: `raw` after
    /// the space that ends the tag section.
    pub fn fields_raw(&self) -> &'a str {
        &self.raw[self.fields_at..]
    }

    /// Tags in canonical form: sorted by key, duplicate keys collapsed with
    /// the last occurrence winning — exactly the tag set
    /// [`to_point`](Self::to_point) would produce.
    pub fn canonical_tags(&self) -> Vec<(String, String)> {
        let mut tags = Vec::with_capacity(self.tags.len());
        self.for_each_canonical_tag(|k, v| tags.push((k.to_string(), v.to_string())));
        tags
    }

    /// Appends the canonical series key (`measurement,tag1=v1,...` with
    /// tags sorted by key, duplicates last-wins, wire-escaped) to `out`.
    ///
    /// Produces byte-identical output to `self.to_point().series_key()`
    /// without materializing a [`Point`] — the database's ingest hot path
    /// reuses one buffer across a whole batch and never allocates for
    /// lines it has seen the series of before.
    pub fn series_key_into(&self, out: &mut String) {
        escape_measurement_into(self.measurement.as_ref(), out);
        self.for_each_canonical_tag(|k, v| {
            out.push(',');
            escape_tag_into(k, out);
            out.push('=');
            escape_tag_into(v, out);
        });
    }

    /// The canonical series key ([`series_key_into`](Self::series_key_into)),
    /// read in place when the line's key section already is it — nothing
    /// unescaped, tag keys strictly ascending, no `=` in a tag value (the
    /// key escapes it) — and otherwise built into `buf`.
    pub fn series_key<'s>(&'s self, buf: &'s mut String) -> &'s str {
        let verbatim = |c: &Cow<'_, str>| matches!(c, Cow::Borrowed(_));
        let in_place = verbatim(&self.measurement)
            && self.tags.iter().all(|(k, v)| verbatim(k) && verbatim(v) && !v.contains('='))
            && self.tags.windows(2).all(|pair| pair[0].0 < pair[1].0);
        if in_place {
            return &self.raw[..self.fields_at - 1];
        }
        buf.clear();
        self.series_key_into(buf);
        buf
    }

    /// Calls `f` with each tag of the [canonical form](Self::canonical_tags),
    /// in key order, unescaped. Allocates only for more than 16 tags.
    pub fn for_each_canonical_tag(&self, mut f: impl FnMut(&str, &str)) {
        let n = self.tags.len();
        if n == 0 {
            return;
        }
        // Sort a small index array instead of the tags themselves; stable
        // insertion keeps equal keys in input order so the *last* index of
        // a run is the winning duplicate.
        let mut stack = [0usize; 16];
        let mut heap;
        let order: &mut [usize] = if n <= stack.len() {
            &mut stack[..n]
        } else {
            heap = (0..n).collect::<Vec<usize>>();
            &mut heap
        };
        for (slot, idx) in order.iter_mut().enumerate() {
            *idx = slot;
        }
        order.sort_by(|&a, &b| self.tags[a].0.as_ref().cmp(self.tags[b].0.as_ref()));
        for (pos, &idx) in order.iter().enumerate() {
            let (k, v) = &self.tags[idx];
            // Skip all but the last occurrence of a duplicated key.
            if pos + 1 < n && self.tags[order[pos + 1]].0 == *k {
                continue;
            }
            f(k, v);
        }
    }
}

/// Scans from `start` until an unescaped occurrence of any `stop` byte.
/// Returns (end index, had_escapes).
fn scan(bytes: &[u8], start: usize, stop: &[u8]) -> (usize, bool) {
    let mut i = start;
    let mut escaped = false;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\\' && i + 1 < bytes.len() {
            escaped = true;
            i += 2;
            continue;
        }
        if stop.contains(&b) {
            break;
        }
        i += 1;
    }
    (i, escaped)
}

/// Slices `text[start..end]`, unescaping only when needed.
fn take<'a>(text: &'a str, start: usize, end: usize, escaped: bool, ctx: &[char]) -> Cow<'a, str> {
    let s = &text[start..end];
    if escaped {
        Cow::Owned(unescape(s, ctx))
    } else {
        Cow::Borrowed(s)
    }
}

/// Parses a single field value token.
fn parse_field_value(token: &str) -> Result<FieldValue> {
    if let Some(stripped) = token.strip_suffix('i') {
        return stripped
            .parse::<i64>()
            .map(FieldValue::Integer)
            .map_err(|_| Error::protocol(format!("invalid integer field `{token}`")));
    }
    match token {
        "true" | "t" | "True" | "TRUE" => return Ok(FieldValue::Boolean(true)),
        "false" | "f" | "False" | "FALSE" => return Ok(FieldValue::Boolean(false)),
        _ => {}
    }
    // `nan`, `inf`, `infinity` (any case, any sign) and literals past the
    // f64 range parse as non-finite floats, which InfluxDB rejects.
    match token.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(FieldValue::Float(v)),
        _ => Err(Error::protocol(format!("invalid field value `{token}`"))),
    }
}

/// Parses one line of protocol text.
///
/// Returns a protocol error naming the offending position for malformed
/// input. Empty lines and `#` comments are the *caller's* concern
/// ([`parse_batch`] skips them).
pub fn parse_line(line: &str) -> Result<ParsedLine<'_>> {
    parse_line_hinted(line, 0, 0)
}

/// [`parse_line`] with capacity hints for the tag and field vectors —
/// [`parse_batch`] feeds each line the previous line's shape so homogeneous
/// batches allocate exactly once per vector.
fn parse_line_hinted(line: &str, tag_hint: usize, field_hint: usize) -> Result<ParsedLine<'_>> {
    let bytes = line.as_bytes();
    if bytes.is_empty() {
        return Err(Error::protocol("empty line"));
    }

    // --- measurement ---
    let (m_end, m_esc) = scan(bytes, 0, b", ");
    if m_end == 0 {
        return Err(Error::protocol("missing measurement"));
    }
    let measurement = take(line, 0, m_end, m_esc, MEASUREMENT_ESCAPES);

    // --- tags ---
    let mut tags = Vec::with_capacity(tag_hint);
    let mut pos = m_end;
    while pos < bytes.len() && bytes[pos] == b',' {
        pos += 1;
        let (k_end, k_esc) = scan(bytes, pos, b"=, ");
        if k_end >= bytes.len() || bytes[k_end] != b'=' {
            return Err(Error::protocol(format!("tag at byte {pos}: missing `=`")));
        }
        if k_end == pos {
            return Err(Error::protocol(format!("tag at byte {pos}: empty key")));
        }
        let key = take(line, pos, k_end, k_esc, TAG_ESCAPES);
        pos = k_end + 1;
        let (v_end, v_esc) = scan(bytes, pos, b", ");
        if v_end == pos {
            return Err(Error::protocol(format!("tag `{key}`: empty value")));
        }
        let value = take(line, pos, v_end, v_esc, TAG_ESCAPES);
        tags.push((key, value));
        pos = v_end;
    }

    if pos >= bytes.len() || bytes[pos] != b' ' {
        return Err(Error::protocol("missing field section"));
    }
    pos += 1;
    let fields_at = pos;

    // --- fields ---
    let mut fields = Vec::with_capacity(field_hint);
    loop {
        let (k_end, k_esc) = scan(bytes, pos, b"=, ");
        if k_end >= bytes.len() || bytes[k_end] != b'=' {
            return Err(Error::protocol(format!("field at byte {pos}: missing `=`")));
        }
        if k_end == pos {
            return Err(Error::protocol(format!("field at byte {pos}: empty key")));
        }
        let key = take(line, pos, k_end, k_esc, TAG_ESCAPES);
        pos = k_end + 1;

        let value = if pos < bytes.len() && bytes[pos] == b'"' {
            // Quoted string value.
            let (s_end, s_esc) = scan(bytes, pos + 1, b"\"");
            if s_end >= bytes.len() {
                return Err(Error::protocol(format!("field `{key}`: unterminated string")));
            }
            let raw = &line[pos + 1..s_end];
            let text =
                if s_esc { unescape(raw, STRING_ESCAPES) } else { raw.to_string() };
            pos = s_end + 1;
            FieldValue::Text(text)
        } else {
            let (v_end, _) = scan(bytes, pos, b", ");
            if v_end == pos {
                return Err(Error::protocol(format!("field `{key}`: empty value")));
            }
            let v = parse_field_value(&line[pos..v_end])?;
            pos = v_end;
            v
        };
        fields.push((key, value));

        if pos < bytes.len() && bytes[pos] == b',' {
            pos += 1;
            continue;
        }
        break;
    }

    // --- timestamp ---
    let timestamp = if pos < bytes.len() {
        if bytes[pos] != b' ' {
            return Err(Error::protocol(format!("unexpected character at byte {pos}")));
        }
        let ts_str = line[pos + 1..].trim_end_matches(['\r', '\n']);
        if ts_str.is_empty() {
            None
        } else {
            Some(
                ts_str
                    .parse::<i64>()
                    .map_err(|_| Error::protocol(format!("invalid timestamp `{ts_str}`")))?,
            )
        }
    } else {
        None
    };

    Ok(ParsedLine { measurement, tags, fields, timestamp, raw: line, fields_at })
}

/// Result of parsing a batch: the good lines and the per-line errors.
#[derive(Debug, Default)]
pub struct ParseOutcome<'a> {
    /// Successfully parsed lines, in input order.
    pub lines: Vec<ParsedLine<'a>>,
    /// `(1-based line number, error)` for each rejected line.
    pub errors: Vec<(usize, Error)>,
}

impl ParseOutcome<'_> {
    /// True when every non-empty line parsed.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Parses a newline-separated batch. Empty lines and `#` comments are
/// skipped; malformed lines are collected into [`ParseOutcome::errors`]
/// without aborting the batch.
pub fn parse_batch(text: &str) -> ParseOutcome<'_> {
    let mut out = ParseOutcome::default();
    // One allocation up front instead of log₂(n) grow-and-copy cycles on
    // a large batch; trailing blanks/comments leave a little slack only.
    out.lines.reserve(text.bytes().filter(|&b| b == b'\n').count() + 1);
    let (mut tag_hint, mut field_hint) = (0, 0);
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim_end_matches('\r');
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_line_hinted(line, tag_hint, field_hint) {
            Ok(p) => {
                tag_hint = p.tags.len();
                field_hint = p.fields.len();
                out.lines.push(p);
            }
            Err(e) => out.errors.push((idx + 1, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_line() {
        let p = parse_line(
            "cpu,hostname=h1,cpu=3 usage=0.93,n=5i,up=true,note=\"ok\" 1501804800000000000",
        )
        .unwrap();
        assert_eq!(p.measurement, "cpu");
        assert_eq!(p.tag("hostname"), Some("h1"));
        assert_eq!(p.hostname(), Some("h1"));
        assert_eq!(p.tag("cpu"), Some("3"));
        assert_eq!(p.field("usage"), Some(&FieldValue::Float(0.93)));
        assert_eq!(p.field("n"), Some(&FieldValue::Integer(5)));
        assert_eq!(p.field("up"), Some(&FieldValue::Boolean(true)));
        assert_eq!(p.field("note"), Some(&FieldValue::Text("ok".into())));
        assert_eq!(p.timestamp, Some(1_501_804_800_000_000_000));
    }

    #[test]
    fn minimal_line() {
        let p = parse_line("m v=1").unwrap();
        assert_eq!(p.measurement, "m");
        assert!(p.tags.is_empty());
        assert_eq!(p.field("v"), Some(&FieldValue::Float(1.0)));
        assert_eq!(p.timestamp, None);
    }

    #[test]
    fn zero_copy_when_no_escapes() {
        let p = parse_line("m,a=b v=1").unwrap();
        assert!(matches!(p.measurement, Cow::Borrowed(_)));
        assert!(matches!(p.tags[0].0, Cow::Borrowed(_)));
        assert!(matches!(p.fields[0].0, Cow::Borrowed(_)));
    }

    #[test]
    fn unescapes_when_needed() {
        let p = parse_line(r"my\ m,tag\ k=va\=lue f\,k=2").unwrap();
        assert_eq!(p.measurement, "my m");
        assert_eq!(p.tags[0], (Cow::from("tag k"), Cow::from("va=lue")));
        assert_eq!(p.fields[0].0, "f,k");
        assert!(matches!(p.measurement, Cow::Owned(_)));
    }

    #[test]
    fn quoted_strings_with_escapes_and_separators() {
        let p = parse_line(r#"ev text="a \"quote\", с комма and = signs""#).unwrap();
        assert_eq!(
            p.field("text"),
            Some(&FieldValue::Text(r#"a "quote", с комма and = signs"#.into()))
        );
    }

    #[test]
    fn negative_and_scientific_numbers() {
        let p = parse_line("m a=-1.5,b=2.5e9,c=-42i").unwrap();
        assert_eq!(p.field("a"), Some(&FieldValue::Float(-1.5)));
        assert_eq!(p.field("b"), Some(&FieldValue::Float(2.5e9)));
        assert_eq!(p.field("c"), Some(&FieldValue::Integer(-42)));
    }

    #[test]
    fn negative_timestamp() {
        let p = parse_line("m v=1 -42").unwrap();
        assert_eq!(p.timestamp, Some(-42));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            " v=1",
            "m",
            "m ",
            "m v",
            "m v=",
            "m =1",
            "m,tag v=1",
            "m,=x v=1",
            "m,k= v=1",
            "m v=abc",
            "m v=1.5ii",
            "m v=\"unterminated",
            "m v=1 notatime",
            "m v=1 1.5",
        ] {
            assert!(parse_line(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn non_finite_floats_rejected() {
        for token in [
            "nan", "NaN", "NAN", "-nan", "inf", "Inf", "INF", "+inf", "-inf", "infinity",
            "Infinity", "-Infinity", "INFINITY", "1e999", "-1e999",
        ] {
            let line = format!("m v={token}");
            assert!(parse_line(&line).is_err(), "should reject: {line:?}");
        }
        // The quoted markers a non-finite value is written as stay text.
        let p = parse_line(r#"m v="NaN",w="Inf""#).unwrap();
        assert_eq!(p.field("v"), Some(&FieldValue::Text("NaN".into())));
        assert_eq!(p.field("w"), Some(&FieldValue::Text("Inf".into())));
        let out = parse_batch("m v=1\nm v=nan\nm v=-Infinity 5\nm v=2");
        assert_eq!((out.lines.len(), out.errors.len()), (2, 2));
    }

    #[test]
    fn integer_overflow_rejected() {
        assert!(parse_line("m v=99999999999999999999i").is_err());
        assert!(parse_line("m v=1 99999999999999999999").is_err());
    }

    #[test]
    fn batch_skips_blank_and_comment_lines() {
        let text = "# header comment\n\nm v=1\n\r\nm v=2\r\n";
        let out = parse_batch(text);
        assert!(out.is_clean());
        assert_eq!(out.lines.len(), 2);
    }

    #[test]
    fn batch_collects_errors_without_poisoning() {
        let text = "m v=1\nbroken line without fields\nm v=3";
        let out = parse_batch(text);
        assert_eq!(out.lines.len(), 2);
        assert_eq!(out.errors.len(), 1);
        assert_eq!(out.errors[0].0, 2);
    }

    #[test]
    fn batch_fast_path_matches_per_line_parsing() {
        // A homogeneous batch (the hinted fast path) mixed with shape
        // changes and a bad line: batch output must equal line-by-line
        // parsing exactly.
        let mut text = String::new();
        for i in 0..64 {
            text.push_str(&format!("cpu,hostname=h{i},cpu=0 usage={i}.5,n={i}i {i}000\n"));
        }
        text.push_str("m v=1\nbroken\nevents,hostname=h1 text=\"hi\" 5\n");
        let out = parse_batch(&text);
        assert_eq!(out.errors.len(), 1);
        let per_line: Vec<ParsedLine<'_>> = text
            .lines()
            .filter(|l| !l.is_empty() && parse_line(l).is_ok())
            .map(|l| parse_line(l).unwrap())
            .collect();
        assert_eq!(out.lines, per_line);
    }

    #[test]
    fn to_point_round_trips() {
        let line = "cpu,hostname=h1 v=1.5 99";
        let p = parse_line(line).unwrap().to_point();
        assert_eq!(p.to_line(), line);
    }

    #[test]
    fn duplicate_tags_last_wins_via_point() {
        let p = parse_line("m,a=1,a=2 v=1").unwrap();
        assert_eq!(p.tags.len(), 2); // wire form preserved
        assert_eq!(p.to_point().tag("a"), Some("2")); // canonical form deduped
    }

    #[test]
    fn fields_raw_is_the_received_field_section() {
        for (line, fields) in [
            ("m v=1", "v=1"),
            ("m v=1 ", "v=1 "),
            ("cpu,b=2,a=1 v=1.50,n=3i 77", "v=1.50,n=3i 77"),
            (r#"my\ m,k\ x=a\ b s="x y, z=1",f\ k=t"#, r#"s="x y, z=1",f\ k=t"#),
        ] {
            assert_eq!(parse_line(line).unwrap().fields_raw(), fields, "{line}");
        }
    }

    #[test]
    fn raw_preserves_input_slice() {
        let line = "cpu,hostname=h1 v=1 5";
        assert_eq!(parse_line(line).unwrap().raw, line);
        let out = parse_batch("m v=1\ncpu,a=b v=2 7\r\n");
        assert_eq!(out.lines[0].raw, "m v=1");
        assert_eq!(out.lines[1].raw, "cpu,a=b v=2 7");
    }

    #[test]
    fn series_key_into_matches_point_series_key() {
        // Many tags triggers the heap-index fallback (> 16).
        let mut many = String::from("m");
        for i in 0..20 {
            // Reversed zero-padded keys exercise the sort.
            many.push_str(&format!(",k{:02}=v{i}", 19 - i));
        }
        many.push_str(" v=1");
        for line in [
            "m v=1",
            "cpu,hostname=h1,cpu=3 usage=0.93",
            "m,b=2,a=1 v=1",
            "m,a=1,a=2 v=1",
            "m,a=2,b=x,a=1,a=3 v=1",
            r"my\ m,tag\ k=va\=lue f=1",
            many.as_str(),
        ] {
            let p = parse_line(line).unwrap();
            let mut key = String::new();
            p.series_key_into(&mut key);
            let point = p.to_point();
            assert_eq!(key, point.series_key(), "series key mismatch for: {line}");
            assert_eq!(p.canonical_tags(), point.tags().to_vec(), "tags mismatch for: {line}");
        }
    }
}
