//! # lms-lineproto
//!
//! The InfluxDB **line protocol** — the single wire format of the LIKWID
//! Monitoring Stack. The paper (Sec. III-A) chooses it because it separates
//! metric values from metric tags, concatenates into batches, and stays
//! human-readable for debugging. Every LMS component speaks it: host agents
//! emit it, the router parses, enriches and forwards it, the database ingests
//! it, and `libusermetric` buffers it.
//!
//! A line looks like:
//!
//! ```text
//! measurement,tag1=a,tag2=b field1=1.5,field2=3i,field3="ev",field4=true 1501804800000000000
//! ```
//!
//! Layout of this crate:
//!
//! - [`escape`] — the protocol's three escaping contexts,
//! - [`point`] — the owned [`Point`] type and [`FieldValue`],
//! - [`parse`] — a zero-copy parser ([`ParsedLine`] borrows the input),
//! - [`serialize`] — serializer and batching [`BatchBuilder`],
//! - [`precision`] — the `ns`/`us`/`ms`/`s` timestamp precisions of the
//!   InfluxDB write API.
//!
//! # Example
//!
//! ```
//! use lms_lineproto::{Point, FieldValue, parse_line};
//!
//! let mut p = Point::new("cpu_load");
//! p.add_tag("hostname", "h1").add_field("value", 0.75);
//! p.set_timestamp(1_501_804_800_000_000_000);
//! let line = p.to_line();
//! assert_eq!(line, "cpu_load,hostname=h1 value=0.75 1501804800000000000");
//!
//! let parsed = parse_line(&line).unwrap();
//! assert_eq!(parsed.measurement, "cpu_load");
//! assert_eq!(parsed.field("value"), Some(&FieldValue::Float(0.75)));
//! ```

pub mod escape;
pub mod parse;
pub mod point;
pub mod precision;
pub mod serialize;

pub use parse::{parse_batch, parse_line, ParseOutcome, ParsedLine};
pub use point::{FieldValue, Point};
pub use precision::Precision;
pub use serialize::BatchBuilder;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy for protocol-legal identifier-ish strings (may contain the
    /// characters that need escaping, but no newlines and not starting with
    /// characters the protocol forbids).
    fn name_strategy() -> impl Strategy<Value = String> {
        proptest::string::string_regex("[a-zA-Z0-9_ ,=\\.\\-/]{1,24}")
            .unwrap()
            .prop_filter("no leading '#' and no boundary spaces", |s| {
                !s.starts_with('#') && !s.starts_with(' ') && !s.ends_with(' ')
            })
    }

    fn tag_value_strategy() -> impl Strategy<Value = String> {
        proptest::string::string_regex("[a-zA-Z0-9_ ,=\\.\\-:/]{1,24}")
            .unwrap()
            .prop_filter("no boundary spaces", |s| {
                !s.starts_with(' ') && !s.ends_with(' ')
            })
    }

    /// Pieces of a raw tag value: plain text first, then an unescaped `=`
    /// (accepted, escaped in the key) and escape sequences.
    const VALUE_TOKENS: [&str; 7] = ["a", "b7", "é", "=", r"\ ", r"\,", r"\="];

    fn field_value_strategy() -> impl Strategy<Value = FieldValue> {
        prop_oneof![
            proptest::num::f64::NORMAL.prop_map(FieldValue::Float),
            any::<i64>().prop_map(FieldValue::Integer),
            any::<bool>().prop_map(FieldValue::Boolean),
            proptest::string::string_regex("[a-zA-Z0-9_ ,=\"\\\\.\\-]{0,32}")
                .unwrap()
                .prop_map(FieldValue::Text),
        ]
    }

    proptest! {
        /// serialize ∘ parse == identity over points.
        #[test]
        fn round_trip(
            measurement in name_strategy(),
            tags in proptest::collection::btree_map(name_strategy(), tag_value_strategy(), 0..4),
            fields in proptest::collection::btree_map(name_strategy(), field_value_strategy(), 1..4),
            ts in proptest::option::of(any::<i64>()),
        ) {
            let mut p = Point::new(&measurement);
            for (k, v) in &tags {
                p.add_tag(k, v);
            }
            for (k, v) in &fields {
                p.add_field_value(k, v.clone());
            }
            if let Some(t) = ts {
                p.set_timestamp(t);
            }
            let line = p.to_line();
            let parsed = parse_line(&line).unwrap();
            let back = parsed.to_point();
            prop_assert_eq!(p, back, "line was: {}", line);
        }

        /// The key read in place is the key `series_key_into` builds, on
        /// lines with escapes, unescaped `=` in tag values, repeated and
        /// unordered keys, and more than 16 tags; sorted lines without
        /// any of those are read in place.
        #[test]
        fn series_key_equals_the_built_key(
            measurement in 0usize..3,
            tags in proptest::collection::vec(
                (0usize..24, proptest::collection::vec(0usize..VALUE_TOKENS.len(), 1..4)),
                0..22,
            ),
            sort in any::<bool>(),
        ) {
            let mut tags = tags;
            if sort {
                tags.sort_by_key(|t| t.0);
                tags.dedup_by_key(|t| t.0);
            }
            let mut line = String::from(["cpu", r"my\ m", "m=x"][measurement]);
            for (key, value) in &tags {
                let key = if key % 7 == 6 { format!(r"k\ {key:02}") } else { format!("k{key:02}") };
                let value: String = value.iter().map(|&t| VALUE_TOKENS[t]).collect();
                line.push_str(&format!(",{key}={value}"));
            }
            line.push_str(" v=1 5");
            let parsed = parse_line(&line).unwrap();
            let (mut buf, mut built) = (String::new(), String::new());
            parsed.series_key_into(&mut built);
            let key = parsed.series_key(&mut buf);
            prop_assert_eq!(key, built.as_str(), "line was: {}", line);
            // `=` needs no escape in a measurement.
            let plain = measurement != 1
                && tags.windows(2).all(|pair| pair[0].0 < pair[1].0)
                && tags.iter().all(|(k, v)| k % 7 != 6 && v.iter().all(|&t| t < 3));
            prop_assert_eq!(buf.is_empty(), plain, "read in place: {}", line);
        }

        /// Batches of points survive serialize+parse with order preserved.
        #[test]
        fn batch_round_trip(count in 1usize..20) {
            let mut batch = BatchBuilder::new();
            let mut points = Vec::new();
            for i in 0..count {
                let mut p = Point::new(format!("m{i}"));
                p.add_tag("hostname", format!("h{i}"));
                p.add_field("value", i as f64 * 1.5);
                p.set_timestamp(i as i64);
                batch.push(&p);
                points.push(p);
            }
            let text = batch.as_str().to_string();
            let outcome = parse_batch(&text);
            prop_assert_eq!(outcome.errors.len(), 0);
            prop_assert_eq!(outcome.lines.len(), count);
            for (orig, got) in points.iter().zip(&outcome.lines) {
                prop_assert_eq!(orig, &got.to_point());
            }
        }
    }
}
