//! The one tier-row writer against the serialiser it replaced. For any
//! window aggregates, `write_row` writes exactly the line the retired
//! point path wrote (build a `Point` of every stat field, then `to_line`),
//! and the values it records are exactly what parsing that line reads.
//! A rollup pass seals each stat's `stored_value` without writing a row:
//! those are the values `write_row` records, so a sealed tier holds what
//! an agent's written row does.

use lms_lineproto::escape::{unescape, TAG_ESCAPES};
use lms_lineproto::{parse_line, FieldValue, Point};
use lms_rollup::{stat_field, stat_value, stored_value, write_row, ROW_STATS};
use lms_tsm::Agg;
use proptest::prelude::*;

/// The retired path: every stat of every field as a point field, in
/// the row's order, serialised.
fn reference(
    measurement: &str,
    tags: &[(String, String)],
    ws: i64,
    aggs: &[(String, Agg)],
) -> Option<String> {
    let mut point = Point::new(measurement);
    for (k, v) in tags {
        point.add_tag(k.clone(), v.clone());
    }
    for (field, agg) in aggs {
        for stat in [
            "count", "sum", "sumsq", "min", "max", "first", "first_ts", "last", "last_ts",
        ] {
            if let Some(value) = stat_value(agg, stat) {
                point.add_field_value(stat_field(field, stat), value);
            }
        }
    }
    point.set_timestamp(ws);
    (!point.fields().is_empty()).then(|| point.to_line())
}

/// Names with every character an escape context knows, and plain ones.
fn name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("v".to_string()),
        proptest::string::string_regex("[a-z_é\"][a-z0-9_ ,=é\"]{0,8}").unwrap(),
    ]
    .prop_filter("no trailing space", |s| !s.ends_with(' '))
}

fn value() -> impl Strategy<Value = FieldValue> {
    prop_oneof![
        // Large enough that a window's sum of squares overflows, and zero
        // of either sign: equal as floats, written differently.
        prop_oneof![
            Just(1e200),
            Just(-1e200),
            -1e6f64..1e6,
            Just(0.1),
            Just(0.0),
            Just(-0.0)
        ]
        .prop_map(FieldValue::Float),
        any::<i64>().prop_map(FieldValue::Integer),
        any::<bool>().prop_map(FieldValue::Boolean),
        proptest::string::string_regex("[a-z \",=\\\\]{0,8}")
            .unwrap()
            .prop_map(FieldValue::Text),
    ]
}

/// One field's window: its points (possibly none), then, sometimes, a
/// non-finite numeric stat as an overflowing or undefined sum leaves it.
fn field() -> impl Strategy<Value = (String, Agg)> {
    (
        name(),
        proptest::collection::vec((0i64..60, value()), 0..5),
        0u8..4,
    )
        .prop_map(|(name, points, odd)| {
            let mut agg = Agg::default();
            for (ts, v) in &points {
                agg.add(*ts, v);
            }
            match odd {
                0 if agg.numeric => agg.sum = f64::NAN,
                1 if agg.numeric => agg.min = f64::NEG_INFINITY,
                _ => {}
            }
            (name, agg)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn write_row_writes_and_records_what_the_point_path_wrote_and_parsed(
        measurement in name(),
        tags in proptest::collection::btree_map(name(), name(), 0..3),
        fields in proptest::collection::vec(field(), 1..4)
            .prop_filter("unique field names", |f| {
                let mut names: Vec<&String> = f.iter().map(|(n, _)| n).collect();
                names.sort();
                names.windows(2).all(|w| w[0] != w[1])
            }),
        ws in any::<i64>(),
    ) {
        let tags: Vec<(String, String)> = tags.into_iter().collect();
        let mut point = Point::new(&measurement);
        for (k, v) in &tags {
            point.add_tag(k, v);
        }
        let key = point.series_key();
        let want = reference(&measurement, &tags, ws, &fields);

        let mut text = String::from("before\n");
        let mut recorded = Vec::new();
        let aggs = fields.iter().map(|(f, agg)| (f.as_str(), agg));
        let wrote = write_row(&key, ws, aggs, &mut text, |name, value| recorded.push((name, value)));
        let row = text.strip_prefix("before\n").unwrap();
        prop_assert_eq!(wrote, want.is_some());
        let Some(want) = want else {
            prop_assert_eq!(row, "");
            return Ok(());
        };
        prop_assert_eq!(row, format!("{want}\n"));

        let raw = row.trim_end_matches('\n');
        let parsed = parse_line(raw).unwrap();
        let recorded: Vec<(String, FieldValue)> = recorded
            .into_iter()
            .map(|(name, value)| (unescape(&row[name], TAG_ESCAPES), value))
            .collect();
        let read: Vec<(String, FieldValue)> =
            parsed.fields.iter().map(|(name, value)| (name.to_string(), value.clone())).collect();
        prop_assert_eq!(recorded, read, "row: {}", raw);
        prop_assert_eq!(parsed.timestamp, Some(ws));
        let mut buf = String::new();
        prop_assert_eq!(parsed.series_key(&mut buf), key.as_str());
    }

    #[test]
    fn the_pass_seals_what_write_row_records(
        fields in proptest::collection::vec(field(), 1..4),
        ws in any::<i64>(),
    ) {
        // What a rollup pass seals: each field's stats in row order, the
        // stored value under the stat field's name.
        let sealed: Vec<(String, FieldValue)> = fields
            .iter()
            .flat_map(|(field, agg)| {
                ROW_STATS.iter().filter_map(move |stat| {
                    Some((stat_field(field, stat), stored_value(agg, stat)?))
                })
            })
            .collect();
        let (mut text, mut recorded) = (String::new(), Vec::new());
        let aggs = fields.iter().map(|(f, agg)| (f.as_str(), agg));
        write_row("m", ws, aggs, &mut text, |name, value| recorded.push((name, value)));
        let parsed = if text.is_empty() { Vec::new() } else {
            let line = parse_line(text.trim_end_matches('\n')).unwrap();
            line.fields.iter().map(|(name, _)| name.to_string()).collect()
        };
        let recorded: Vec<(String, FieldValue)> =
            parsed.into_iter().zip(recorded).map(|(name, (_, value))| (name, value)).collect();
        prop_assert_eq!(sealed, recorded);
    }
}
