//! The aggregate algebra across its serialisations. A run cut into
//! sub-runs is summarised per sub-run three ways — `Agg::of_run` (a sealed
//! block's footer), a tier row written and read back, and a node's partial
//! answer sent over the wire and folded by the router — and merging the
//! sub-run summaries in order must give what adding the points one by one
//! gives.

use lms_cluster::partial_plan;
use lms_influx::exec::{finalize, Plan, SeriesData};
use lms_influx::query::{AggFunc, Statement};
use lms_influx::rollup::{agg_of_row, write_row};
use lms_influx::tsm::Agg;
use lms_influx::QueryResult;
use lms_lineproto::{parse_line, FieldValue};
use lms_util::Json;
use proptest::prelude::*;

/// A timestamp-ascending run with duplicate timestamps. Values are
/// integer-valued, so sums are exact in any order; a text-only run leaves
/// every numeric aggregate empty.
fn run_strategy() -> impl Strategy<Value = Vec<(i64, FieldValue)>> {
    let point = (0i64..3, 0u8..4, -50i64..50);
    (proptest::collection::vec(point, 1..40), any::<bool>()).prop_map(|(points, text_only)| {
        let mut ts = 0;
        points
            .into_iter()
            .map(|(step, kind, n)| {
                ts += step;
                let value = match if text_only { 3 } else { kind } {
                    0 => FieldValue::Float(n as f64),
                    1 => FieldValue::Integer(n),
                    2 => FieldValue::Boolean(n > 0),
                    _ => FieldValue::Text(format!("t{n}")),
                };
                (ts, value)
            })
            .collect()
    })
}

/// Cuts `run` at the given offsets into non-empty, in-order sub-runs.
fn cut<'a>(run: &'a [(i64, FieldValue)], cuts: &[usize]) -> Vec<&'a [(i64, FieldValue)]> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % run.len()).filter(|&c| c > 0).collect();
    at.sort_unstable();
    at.dedup();
    at.push(run.len());
    let mut start = 0;
    at.into_iter()
        .map(|end| {
            let sub = &run[start..end];
            start = end;
            sub
        })
        .collect()
}

/// The aggregate of one sub-run written as a tier row and read back.
fn through_tier_row(agg: &Agg, window_start: i64) -> Agg {
    let mut row = String::new();
    assert!(write_row("m", window_start, [("v", agg)], &mut row, |_, _| {}));
    let line = parse_line(row.trim_end()).expect("a tier row parses");
    assert_eq!(line.timestamp, Some(window_start));
    let stats = line.fields.iter().map(|(name, value)| {
        (name.strip_prefix("v__").expect("a stat field of `v`"), value.clone())
    });
    agg_of_row(window_start, stats)
}

const FUNCS: [AggFunc; 8] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Mean,
    AggFunc::First,
    AggFunc::Last,
    AggFunc::Stddev,
];

proptest! {
    #[test]
    fn sub_run_summaries_merge_to_the_point_by_point_fold(
        run in run_strategy(),
        cuts in proptest::collection::vec(0usize..64, 0..6),
    ) {
        let mut folded = Agg::default();
        for (ts, value) in &run {
            folded.add(*ts, value);
        }
        let subs = cut(&run, &cuts);

        let q = format!(
            "SELECT {} FROM m",
            FUNCS.map(|func| format!("{}(v)", func.column_name())).join(", ")
        );
        let Ok(Statement::Select(sel)) = Statement::parse(&q) else { panic!("{q}") };
        let node_plan = Plan::new(&sel, 0).expect("a valid select");
        let mut blocks = Agg::default();
        let mut rows = Agg::default();
        let mut held = Vec::new();
        for (i, sub) in subs.iter().enumerate() {
            let agg = Agg::of_run(sub).expect("sub-runs are not empty");
            blocks.merge(&agg);
            rows.merge(&through_tier_row(&agg, sub[0].0));
            // A series of its own per sub-run, named so that tag-set order
            // is run order.
            let tags = vec![("part".to_string(), format!("{i:02}"))];
            held.push((tags.into(), SeriesData::Aggs(vec![vec![(0, agg)]])));
        }
        prop_assert_eq!(&blocks, &folded);
        prop_assert_eq!(&rows, &folded);

        // What the node holding the sub-runs sends, over the wire.
        let sent = node_plan.partial_answer(held).to_json().to_string();
        let received = QueryResult::from_json(&Json::parse(&sent).unwrap()).unwrap();
        let merged = partial_plan(&q).expect("a select").merge(vec![received]);
        let want: Vec<Json> = FUNCS.iter().map(|&func| finalize(&folded, func)).collect();
        prop_assert_eq!(&merged.series[0].values[0][1..], &want[..]);
        prop_assert_eq!(&want[0], &Json::Int(run.len() as i64));
        if !folded.numeric {
            let numeric = |func: &AggFunc| {
                !matches!(func, AggFunc::Count | AggFunc::First | AggFunc::Last)
            };
            let mut numeric = FUNCS.iter().zip(&want).filter(|(func, _)| numeric(func));
            prop_assert!(numeric.all(|(_, w)| w.is_null()), "text has no numeric aggregate");
        }
    }
}
