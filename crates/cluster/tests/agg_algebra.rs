//! The aggregate algebra across its serialisations. A run cut into
//! sub-runs is summarised per sub-run three ways — `Agg::of_run` (a sealed
//! block's footer), a tier row written and read back, and a node's partial
//! row recombined by the router — and merging the sub-run summaries in
//! order must give what adding the points one by one gives.

use lms_cluster::partial_plan;
use lms_influx::exec::finalize;
use lms_influx::query::AggFunc;
use lms_influx::rollup::{agg_of_row, append_fields};
use lms_influx::tsm::Agg;
use lms_influx::{QueryResult, ResultSeries};
use lms_lineproto::FieldValue;
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
    let mut fields = Vec::new();
    append_fields("v", agg, &mut fields);
    let stats = fields.iter().map(|(name, value)| {
        (name.strip_prefix("v__").expect("a stat field of `v`"), value.clone())
    });
    agg_of_row(window_start, stats)
}

const PARTIAL_FUNCS: [AggFunc; 4] = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max];
const ANSWERED: [AggFunc; 5] =
    [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Mean];

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

        let mut blocks = Agg::default();
        let mut rows = Agg::default();
        let mut nodes = QueryResult::empty();
        for (i, sub) in subs.iter().enumerate() {
            let agg = Agg::of_run(sub).expect("sub-runs are not empty");
            blocks.merge(&agg);
            rows.merge(&through_tier_row(&agg, sub[0].0));
            // The node holding this sub-run answers the partial query for
            // it as one series of its own.
            let row = std::iter::once(Json::Int(0))
                .chain(PARTIAL_FUNCS.map(|func| finalize(&agg, func)))
                .collect();
            nodes.series.push(ResultSeries {
                name: "m".into(),
                tags: vec![("part".into(), i.to_string())],
                columns: vec![],
                values: vec![row],
            });
        }
        prop_assert_eq!(&blocks, &folded);
        prop_assert_eq!(&rows, &folded);

        let plan = partial_plan("SELECT count(v), sum(v), min(v), max(v), mean(v) FROM m")
            .expect("a decomposable aggregate");
        let merged = plan.merge(vec![nodes]);
        let want: Vec<Json> = ANSWERED.iter().map(|&func| finalize(&folded, func)).collect();
        prop_assert_eq!(&merged.series[0].values[0][1..], &want[..]);
        prop_assert_eq!(&want[0], &Json::Int(run.len() as i64));
        if !folded.numeric {
            prop_assert!(want[1..].iter().all(Json::is_null), "text has no numeric aggregate");
        }
    }
}
