//! Pipeline round-trip property: random points pushed through the real
//! agent→router→database path (TCP, enrichment, batching) come back from
//! queries bit-identical in value and timestamp, with exactly the job tags
//! added and nothing else changed.

use lms::http::HttpClient;
use lms::influx::{Influx, InfluxServer};
use lms::lineproto::{BatchBuilder, Point};
use lms::router::{JobSignal, Router, RouterConfig, RouterServer};
use lms::util::{Clock, Timestamp};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

struct Pipeline {
    influx: Influx,
    router: Arc<Router>,
    client: HttpClient,
    _db: InfluxServer,
    _rs: RouterServer,
}

fn pipeline() -> Pipeline {
    let clock = Clock::simulated(Timestamp::from_secs(50_000));
    let influx = Influx::new(clock.clone()).unwrap();
    let db = InfluxServer::start("127.0.0.1:0", influx.clone()).unwrap();
    let router = Arc::new(Router::new(db.addr(), RouterConfig::default(), clock, None).unwrap());
    let rs = RouterServer::start("127.0.0.1:0", router.clone()).unwrap();
    let client = HttpClient::connect(rs.addr()).unwrap();
    router.handle_job_start(JobSignal {
        job_id: "777".into(),
        user: "prop".into(),
        hosts: vec!["tagged-host".into()],
        extra_tags: vec![],
    });
    Pipeline { influx, router, client, _db: db, _rs: rs }
}

/// `(measurement index, hostname index, value, seconds offset)` tuples:
/// a constrained but varied point population.
fn points_strategy() -> impl Strategy<Value = Vec<(u8, bool, f64, u32)>> {
    proptest::collection::vec(
        (0u8..4, any::<bool>(), -1.0e6..1.0e6f64, 0u32..3600),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn values_and_timestamps_survive_the_full_path(raw in points_strategy()) {
        let mut p = pipeline();
        // Unique (measurement, host, ts) per point — duplicates overwrite
        // by design, which would make the comparison ambiguous.
        let mut seen = std::collections::HashSet::new();
        let mut expected: Vec<(String, String, f64, i64)> = Vec::new();
        let mut batch = BatchBuilder::new();
        for (m, tagged, value, secs) in raw {
            let measurement = format!("prop_m{m}");
            let host = if tagged { "tagged-host" } else { "plain-host" };
            let ts = secs as i64 * 1_000_000_000;
            if !seen.insert((measurement.clone(), host, ts)) {
                continue;
            }
            let mut point = Point::new(&measurement);
            point.add_tag("hostname", host).add_field("value", value).set_timestamp(ts);
            batch.push(&point);
            expected.push((measurement, host.to_string(), value, ts));
        }
        let resp = p.client.post_text("/write?db=lms", batch.as_str()).unwrap();
        prop_assert_eq!(resp.status, 204);
        prop_assert!(p.router.flush(Duration::from_secs(10)));

        for (measurement, host, value, ts) in &expected {
            let q = format!(
                "SELECT value FROM {measurement} WHERE hostname = '{host}' AND time >= {ts} AND time <= {ts}",
                ts = ts
            );
            // `time >= ts AND time <= ts` is an inclusive single-instant
            // range; exactly one row must come back with the exact value.
            let r = p.influx.query("lms", &q).unwrap();
            let rows: Vec<&Vec<lms::util::Json>> =
                r.series.iter().flat_map(|s| &s.values).collect();
            prop_assert_eq!(rows.len(), 1, "{} {} {}", measurement, host, ts);
            prop_assert_eq!(rows[0][0].as_i64(), Some(*ts));
            prop_assert_eq!(rows[0][1].as_f64(), Some(*value), "exact f64 round-trip");
        }

        // Enrichment: tagged-host rows carry the job tags, plain-host rows
        // carry none.
        let tagged_count = expected.iter().filter(|(_, h, _, _)| h == "tagged-host").count();
        if tagged_count > 0 {
            let mut found = 0usize;
            for m in 0..4 {
                let q = format!("SELECT count(value) FROM prop_m{m} WHERE jobid = '777' AND user = 'prop'");
                let r = p.influx.query("lms", &q).unwrap();
                if let Some(row) = r.series.first().and_then(|s| s.values.first()) {
                    found += row[1].as_i64().unwrap_or(0) as usize;
                }
            }
            prop_assert_eq!(found, tagged_count);
        }
        let plain = expected.iter().filter(|(_, h, _, _)| h == "plain-host").count();
        if plain > 0 {
            for m in 0..4 {
                let q = format!("SELECT count(value) FROM prop_m{m} WHERE hostname = 'plain-host' AND jobid = '777'");
                let r = p.influx.query("lms", &q).unwrap();
                let n = r
                    .series
                    .first()
                    .and_then(|s| s.values.first())
                    .and_then(|row| row[1].as_i64())
                    .unwrap_or(0);
                prop_assert_eq!(n, 0, "plain host must not inherit job tags");
            }
        }
    }
}
