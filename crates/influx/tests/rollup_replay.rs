//! Reopen identity of the rollup tiers. A rollup pass seals its tier rows
//! straight into the tier databases' blocks and logs only its watermark;
//! a restart reads the rows back from the segment files. The two must be
//! the same data: a tier database answers identically before and after a
//! reopen, with no flush in between.
//!
//! The seed comes from `LMS_CHAOS_SEED` (default 1) and varies the values.

use lms_influx::rollup::STATS;
use lms_influx::{Influx, RollupPolicy, StorageConfig};
use lms_util::rng::{chaos_seed, XorShift64};
use lms_util::{Clock, Timestamp};

const SEC: i64 = 1_000_000_000;
const T0: i64 = 9_000_000;
const TIERS: [&str; 2] = ["lms__rollup_1m", "lms__rollup_1h"];

fn open(dir: &std::path::Path) -> Influx {
    Influx::open(
        Clock::simulated(Timestamp::from_secs(T0 + 7 * 3600)),
        4,
        StorageConfig::new(dir),
    )
    .unwrap()
}

/// Six hours at a 30-s cadence, over a MiB of 1m rows as text:
/// floats (one large enough that its window's `sumsq` overflows to
/// infinity), integers, booleans, events, and a series whose measurement,
/// tag and field names need escapes.
fn history(seed: u64) -> String {
    let mut rng = XorShift64::new(seed);
    let mut out = String::new();
    for step in 0..720i64 {
        let ts = (T0 + step * 30) * SEC;
        for host in 0..8 {
            let busy = if step == 17 * (host + 1) {
                1e200
            } else {
                rng.below(1000) as f64 / 8.0
            };
            let (n, up) = (rng.below(100) as i64 - 50, rng.below(2) == 1);
            out.push_str(&format!(
                "cpu,hostname=h{host} busy={busy},n={n}i,up={up} {ts}\n"
            ));
        }
        out.push_str(&format!(
            r"my\ m,host\ name=a\ b\,c\=d f\ x={} {ts}",
            rng.below(50)
        ));
        out.push('\n');
        if step % 45 == 0 {
            out.push_str(&format!(
                "events,hostname=h0 text=\"job \\\"{step}\\\"\" {ts}\n"
            ));
        }
    }
    out
}

/// What the tier databases answer: every stored point, and the rows of
/// the queryable measurements as JSON (which tells a float from text).
fn answers(ix: &Influx) -> Vec<String> {
    let mut out = Vec::new();
    for tier in TIERS {
        let mut points: Vec<String> = ix
            .database(tier)
            .unwrap()
            .export_lines(i64::MIN, i64::MAX)
            .lines()
            .map(String::from)
            .collect();
        points.sort_unstable();
        out.extend(points);
        for (m, fields) in [("cpu", &["busy", "n", "up"][..]), ("events", &["text"][..])] {
            let stats: Vec<String> = fields
                .iter()
                .flat_map(|f| STATS.map(|stat| format!("{f}__{stat}")))
                .collect();
            let q = format!("SELECT {} FROM {m} GROUP BY hostname", stats.join(", "));
            out.push(format!("{:?}", ix.query(tier, &q).unwrap()));
        }
        out.push(format!(
            "{:?}",
            ix.query(tier, "SHOW MEASUREMENTS").unwrap()
        ));
    }
    out
}

/// The WAL bytes one write of `line` leaves in a fresh database.
fn logged_bytes(dir: &std::path::Path, line: &str) -> u64 {
    let _ = std::fs::remove_dir_all(dir);
    let ix = open(dir);
    ix.write_lines("x", line, Default::default()).unwrap();
    let bytes = ix.storage_stats().wal_bytes;
    drop(ix);
    let _ = std::fs::remove_dir_all(dir);
    bytes
}

#[test]
fn a_tier_database_answers_the_same_after_a_reopen() {
    let dir = std::env::temp_dir().join(format!(
        "lms-rollup-replay-{}-{}",
        std::process::id(),
        chaos_seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let before = {
        let ix = open(&dir);
        ix.enable_rollups(RollupPolicy {
            retention_raw: None,
            retention_1m: None,
            retention_1h: None,
        })
        .unwrap();
        let written = ix
            .write_lines("lms", &history(chaos_seed()), Default::default())
            .unwrap();
        assert_eq!(written.rejected, 0);
        // A pass straight over the heads: its tier rows are sealed, and
        // the 1m tier's WAL holds its watermark line alone.
        assert_eq!(ix.rollup_pass("lms").unwrap(), 9 * (360 + 6) + 16 + 6);
        for tier in TIERS {
            let stats = ix.database(tier).unwrap().storage_stats();
            assert!(stats.sealed_points > 0, "{tier}");
        }
        let watermark = format!("__rollup_watermark v=1i {}\n", (T0 + 719 * 30) * SEC + 1);
        let logged = |tier: &str| ix.database(tier).unwrap().storage_stats().wal_bytes;
        let one_line = logged_bytes(&dir.with_extension("watermark"), &watermark);
        assert_eq!(logged(TIERS[0]), one_line, "the 1m tier logs the watermark only");
        assert_eq!(logged(TIERS[1]), 0, "the 1h tier logs nothing");
        let cpu = format!(
            "{:?}",
            ix.query(TIERS[0], "SELECT busy__sumsq FROM cpu").unwrap()
        );
        assert!(
            cpu.contains("Inf"),
            "an overflowed sumsq is stored as its marker: {cpu}"
        );
        answers(&ix)
    };
    // Reopened without rollups: nothing rewrites the tiers, the segment
    // files and the watermark's replay alone rebuild them.
    let ix = open(&dir);
    let after = answers(&ix);
    assert_eq!(after.len(), before.len());
    for (a, b) in after.iter().zip(&before) {
        assert_eq!(a, b);
    }
    drop(ix);
    let _ = std::fs::remove_dir_all(&dir);
}
