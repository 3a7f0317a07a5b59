//! What a stored value costs on disk, and that a data directory of the
//! previous segment format still answers.
//!
//! - A count gate, independent of the box's speed: a `cluster_live`-shaped
//!   set — series keys carrying the router's job tags, five float fields,
//!   ten points per series at a jittered 1-s cadence — flushed in four
//!   passes and then major-compacted, must cost at most
//!   [`MAX_SEGMENT_BYTES_PER_VALUE`] segment bytes per stored value. The
//!   segment writer's one frame per series per file is what meets it:
//!   writing one frame per block, each with its own copy of the series
//!   identity (as the `LMSTSM2` format did), costs 1.8 times as much and
//!   fails it.
//! - An `LMSTSM2` data directory — the same set, each block in a frame of
//!   its own — opens and answers every query exactly as the directory it
//!   was made from, and after a major compaction holds only `LMSTSM3`
//!   files and still answers the same.

use lms_influx::{Influx, QueryResult, StorageConfig};
use lms_lineproto::FieldValue;
use lms_tsm::engine::list_segment_files;
use lms_tsm::segment::{scan_segment, MAGIC};
use lms_tsm::{Agg, BlockEntry};
use lms_util::rng::XorShift64;
use lms_util::scratch::ScratchDir;
use lms_util::{seglog, Clock, Timestamp};
use std::path::{Path, PathBuf};

/// Segment bytes per stored value the set below may cost. It measured
/// 24.61 with one frame per series per file; the bound is that plus 10 %.
/// One frame per block measured 43.17 (44.47 in the `LMSTSM2` layout).
const MAX_SEGMENT_BYTES_PER_VALUE: f64 = 27.0;

const SEC: i64 = 1_000_000_000;
const T0: i64 = 1_700_000_000;
const HOSTS: usize = 12;
const CPUS: usize = 4;
const POINTS: i64 = 10;
const FIELDS: [&str; 5] = ["dp_mflop_s", "mem_bw_mb_s", "cpi", "l2_miss_ratio", "power_w"];
const QUERIES: [&str; 4] = [
    "SELECT dp_mflop_s, mem_bw_mb_s, cpi, l2_miss_ratio, power_w FROM likwid_mem_dp",
    "SELECT mean(dp_mflop_s), max(power_w), count(cpi) FROM likwid_mem_dp GROUP BY hostname",
    "SELECT sum(mem_bw_mb_s) FROM likwid_mem_dp WHERE time >= 1700000002000000000 \
     AND time < 1700000007000000000 GROUP BY time(2s), jobid",
    "SELECT last(l2_miss_ratio), first(cpi) FROM likwid_mem_dp WHERE user = 'u03' GROUP BY cpu",
];

fn open(dir: &Path) -> Influx {
    let clock = Clock::simulated(Timestamp::from_secs(T0 + 60));
    Influx::open(clock, 8, StorageConfig::new(dir)).unwrap()
}

/// One sweep of every series at step `step`: hardware-thread metrics of
/// twelve hosts in three jobs, tagged as the router tags them.
fn sweep(step: i64, rng: &mut XorShift64) -> String {
    let mut body = String::new();
    for host in 0..HOSTS {
        let job = 1001 + host / 4;
        for cpu in 0..CPUS {
            let jitter = rng.below(20_000_000) as i64; // up to 20 ms late
            let ts = (T0 + step) * SEC + jitter;
            body.push_str(&format!(
                "likwid_mem_dp,cpu={cpu},hostname=h{host:04},jobid={job},project=p-astro-{job},\
                 queue=batch,scope=hwthread,user=u{:02} ",
                job % 8
            ));
            // Each metric noisy around a level of its own.
            let fields: Vec<String> = FIELDS
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    format!("{f}={:.1}", (i * 1000) as f64 + rng.below(500) as f64 / 10.0)
                })
                .collect();
            body.push_str(&fields.join(","));
            body.push_str(&format!(" {ts}\n"));
        }
    }
    body
}

/// Writes the set, flushing after every third sweep: four passes, so four
/// segment files for the one partition.
fn write_set(ix: &Influx) {
    let mut rng = XorShift64::new(44);
    for step in 0..POINTS {
        ix.write_lines("lms", &sweep(step, &mut rng), Default::default()).unwrap();
        if step % 3 == 2 || step == POINTS - 1 {
            ix.flush_storage().unwrap();
        }
    }
}

fn answers(ix: &Influx) -> Vec<QueryResult> {
    QUERIES.iter().map(|q| ix.query("lms", q).unwrap()).collect()
}

#[test]
fn cluster_live_shaped_segments_stay_under_the_bytes_per_value_bound() {
    let dir = ScratchDir::new("lms-influx-segbytes").unwrap();
    let ix = open(dir.path());
    write_set(&ix);
    ix.database("lms").unwrap().compact_storage().unwrap();
    let stats = ix.storage_stats();
    let values = (HOSTS * CPUS * FIELDS.len()) as u64 * POINTS as u64;
    assert_eq!(stats.sealed_points, values, "every value sealed once");
    assert_eq!(stats.head_points, 0);
    assert_eq!(stats.segment_files, 1, "one partition, compacted into one file");
    let per_value = stats.segment_bytes as f64 / stats.sealed_points as f64;
    println!("{} segment bytes for {values} values = {per_value:.2} B/value", stats.segment_bytes);
    assert!(
        per_value <= MAX_SEGMENT_BYTES_PER_VALUE,
        "{per_value:.2} segment bytes per value, bound {MAX_SEGMENT_BYTES_PER_VALUE}"
    );
}

#[test]
fn a_v2_data_directory_answers_the_same_and_compaction_upgrades_it() {
    // Two directories of the same set; the second is rewritten as the
    // previous writer left it: the same blocks, one frame each.
    let v3 = ScratchDir::new("lms-influx-segv3").unwrap();
    let v2 = ScratchDir::new("lms-influx-segv2").unwrap();
    for dir in [&v3, &v2] {
        write_set(&open(dir.path()));
    }
    let files = list_segment_files(&v2.path().join("lms"));
    assert_eq!(files.len(), 4);
    for path in &files {
        let entries = scan_segment(path).unwrap().entries;
        std::fs::write(path, v2_file(&entries)).unwrap();
        let again = scan_segment(path).unwrap();
        assert!(again.is_clean() && again.entries.len() == entries.len());
    }
    let segments = |dir: &ScratchDir| -> Vec<(PathBuf, Vec<u8>)> {
        let files = list_segment_files(&dir.path().join("lms")).into_iter();
        files.map(|p| (p.file_name().unwrap().into(), std::fs::read(&p).unwrap())).collect()
    };
    assert!(segments(&v2).iter().all(|(_, bytes)| bytes.starts_with(b"LMSTSM2\n")));

    let (ix3, ix2) = (open(v3.path()), open(v2.path()));
    assert_eq!(ix2.storage_stats().corrupt_frames, 0);
    assert_eq!(answers(&ix2), answers(&ix3), "an LMSTSM2 directory answers as it did");
    // A compaction merges the same blocks in the same order on both.
    for ix in [&ix3, &ix2] {
        ix.database("lms").unwrap().compact_storage().unwrap();
    }
    let compacted = answers(&ix3);
    assert_eq!(answers(&ix2), compacted);
    drop((ix3, ix2));

    let upgraded = segments(&v2);
    assert_eq!(upgraded.len(), 1);
    assert!(upgraded[0].1.starts_with(MAGIC), "compaction leaves only LMSTSM3 files");
    assert_eq!(upgraded, segments(&v3), "the same file, byte for byte");
    assert_eq!(answers(&open(v2.path())), compacted, "the upgraded directory answers the same");
}

/// An `LMSTSM2` segment file of `entries`: per block one frame holding a
/// fixed-width header, the series identity, the field, the block and its
/// footer.
fn v2_file(entries: &[BlockEntry]) -> Vec<u8> {
    fn str16(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u16).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    let mut file = b"LMSTSM2\n".to_vec();
    for e in entries {
        seglog::put_frame(&mut file, usize::MAX, |out| {
            let b = &e.block;
            out.extend_from_slice(&b.gen.to_le_bytes());
            out.extend_from_slice(&b.min_ts.to_le_bytes());
            out.extend_from_slice(&b.max_ts.to_le_bytes());
            out.extend_from_slice(&b.count.to_le_bytes());
            str16(out, &e.series.series_key);
            str16(out, &e.series.measurement);
            out.extend_from_slice(&(e.series.tags.len() as u16).to_le_bytes());
            for (k, v) in &e.series.tags {
                str16(out, k);
                str16(out, v);
            }
            str16(out, &e.field);
            out.extend_from_slice(&(b.bytes().len() as u32).to_le_bytes());
            out.extend_from_slice(b.bytes());
            // The set is all floats: a float's tagged value is `0` + bits.
            let Some(Agg { numeric, sum, sum_sq, min, max, first, last, .. }) = b.summary() else {
                panic!("every sealed block of the set has a summary")
            };
            out.extend_from_slice(&[1, *numeric as u8]);
            for x in [sum, sum_sq, min, max] {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            for edge in [first, last] {
                let Some((_, FieldValue::Float(x))) = edge else { panic!("a float edge") };
                out.push(0);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        });
    }
    file
}
