//! Golden bytes of the spool segment format: a fixed sequence of records
//! appended to a fresh spool. A router that spilled batches during a
//! database outage left exactly these bytes on disk, so a test here that
//! fails is a format change (or a CRC that no longer matches the frames
//! already written), not a test to update.

use lms_spool::{Spool, SpoolConfig};
use std::path::PathBuf;

/// The one segment file [`records`] leave: per record, the payload length,
/// its CRC-32, the database name's length and bytes, and the body.
const GOLDEN: &[&str] = &[
    "290000006074d59903006c6d736370752c686f73746e616d653d6e3120627573793d302e35203130",
    "30303030303030300a66000000dcfbb2ed03006c6d736d795c206d2c7461675c206b3d76615c3d6c",
    "75652c7a3d615c2c6220665c2c6b3d322c6f6b3d7472756520313530300a6d656d2c686f73746e61",
    "6d653d6e3220757365643d32303438692c667265653d323034386920313030303030303030300a3c",
    "0000003ae8d46505006ac3b662736576656e74732c686f73746e616d653d6e3120746578743d226a",
    "6f6220737461727420c3bc6ec3af205c22715c222220323030300a05000000e58a10d903006c6d73",
    "15030000ad10118003006c6d736370752c636c75737465723d63302c686f73746e616d653d6e3030",
    "302c6a6f6269643d343731312c757365723d753020627573793d302e32352c69646c653d31303069",
    "20313730303030303030303030303030303030300a6370752c636c75737465723d63302c686f7374",
    "6e616d653d6e3030312c6a6f6269643d343731312c757365723d753120627573793d312e32352c69",
    "646c653d39396920313730303030303030303030303030303030310a6370752c636c75737465723d",
    "63302c686f73746e616d653d6e3030322c6a6f6269643d343731312c757365723d75322062757379",
    "3d322e32352c69646c653d39386920313730303030303030303030303030303030320a6370752c63",
    "6c75737465723d63302c686f73746e616d653d6e3030332c6a6f6269643d343731312c757365723d",
    "753020627573793d332e32352c69646c653d39376920313730303030303030303030303030303030",
    "330a6370752c636c75737465723d63302c686f73746e616d653d6e3030342c6a6f6269643d343731",
    "312c757365723d753120627573793d342e32352c69646c653d393669203137303030303030303030",
    "30303030303030340a6370752c636c75737465723d63302c686f73746e616d653d6e3030352c6a6f",
    "6269643d343731312c757365723d753220627573793d352e32352c69646c653d3935692031373030",
    "3030303030303030303030303030350a6370752c636c75737465723d63302c686f73746e616d653d",
    "6e3030362c6a6f6269643d343731312c757365723d753020627573793d362e32352c69646c653d39",
    "346920313730303030303030303030303030303030360a6370752c636c75737465723d63302c686f",
    "73746e616d653d6e3030302c6a6f6269643d343731312c757365723d753120627573793d372e3235",
    "2c69646c653d39336920313730303030303030303030303030303030370a6370752c636c75737465",
    "723d63302c686f73746e616d653d6e3030312c6a6f6269643d343731312c757365723d7532206275",
    "73793d382e32352c69646c653d39326920313730303030303030303030303030303030380a120000",
    "008249da6f0100787820763d2d312e35652d37202d3432",
];

/// Deliveries of every shape the forwarder spills: one line, many lines
/// with escapes, UTF-8 in the database name and the body, an empty body
/// and a body long enough to run the CRC over many whole words and a
/// ragged tail.
fn records() -> Vec<(String, String)> {
    let mut long = String::new();
    for i in 0..9 {
        long.push_str(&format!(
            "cpu,cluster=c0,hostname=n{:03},jobid=4711,user=u{} busy={}.25,idle={}i 1700000000{:09}\n",
            i % 7,
            i % 3,
            i,
            100 - i,
            i
        ));
    }
    [
        ("lms", "cpu,hostname=n1 busy=0.5 1000000000\n".to_string()),
        (
            "lms",
            "my\\ m,tag\\ k=va\\=lue,z=a\\,b f\\,k=2,ok=true 1500\n\
             mem,hostname=n2 used=2048i,free=2048i 1000000000\n"
                .to_string(),
        ),
        ("jöbs", "events,hostname=n1 text=\"job start ünï \\\"q\\\"\" 2000\n".to_string()),
        ("lms", String::new()),
        ("lms", long),
        ("x", "x v=-1.5e-7 -42".to_string()),
    ]
    .into_iter()
    .map(|(db, body)| (db.to_string(), body))
    .collect()
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lms-spool-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn segment(dir: &std::path::Path, seq: u64) -> PathBuf {
    dir.join(format!("{seq:016x}.seg"))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len()).step_by(2).map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap()).collect()
}

#[test]
fn spool_segment_matches_the_golden_bytes() {
    let dir = tmp("write");
    let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
    for (db, body) in records() {
        spool.append(&db, &body).unwrap();
    }
    drop(spool);
    let bytes = std::fs::read(segment(&dir, 0)).unwrap();
    let files = std::fs::read_dir(&dir).unwrap().count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(files, 1, "every record fits the first segment");
    assert_eq!(hex(&bytes), GOLDEN.concat(), "the spool bytes changed");
}

#[test]
fn golden_spool_replays_every_record() {
    let dir = tmp("read");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(segment(&dir, 0), unhex(&GOLDEN.concat())).unwrap();
    let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
    let want = records();
    let stats = spool.stats();
    assert_eq!((stats.pending, stats.torn_bytes, stats.corrupt_records), (want.len() as u64, 0, 0));
    // Appending resumes in the next segment, behind the replayed records.
    spool.append("lms", "m v=1 1\n").unwrap();
    assert!(segment(&dir, 1).exists());
    for (db, body) in want.iter().chain([&("lms".to_string(), "m v=1 1\n".to_string())]) {
        let e = spool.peek(0).expect("a replayed record");
        assert_eq!((&e.db, &e.body), (db, body), "replay must hand back the spooled records");
        spool.ack(&e);
    }
    assert!(spool.is_empty());
    drop(spool);
    let _ = std::fs::remove_dir_all(&dir);
}
