//! Golden bytes of the WAL segment format: a fixed sequence of batches
//! appended to a fresh log. Every un-flushed acknowledged write on disk is
//! these bytes, so a test here that fails is a format change (or a CRC that
//! no longer matches the frames already written), not a test to update.

use lms_tsm::{Wal, WalConfig, WalRecord};
use std::path::PathBuf;
use std::time::Duration;

/// The one segment file [`batches`] leave: per record, the payload length,
/// its CRC-32, the sequence number and the batch text.
const GOLDEN: &[&str] = &[
    "2c000000afcbbc0300000000000000006370752c686f73746e616d653d6e3120627573793d302e35",
    "20313030303030303030300a6a000000b93f9be801000000000000006d656d2c686f73746e616d65",
    "3d6e3120757365643d31303234692c667265653d333037326920313030303030303030300a6d656d",
    "2c686f73746e616d653d6e3220757365643d32303438692c667265653d3230343869203130303030",
    "30303030300a380000008a2d39d902000000000000006d795c206d2c7461675c206b3d76615c3d6c",
    "75652c7a3d615c2c6220665c2c6b3d322c6f6b3d7472756520313530300a3d000000e6bbef510300",
    "0000000000006576656e74732c686f73746e616d653d6e3120746578743d226a6f62207374617274",
    "20c3bc6ec3af205c22715c222220323030300a0800000093d168e1040000000000000018030000d6",
    "164f7f05000000000000006370752c636c75737465723d63302c686f73746e616d653d6e3030302c",
    "6a6f6269643d343731312c757365723d753020627573793d302e32352c69646c653d313030692031",
    "3730303030303030303030303030303030300a6370752c636c75737465723d63302c686f73746e61",
    "6d653d6e3030312c6a6f6269643d343731312c757365723d753120627573793d312e32352c69646c",
    "653d39396920313730303030303030303030303030303030310a6370752c636c75737465723d6330",
    "2c686f73746e616d653d6e3030322c6a6f6269643d343731312c757365723d753220627573793d32",
    "2e32352c69646c653d39386920313730303030303030303030303030303030320a6370752c636c75",
    "737465723d63302c686f73746e616d653d6e3030332c6a6f6269643d343731312c757365723d7530",
    "20627573793d332e32352c69646c653d39376920313730303030303030303030303030303030330a",
    "6370752c636c75737465723d63302c686f73746e616d653d6e3030342c6a6f6269643d343731312c",
    "757365723d753120627573793d342e32352c69646c653d3936692031373030303030303030303030",
    "3030303030340a6370752c636c75737465723d63302c686f73746e616d653d6e3030352c6a6f6269",
    "643d343731312c757365723d753220627573793d352e32352c69646c653d39356920313730303030",
    "303030303030303030303030350a6370752c636c75737465723d63302c686f73746e616d653d6e30",
    "30362c6a6f6269643d343731312c757365723d753020627573793d362e32352c69646c653d393469",
    "20313730303030303030303030303030303030360a6370752c636c75737465723d63302c686f7374",
    "6e616d653d6e3030302c6a6f6269643d343731312c757365723d753120627573793d372e32352c69",
    "646c653d39336920313730303030303030303030303030303030370a6370752c636c75737465723d",
    "63302c686f73746e616d653d6e3030312c6a6f6269643d343731312c757365723d75322062757379",
    "3d382e32352c69646c653d39326920313730303030303030303030303030303030380a180000007c",
    "6ebcad06000000000000007820763d2d312e35652d37202d34320a",
];

/// Batches of every shape a node logs: one line, many lines, escapes, a
/// string field with UTF-8, an empty batch and a batch long enough to run
/// the CRC over many whole words and a ragged tail.
fn batches() -> Vec<String> {
    let mut long = String::new();
    for i in 0..9 {
        long.push_str(&format!(
            "cpu,cluster=c0,hostname=n{:03},jobid=4711,user=u{} \
             busy={}.25,idle={}i 1700000000{:09}\n",
            i % 7,
            i % 3,
            i,
            100 - i,
            i
        ));
    }
    vec![
        "cpu,hostname=n1 busy=0.5 1000000000\n".to_string(),
        "mem,hostname=n1 used=1024i,free=3072i 1000000000\n\
         mem,hostname=n2 used=2048i,free=2048i 1000000000\n"
            .to_string(),
        "my\\ m,tag\\ k=va\\=lue,z=a\\,b f\\,k=2,ok=true 1500\n".to_string(),
        "events,hostname=n1 text=\"job start ünï \\\"q\\\"\" 2000\n".to_string(),
        String::new(),
        long,
        "x v=-1.5e-7 -42\n".to_string(),
    ]
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lms-tsm-wal-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &PathBuf) -> WalConfig {
    let mut cfg = WalConfig::new(dir);
    cfg.group_commit_delay = Duration::ZERO;
    cfg
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len()).step_by(2).map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap()).collect()
}

#[test]
fn wal_segment_matches_the_golden_bytes() {
    let dir = tmp("write");
    let (wal, recovery) = Wal::open(config(&dir)).unwrap();
    assert!(recovery.records.is_empty());
    for (i, batch) in batches().iter().enumerate() {
        assert_eq!(wal.append(batch, batch.lines().count() as u64).unwrap(), i as u64);
    }
    drop(wal);
    let bytes = std::fs::read(dir.join(format!("{:016x}.wal", 0))).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(hex(&bytes), GOLDEN.concat(), "the WAL bytes changed");
}

#[test]
fn golden_wal_replays_every_batch() {
    let dir = tmp("read");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("{:016x}.wal", 0)), unhex(&GOLDEN.concat())).unwrap();
    let (wal, recovery) = Wal::open(config(&dir)).unwrap();
    let want: Vec<WalRecord> = batches()
        .into_iter()
        .enumerate()
        .map(|(seq, batch)| WalRecord { seq: seq as u64, batch })
        .collect();
    assert_eq!((recovery.torn_bytes, recovery.corrupt_frames), (0, 0));
    assert_eq!(recovery.records, want, "replay must hand back the logged batches");
    // Appending resumes after the replayed records.
    assert_eq!(wal.append("m v=1 1\n", 1).unwrap(), want.len() as u64);
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}
