//! The WAL under a real disk fault: a group write the file-size limit
//! cuts short. The limit applies to the whole process, so this binary
//! holds a single test.
// The resource and signal numbers below are Linux's on these targets.
#![cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]

use lms_tsm::{Wal, WalConfig};
use lms_util::Error;
use std::ffi::{c_int, c_ulong};

/// `struct rlimit`.
#[repr(C)]
struct RLimit {
    cur: c_ulong,
    max: c_ulong,
}

const RLIMIT_FSIZE: c_int = 1;
const SIGXFSZ: c_int = 25;
const SIG_IGN: usize = 1;

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn signal(signum: c_int, handler: usize) -> usize;
}

/// Sets the soft limit of `resource` to `cur`; returns the previous one.
fn set_soft_limit(resource: c_int, cur: c_ulong) -> c_ulong {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable `struct rlimit`.
    assert_eq!(unsafe { getrlimit(resource, &mut lim) }, 0);
    let old = lim.cur;
    lim.cur = cur;
    // SAFETY: `lim` is a valid `struct rlimit`, read only.
    assert_eq!(unsafe { setrlimit(resource, &lim) }, 0);
    old
}

/// Makes a write past the file-size limit fail with `EFBIG` instead of
/// killing the process.
fn ignore_sigxfsz() {
    // SAFETY: `SIG_IGN` installs no handler code; ignoring `SIGXFSZ` only
    // changes how a write past the limit is reported.
    unsafe { signal(SIGXFSZ, SIG_IGN) };
}

#[test]
fn a_failed_group_write_strands_no_later_record() {
    let dir = std::env::temp_dir().join(format!("lms-tsm-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
    wal.append("a v=1 1", 1).unwrap(); // a 23-byte frame
    ignore_sigxfsz();
    let saved = set_soft_limit(RLIMIT_FSIZE, 60);
    let err = wal.append(&format!("b v={} 2", "2".repeat(68)), 1); // a 90-byte frame
    set_soft_limit(RLIMIT_FSIZE, saved);
    match err {
        Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::FileTooLarge, "{e}"),
        other => panic!("the cut-short append must fail with EFBIG, got {other:?}"),
    }
    wal.append("c v=3 3", 1).unwrap();
    drop(wal);
    let (_, rec) = Wal::open(WalConfig::new(&dir)).unwrap();
    let batches: Vec<&str> = rec.records.iter().map(|r| r.batch.as_str()).collect();
    assert_eq!(batches, ["a v=1 1", "c v=3 3"], "every acknowledged record replays");
    assert_eq!(rec.corrupt_frames, 0, "a cut-short write is a torn tail, not corruption");
    let _ = std::fs::remove_dir_all(&dir);
}
