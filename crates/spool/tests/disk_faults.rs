//! The spool under real disk faults: a write the file-size limit cuts
//! short, and a read the descriptor limit refuses. Both limits apply to
//! the whole process, so this binary holds a single test.
// The resource and signal numbers below are Linux's on these targets.
#![cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]

use lms_spool::{Spool, SpoolConfig};
use lms_util::Error;
use std::ffi::{c_int, c_ulong};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;

/// `struct rlimit`.
#[repr(C)]
struct RLimit {
    cur: c_ulong,
    max: c_ulong,
}

const RLIMIT_FSIZE: c_int = 1;
const RLIMIT_NOFILE: c_int = 7;
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

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lms-spool-faults-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn drain(spool: &Spool) -> Vec<String> {
    let mut bodies = Vec::new();
    while let Some(e) = spool.peek(0) {
        bodies.push(e.body.clone());
        spool.ack(&e);
    }
    bodies
}

#[test]
fn a_failed_write_strands_nothing_and_a_failed_read_deletes_nothing() {
    // A write cut short by the file-size limit leaves a torn frame; the
    // next append must not land behind it, where recovery stops.
    let dir = tmp("fsize");
    let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
    spool.append("lms", "a").unwrap(); // a 14-byte frame
    ignore_sigxfsz();
    let saved = set_soft_limit(RLIMIT_FSIZE, 60);
    let err = spool.append("lms", &"b".repeat(77)); // a 90-byte frame
    set_soft_limit(RLIMIT_FSIZE, saved);
    match err {
        Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::FileTooLarge, "{e}"),
        other => panic!("the cut-short append must fail with EFBIG, got {other:?}"),
    }
    spool.append("lms", "c").unwrap();
    drop(spool);
    let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
    assert_eq!(drain(&spool), ["a", "c"], "every record the spool accepted replays");
    drop(spool);
    let _ = std::fs::remove_dir_all(&dir);

    // A head segment that cannot be read right now stays queued: nothing
    // is counted lost and the next poll replays it.
    let dir = tmp("nofile");
    {
        let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
        spool.append("lms", "a").unwrap();
        spool.append("lms", "b").unwrap();
    }
    let spool = Spool::open(SpoolConfig::new(&dir)).unwrap();
    let lowest_free_fd = std::fs::File::open("/dev/null").unwrap().as_raw_fd() as c_ulong;
    let saved = set_soft_limit(RLIMIT_NOFILE, lowest_free_fd);
    let peeked = spool.peek(0);
    set_soft_limit(RLIMIT_NOFILE, saved);
    assert!(peeked.is_none(), "an unreadable head hands out nothing");
    let s = spool.stats();
    assert_eq!((s.pending, s.evicted), (2, 0), "{s:?}");
    assert_eq!(drain(&spool), ["a", "b"], "the segment replays once it can be read");
    drop(spool);
    let _ = std::fs::remove_dir_all(&dir);
}
