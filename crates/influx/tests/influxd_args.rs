//! The `lms-influxd` command line, run as a process.

use lms_util::scratch::ScratchDir;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `lms-influxd` with `args` on a scratch data directory and waits up
/// to ten seconds for it to exit; a daemon still running then is killed
/// and fails the test.
fn run_to_exit(args: &[&str]) -> Output {
    let data = ScratchDir::new("lms-influxd-args").unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_lms-influxd"))
        .arg("--data-dir")
        .arg(data.path())
        .args(["--listen", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("lms-influxd {args:?} kept running");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

#[test]
fn a_db_name_that_cannot_be_a_directory_stops_the_daemon() {
    let out = run_to_exit(&["--db", "ok_db", "--db", "a.b"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--db `a.b`"), "{stderr}");
}
