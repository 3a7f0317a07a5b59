//! The `lms-stack` command line, run as a process: every setting that does
//! not fit stops the binary before it simulates anything.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `lms-stack` with `args` and waits up to ten seconds for it to
/// exit; a stack still running then is killed and fails the test.
fn run_to_exit(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lms-stack"))
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
            panic!("lms-stack {args:?} kept running");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

#[test]
fn each_refused_setting_exits_1_and_names_it() {
    let cases: &[(&[&str], &str)] = &[
        (&["--nodes", "0"], "nodes must be >= 1"),
        (&["--db-nodes", "0"], "db_nodes must be >= 1"),
        (&["--replication", "0"], "replication 0 out of range"),
        (&["--write-quorum", "0"], "write quorum 0 out of range"),
        (&["--db-nodes", "2", "--replication", "3"], "replication 3 out of range 1..=2"),
        (&["--topology", "cray_xc40"], "bad `--topology` `cray_xc40`"),
        (&["--hpm-groups", "MEM,NOPE"], "hpm_groups: not found: performance group `NOPE`"),
        (&["--retention-hours", "0"], "retention must be positive"),
        (&["--retention-raw", "bogus"], "bad `--retention-raw` `bogus`"),
        (&["--retention-1h", "0s"], "bad `--retention-1h` `0s`: must be positive"),
        (&["--seed", "-1"], "bad `--seed` `-1`"),
        (&["--nodes"], "`--nodes` needs a value"),
        (&["--config", "stack.conf"], "unknown argument `--config`"),
    ];
    for (args, needle) in cases {
        let out = run_to_exit(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started the stack");
    }
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    let out = run_to_exit(&["--nodes", "2", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(usage.starts_with("usage: lms-stack"), "{usage}");
    for flag in ["--db-nodes", "--retention-raw", "--scrub-rate-bytes", "--hpm-groups"] {
        assert!(usage.contains(flag), "{flag} missing from {usage}");
    }
}
