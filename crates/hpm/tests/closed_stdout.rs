//! A binary whose stdout closes early (`likwid-sim … | head -1`) ends
//! quietly: no panic message and not the panic exit status 101.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs `likwid-sim perfctr`, lets `read_first` decide whether to read the
/// first line before closing the pipe, and returns `(status, stderr)`.
fn run_and_close_stdout(read_first: bool) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_likwid-sim"))
        .args(["perfctr", "-t", "0.01", "-g", "MEM"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn likwid-sim");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    if read_first {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("first line");
        assert!(line.starts_with("Group MEM"), "{line:?}");
    }
    // Close the read end, as `head` does when it exits.
    drop(stdout);
    let out = child.wait_with_output().expect("wait");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // Closed after the first line, and closed before anything was written
    // (every write then fails with a broken pipe).
    for read_first in [true, false] {
        let (status, stderr) = run_and_close_stdout(read_first);
        assert!(!stderr.contains("panicked"), "read_first={read_first}: {stderr}");
        assert_ne!(status, Some(101), "read_first={read_first}: {stderr}");
        assert_eq!(status, Some(0), "read_first={read_first}: {stderr}");
    }
}
