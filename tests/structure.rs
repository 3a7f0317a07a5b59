//! Structural rules over the product code, the same as CI's: each rule
//! reads the non-test code of `crates/*/src`, each file up to its first
//! `#[cfg(test)]`, and names every line that breaks it.

use std::fs;
use std::path::{Path, PathBuf};

/// The `.rs` files under `dir`, sorted.
fn sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// `file:line: text` of every non-test line, in the files under the
/// crates' `src` directories `dirs` (`"*"`: every crate), save `exempt`,
/// that `hit` picks.
fn hits(dirs: &[&str], exempt: &[&str], hit: impl Fn(&str) -> bool) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates: Vec<PathBuf> = match dirs {
        ["*"] => fs::read_dir(root.join("crates")).unwrap().map(|e| e.unwrap().path()).collect(),
        _ => dirs.iter().map(|d| root.join("crates").join(d)).collect(),
    };
    let mut out = Vec::new();
    for file in crates.iter().filter(|c| c.join("src").is_dir()).flat_map(|c| sources(&c.join("src"))) {
        let name = file.strip_prefix(root).unwrap().to_string_lossy().into_owned();
        if exempt.contains(&name.as_str()) {
            continue;
        }
        let text = fs::read_to_string(&file).unwrap();
        let product = text.lines().take_while(|l| !l.contains("#[cfg(test)]"));
        for (i, line) in product.enumerate().filter(|(_, l)| hit(l)) {
            out.push(format!("{name}:{}: {line}", i + 1));
        }
    }
    out
}

/// The clients ship through one path, `lms_http::Sender`, which resends
/// what the router sheds: the client crates hold no `HttpClient` and post
/// nothing themselves. `umetric` is exempt: a one-shot CLI whose exit
/// status tells the batch script to retry.
#[test]
fn one_client_delivery_path() {
    let found = hits(
        &["sysmon", "usermetric", "jobsched", "core"],
        &["crates/usermetric/src/bin/umetric.rs"],
        |l| l.contains("HttpClient") || l.contains(".post(") || l.contains(".post_text("),
    );
    assert!(found.is_empty(), "ship through lms_http::Sender instead:\n{}", found.join("\n"));
}

/// Every listener accepts, tracks and stops its connections through one
/// type, `lms_util::net::Acceptor`: no `TcpListener` outside its module.
#[test]
fn one_acceptor() {
    let found = hits(&["*"], &["crates/util/src/net.rs"], |l| l.contains("TcpListener"));
    assert!(found.is_empty(), "accept through lms_util::net::Acceptor instead:\n{}", found.join("\n"));
}

/// A job is read in one place, `JobEvaluation`'s one batch, which the
/// Fig. 2 header, the Sec. V detectors and the usage report share: at most
/// one `query_batch(` or `query_source(` call in `lms-analysis`.
#[test]
fn one_job_read() {
    let found =
        hits(&["analysis"], &[], |l| l.contains("query_batch(") || l.contains("query_source("));
    assert!(found.len() <= 1, "read a job through JobEvaluation's one batch instead:\n{}", found.join("\n"));
}

/// A job's data is selected by its scope, `JobScope`, whose host set is
/// quoted as InfluxQL quotes a string: neither `lms-analysis` nor
/// `lms-dashboard` writes a host predicate of its own.
#[test]
fn one_job_scope() {
    let found = hits(&["analysis", "dashboard"], &[], |l| l.contains("hostname = '"));
    assert!(found.is_empty(), "select a job through JobScope instead:\n{}", found.join("\n"));
}
