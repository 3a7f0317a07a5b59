//! What the box says about itself: CPU time by thread role, memory, and the
//! `env` block every result file carries. Everything is read from `/proc`
//! (threads are named, so roles need no libc).

use lms_util::Json;
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};

/// Linux reports task times in `USER_HZ` ticks, fixed at 100 for userspace
/// on every architecture this runs on.
const TICKS_PER_S: f64 = 100.0;

/// Name prefix of every load-generator thread (writers, readers, sampler).
pub const GEN_PREFIX: &str = "gen-";

/// Parses one `/proc/<pid>/stat` (or `task/<tid>/stat`) line into the
/// thread's `comm` and its user+system CPU ticks. The comm is wrapped in
/// parentheses and may itself contain spaces or parentheses, so the split
/// is on the *last* `)`.
pub fn parse_stat(line: &str) -> Option<(&str, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?;
    // After the comm: state is field 3, utime field 14, stime field 15.
    let mut rest = line.get(close + 1..)?.split_ascii_whitespace();
    let utime: u64 = rest.nth(11)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((comm, utime + stime))
}

/// CPU ticks of generator threads that have ended. A thread's row leaves
/// `/proc/self/task` when it ends while the process total keeps its time, so
/// without this a writer that finishes a moment before the sampler's last
/// reading would have its whole CPU counted as the stack's.
static ENDED_GENERATOR_TICKS: AtomicU64 = AtomicU64::new(0);

/// Called by a generator thread as its last act: books the CPU it used.
pub fn end_generator_thread() {
    let ticks = fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| parse_stat(&s).map(|(_, t)| t))
        .unwrap_or(0);
    ENDED_GENERATOR_TICKS.fetch_add(ticks, Ordering::Relaxed);
}

/// CPU seconds consumed so far, split by who consumed them.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSplit {
    /// The whole process, including threads that have already exited
    /// (per-request connection threads live for one query).
    pub process_s: f64,
    /// Load-generator threads plus the main thread that drives the run.
    pub generator_s: f64,
}

impl CpuSplit {
    /// Reads the current split. Generator threads are the ones whose name
    /// starts with [`GEN_PREFIX`] — live ones from `/proc`, ended ones from
    /// what they booked — plus the main thread (tid == pid).
    pub fn read() -> CpuSplit {
        let process_ticks = fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s).map(|(_, t)| t))
            .unwrap_or(0);
        let pid = std::process::id().to_string();
        let mut generator_ticks = ENDED_GENERATOR_TICKS.load(Ordering::Relaxed);
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let is_main = task.file_name().to_str() == Some(pid.as_str());
                let Ok(stat) = fs::read_to_string(task.path().join("stat")) else {
                    continue;
                };
                if let Some((comm, ticks)) = parse_stat(&stat) {
                    if is_main || comm.starts_with(GEN_PREFIX) {
                        generator_ticks += ticks;
                    }
                }
            }
        }
        CpuSplit {
            process_s: process_ticks as f64 / TICKS_PER_S,
            generator_s: generator_ticks as f64 / TICKS_PER_S,
        }
    }

    /// CPU seconds spent since `earlier`.
    pub fn since(&self, earlier: &CpuSplit) -> CpuSplit {
        CpuSplit {
            process_s: self.process_s - earlier.process_s,
            generator_s: self.generator_s - earlier.generator_s,
        }
    }

    /// CPU seconds of the stack itself: process minus generator.
    pub fn stack_s(&self) -> f64 {
        (self.process_s - self.generator_s).max(0.0)
    }
}

/// First word of a `/proc/self/status` field.
fn status_field(key: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(key))?;
    Some(line.split_ascii_whitespace().next()?.to_string())
}

/// `(VmHWM in MiB, current thread count)` from `/proc/self/status`.
pub fn memory_and_threads() -> (f64, u64) {
    let number = |key| status_field(key).and_then(|v| v.parse::<u64>().ok());
    (
        number("VmHWM:").unwrap_or(0) as f64 / 1024.0,
        number("Threads:").unwrap_or(0),
    )
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The `env` block: enough that two result files are comparable or visibly
/// not. `flush_policy` is the stack's own description of its knobs.
pub fn env_block(writers: usize, readers: usize, flush_policy: &str) -> Json {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    Json::obj([
        ("nproc", Json::from(nproc() as i64)),
        (
            "cpus_allowed",
            Json::str(status_field("Cpus_allowed_list:").unwrap_or_else(|| "unknown".into())),
        ),
        (
            "commit",
            Json::str(
                command_line("git", &["rev-parse", "--short", "HEAD"])
                    .unwrap_or_else(|| "unknown (not a git checkout)".into()),
            ),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("kernel", Json::str(kernel.trim())),
        (
            "generator_threads",
            Json::obj([
                ("writers", Json::from(writers as i64)),
                ("readers", Json::from(readers as i64)),
                ("sampler", Json::from(1i64)),
            ]),
        ),
        ("flush_policy", Json::str(flush_policy)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comm_and_cpu_ticks() {
        let line = "4242 (gen-w0) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    37 5 0 0 20 0 9 0 123456 1000000 250 18446744073709551615";
        assert_eq!(parse_stat(line), Some(("gen-w0", 42)));
    }

    #[test]
    fn comm_may_contain_spaces_and_parentheses() {
        let line = "7 (lms http) (x)) R 1 7 7 0 -1 0 0 0 0 0 3 4 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat(line), Some(("lms http) (x)", 7)));
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (short) S 1 2"), None);
    }

    #[test]
    fn an_ended_generator_thread_keeps_its_cpu_on_the_generator_side() {
        let before = CpuSplit::read();
        std::thread::Builder::new()
            .name(format!("{GEN_PREFIX}burn"))
            .spawn(|| {
                let start = std::time::Instant::now();
                let mut x = 0u64;
                while start.elapsed() < std::time::Duration::from_millis(120) {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                }
                end_generator_thread();
            })
            .unwrap()
            .join()
            .unwrap();
        let spent = CpuSplit::read().since(&before);
        // The thread is gone from /proc/self/task; what it booked is not.
        assert!(spent.generator_s >= 0.05, "{spent:?}");
        assert!(spent.stack_s() <= spent.process_s - 0.05, "{spent:?}");
    }

    #[test]
    fn reads_own_process() {
        let a = CpuSplit::read();
        assert!(a.process_s >= a.generator_s);
        let (rss, threads) = memory_and_threads();
        assert!(rss > 0.0 && threads >= 1);
    }
}
