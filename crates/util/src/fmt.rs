//! Human-readable formatting for reports and dashboards.
//!
//! The viewer agent and the job-evaluation header (paper Fig. 2) render
//! bandwidths, byte counts, rates and durations; these helpers keep that
//! rendering consistent across the stack. The binaries print through
//! [`outln!`](crate::outln), which ends a run whose stdout closed early.

use std::time::Duration;

/// Formats a byte count with binary prefixes: `1536` → `"1.5 KiB"`.
pub fn bytes(n: u64) -> String {
    const UNITS: [&str; 7] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"];
    if n < 1024 {
        return format!("{n} B");
    }
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.1} {}", UNITS[unit])
}

/// Formats a rate in SI prefixes with a unit suffix:
/// `si_rate(2.5e9, "FLOP/s")` → `"2.50 GFLOP/s"`.
pub fn si_rate(v: f64, unit: &str) -> String {
    let (scaled, prefix) = si_scale(v);
    format!("{scaled:.2} {prefix}{unit}")
}

/// Scales a value to an SI prefix, returning `(scaled, prefix)`.
pub fn si_scale(v: f64) -> (f64, &'static str) {
    let a = v.abs();
    if a >= 1e12 {
        (v / 1e12, "T")
    } else if a >= 1e9 {
        (v / 1e9, "G")
    } else if a >= 1e6 {
        (v / 1e6, "M")
    } else if a >= 1e3 {
        (v / 1e3, "k")
    } else {
        (v, "")
    }
}

/// Formats a duration compactly: `"2h03m"`, `"4m10s"`, `"12.5s"`, `"340ms"`.
pub fn duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 3600.0 {
        let h = (s / 3600.0).floor() as u64;
        let m = ((s % 3600.0) / 60.0).round() as u64;
        format!("{h}h{m:02}m")
    } else if s >= 60.0 {
        let m = (s / 60.0).floor() as u64;
        let sec = (s % 60.0).round() as u64;
        format!("{m}m{sec:02}s")
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.0}ms", s * 1000.0)
    }
}

/// Left-pads/truncates a string to exactly `w` display columns (ASCII).
pub fn pad(s: &str, w: usize) -> String {
    if s.len() >= w {
        s[..w].to_string()
    } else {
        format!("{s:<w$}")
    }
}

/// Writes one line to stdout, for [`outln!`](crate::outln). A closed
/// stdout (the reader went away, as `| head` does) ends the process
/// quietly with status 0; any other write error ends it with status 1.
pub fn stdout_line(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let Err(e) = writeln!(std::io::stdout().lock(), "{args}") else { return };
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("stdout: {e}");
    std::process::exit(1);
}

/// `println!` for the binaries, through [`fmt::stdout_line`](crate::fmt::stdout_line).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::outln!("")
    };
    ($($arg:tt)*) => {
        $crate::fmt::stdout_line(format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_prefixes() {
        assert_eq!(bytes(0), "0 B");
        assert_eq!(bytes(1023), "1023 B");
        assert_eq!(bytes(1536), "1.5 KiB");
        assert_eq!(bytes(3 * 1024 * 1024), "3.0 MiB");
        assert_eq!(bytes(u64::MAX), "16.0 EiB");
    }

    #[test]
    fn si_rates() {
        assert_eq!(si_rate(2.5e9, "FLOP/s"), "2.50 GFLOP/s");
        assert_eq!(si_rate(1.2e3, "B/s"), "1.20 kB/s");
        assert_eq!(si_rate(5.0, "B/s"), "5.00 B/s");
        assert_eq!(si_rate(3.4e12, "B/s"), "3.40 TB/s");
        assert_eq!(si_rate(-2.0e6, "op/s"), "-2.00 Mop/s");
    }

    #[test]
    fn durations() {
        assert_eq!(duration(Duration::from_millis(340)), "340ms");
        assert_eq!(duration(Duration::from_secs_f64(12.5)), "12.5s");
        assert_eq!(duration(Duration::from_secs(250)), "4m10s");
        assert_eq!(duration(Duration::from_secs(7380)), "2h03m");
    }

    #[test]
    fn padding() {
        assert_eq!(pad("ab", 4), "ab  ");
        assert_eq!(pad("abcdef", 4), "abcd");
        assert_eq!(pad("", 2), "  ");
    }
}
