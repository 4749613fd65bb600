//! What the benchmark reads from `/proc`: CPU time and peak resident memory
//! of the process that runs the program (the daemon's pid, or this process),
//! and the host facts every output file records.

use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux has reported
/// `USER_HZ = 100` on every architecture since 2.6; without `libc` there is
/// no `sysconf` to ask.
const USER_HZ: f64 = 100.0;

/// User + system CPU time, in milliseconds, from the text of a
/// `/proc/<pid>/stat` file. The command name (field 2) may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
#[must_use]
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command name come state (field 3) … utime (14), stime (15).
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000.0 / USER_HZ)
}

/// `VmHWM` (peak resident set size), in MiB, from the text of a
/// `/proc/<pid>/status` file.
#[must_use]
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The 1-minute load average from the text of `/proc/loadavg`.
#[must_use]
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The first `model name` of `/proc/cpuinfo`.
#[must_use]
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

fn read(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Which process to account: the daemon, or the benchmark itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pid {
    /// This process (the in-process workloads).
    Own,
    /// A spawned daemon.
    Child(u32),
}

impl Pid {
    fn dir(self) -> String {
        match self {
            Self::Own => "/proc/self".to_owned(),
            Self::Child(pid) => format!("/proc/{pid}"),
        }
    }

    /// User + system CPU consumed so far, ms (0 when `/proc` is unreadable,
    /// which the host guard reports).
    #[must_use]
    pub fn cpu_ms(self) -> f64 {
        read(format!("{}/stat", self.dir()))
            .and_then(|s| parse_stat_cpu_ms(&s))
            .unwrap_or(0.0)
    }

    /// Peak resident set size so far, MiB.
    #[must_use]
    pub fn peak_rss_mb(self) -> f64 {
        read(format!("{}/status", self.dir()))
            .and_then(|s| parse_status_hwm_mb(&s))
            .unwrap_or(0.0)
    }
}

/// The host's 1-minute load average (0 when unreadable).
#[must_use]
pub fn loadavg() -> f64 {
    read("/proc/loadavg")
        .and_then(|s| parse_loadavg(&s))
        .unwrap_or(0.0)
}

/// The CPU model string (`"unknown"` when unreadable).
#[must_use]
pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_fields_after_the_last_parenthesis() {
        // A command name with spaces and a ')' must not shift the fields.
        let stat = "4242 (joinmi serve) x) S 1 4242 4242 0 -1 4194304 2000 0 0 0 \
                    150 50 0 0 20 0 3 0 100 200000000 5000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(stat), Some(2000.0));
        assert_eq!(parse_stat_cpu_ms("garbage"), None);
        assert_eq!(parse_stat_cpu_ms("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_hwm_is_converted_to_mib() {
        let status =
            "Name:\tjoinmi_serve\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(200.0));
        assert_eq!(parse_status_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn loadavg_and_cpu_model_parse() {
        assert_eq!(parse_loadavg("0.42 0.50 0.88 2/87 5778\n"), Some(0.42));
        assert_eq!(parse_loadavg(""), None);
        let cpuinfo = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nflags\t: a b\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Example CPU @ 2.0GHz")
        );
    }

    #[test]
    fn own_process_is_readable_on_linux() {
        if !Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(Pid::Own.peak_rss_mb() > 0.0);
        assert!(Pid::Own.cpu_ms() >= 0.0);
    }
}
