//! The host guard: what machine and commit a run was made on, and whether
//! its numbers may be compared with another run's.

use joinmi_serve::json::{obj, Json};

use crate::procfs;

/// Clients of the daemon workloads, and `joinmi_par` workers of
/// `discover_wide`: the core count the benchmark is sized for.
pub const CORES: usize = 2;

/// A start-of-run load average above this marks the run not comparable.
const MAX_START_LOAD: f64 = 0.5;

/// Host facts recorded in every output file.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// 1-minute load average when the run started.
    pub load_start: f64,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub commit: String,
    /// Why the run is not comparable; empty when it is.
    pub not_comparable: Vec<String>,
}

impl Host {
    /// Reads the host at the start of a run.
    #[must_use]
    pub fn observe(smoke: bool) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let load_start = procfs::loadavg();
        let mut not_comparable = Vec::new();
        if nproc < CORES {
            not_comparable.push(format!("nproc {nproc} < {CORES}"));
        }
        if load_start > MAX_START_LOAD {
            not_comparable.push(format!(
                "1-minute load average {load_start} > {MAX_START_LOAD} at start"
            ));
        }
        if smoke {
            not_comparable.push("--smoke sizes".to_owned());
        }
        Self {
            nproc,
            cpu_model: procfs::cpu_model(),
            load_start,
            commit: commit(),
            not_comparable,
        }
    }

    /// Whether this run's timings may be set beside another run's.
    #[must_use]
    pub fn comparable(&self) -> bool {
        self.not_comparable.is_empty()
    }

    /// The record written to the output file (load average re-read now, at
    /// the end of the run).
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj([
            ("nproc", Json::Int(self.nproc as i64)),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("load1_start", Json::Float(self.load_start)),
            ("load1_end", Json::Float(procfs::loadavg())),
            ("commit", Json::Str(self.commit.clone())),
            ("comparable", Json::Bool(self.comparable())),
            (
                "not_comparable_because",
                Json::Arr(
                    self.not_comparable
                        .iter()
                        .map(|r| Json::Str(r.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The commit `HEAD` points at, read from `.git` directly (no `git` process;
/// the benchmark also runs in checkouts that are not repositories).
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| head.clone(), |hash| hash.trim().to_owned()),
        None => head,
    }
}
