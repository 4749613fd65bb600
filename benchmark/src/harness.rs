//! The closed loop: each client sends its next op only after the previous one
//! completed, until the phase's time is up. A sampler on the calling thread
//! cuts the phase into [`SLICES`] slices and reads the op counter and the
//! measured process's CPU time at each boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::procfs::Pid;
use crate::stats::{self, Slice, SLICES};

/// One completed op: its index in the seed-determined op sequence, the timed
/// interval, and whether it succeeded.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Index in the op sequence.
    pub op: u64,
    /// Start of the timed interval.
    pub start: Instant,
    /// End of the timed interval.
    pub end: Instant,
    /// `false` on a non-200 status or an error return.
    pub ok: bool,
}

impl OpSample {
    /// Wall time of the op, ms.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A client: runs the op with the given index and reports its timing. What
/// it does outside the timed interval (generating the request, keeping the
/// reply for the answer check) is the client's own cost, as it is an
/// analyst's.
pub type Client<'a> = &'a mut (dyn FnMut(u64) -> OpSample + Send);

/// What a phase measured.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Every op that started before the deadline, in op order.
    pub samples: Vec<OpSample>,
    /// The slices, as sampled at their boundaries.
    pub slices: Vec<Slice>,
}

impl Phase {
    /// Op wall times, ms.
    #[must_use]
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(OpSample::ms).collect()
    }

    /// Median op wall time, ms.
    #[must_use]
    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.latencies_ms())
    }

    /// The tail percentile the sample supports (see
    /// [`stats::tail_quantile`]), ms.
    #[must_use]
    pub fn tail_ms(&self) -> f64 {
        let latencies = self.latencies_ms();
        stats::percentile(&latencies, stats::tail_quantile(latencies.len()))
    }

    /// Ops that reported failure.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }
}

/// Runs `clients` in a closed loop for `seconds`. Client `c` of `n` runs ops
/// `first_op + c`, `first_op + c + n`, …, so the op sequence is the same
/// whatever the clients' relative speed.
pub fn run_phase(clients: &mut [Client<'_>], first_op: u64, seconds: f64, pid: Pid) -> Phase {
    let completed = AtomicU64::new(0);
    let stride = clients.len() as u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut slices = Vec::with_capacity(SLICES);
    let mut samples: Vec<OpSample> = Vec::new();

    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let completed = &completed;
                scope.spawn(move || {
                    let mut own = Vec::new();
                    let mut op = first_op + c as u64;
                    while Instant::now() < deadline {
                        own.push(client(op));
                        completed.fetch_add(1, Ordering::Relaxed);
                        op += stride;
                    }
                    own
                })
            })
            .collect();

        let mut last = (start, 0u64, pid.cpu_ms());
        for k in 1..=SLICES {
            let boundary = start + Duration::from_secs_f64(seconds * k as f64 / SLICES as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let now = (
                Instant::now(),
                completed.load(Ordering::Relaxed),
                pid.cpu_ms(),
            );
            slices.push(Slice {
                seconds: (now.0 - last.0).as_secs_f64(),
                ops: now.1 - last.1,
                cpu_ms: now.2 - last.2,
            });
            last = now;
        }
        for handle in handles {
            samples.extend(handle.join().expect("client thread panicked"));
        }
    });
    samples.sort_by_key(|s| s.op);
    Phase { samples, slices }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_interleave_op_indices_and_slices_cover_the_phase() {
        let run = |op: u64| {
            let start = Instant::now();
            std::thread::sleep(Duration::from_millis(2));
            OpSample {
                op,
                start,
                end: Instant::now(),
                ok: op != 13,
            }
        };
        let (mut a, mut b) = (run, run);
        let phase = run_phase(&mut [&mut a, &mut b], 10, 0.25, Pid::Own);
        assert_eq!(phase.slices.len(), SLICES);
        let ops: Vec<u64> = phase.samples.iter().map(|s| s.op).collect();
        // Both parities present, starting at first_op, strictly increasing.
        assert_eq!(ops[0], 10);
        assert!(ops.contains(&11));
        assert!(ops.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(phase.failed(), 1);
        let counted: u64 = phase.slices.iter().map(|s| s.ops).sum();
        assert!(counted <= phase.samples.len() as u64);
        assert!(phase.p50_ms() >= 2.0);
    }
}
