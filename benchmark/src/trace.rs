//! Spans taken from outside the program: around the benchmark's own calls
//! into each crate's public functions. Spans are kept in memory and written
//! out once, when the traced run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One timed call: `{name, op_id, parent, start_ns, end_ns}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `discovery.persist.open`.
    pub name: &'static str,
    /// The op the call was made for; spans of one op share it.
    pub op_id: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span, ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// same code runs the untraced and the traced phase.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (shared across threads so
    /// their spans merge onto one time line).
    #[must_use]
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result with the span's id
    /// (`None` while disabled).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self, Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        let result = f(self, Some(id));
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        result
    }

    /// Runs the leaf call `f` inside a span and returns its result with the
    /// call's wall time in ns (measured whether or not spans are recorded).
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let result = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        if self.enabled {
            self.spans.push(Span {
                name,
                op_id,
                parent,
                start_ns,
                end_ns,
            });
        }
        (result, end_ns - start_ns)
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another tracer's spans in, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","op_id":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                span.name, span.op_id, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover (overlapping children are not counted twice).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Sum of `values[i]` over the spans named `name`, in ms.
#[must_use]
pub fn total_ms(spans: &[Span], values_ns: &[u64], name: &str) -> f64 {
    spans
        .iter()
        .zip(values_ns)
        .filter(|(span, _)| span.name == name)
        .map(|(_, ns)| *ns as f64 / 1e6)
        .sum()
}

/// Durations, in ms, of the spans named `name`.
#[must_use]
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| span.duration_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op_id: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 25, 50),  // overlaps `a` by 5
            span("c", Some(0), 90, 120), // runs past its parent: clipped
            span("a.inner", Some(1), 12, 20),
        ];
        let own = self_times_ns(&spans);
        // op: 100 − ([10,50) = 40) − ([90,100) = 10) = 50
        assert_eq!(own, vec![50, 12, 25, 30, 8]);
        assert_eq!(total_ms(&spans, &own, "a"), 12.0 / 1e6);
        assert_eq!(durations_ms(&spans, "b"), vec![25.0 / 1e6]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_rebases_parents() {
        let origin = Instant::now();
        let mut off = Tracer::new(origin, false);
        assert_eq!(off.span("x", 1, None, |_, id| id), None);
        assert!(off.spans().is_empty());

        let mut a = Tracer::new(origin, true);
        a.span("root", 1, None, |t, root| {
            t.span("child", 1, root, |_, _| ());
        });
        let mut b = Tracer::new(origin, true);
        b.span("root", 2, None, |t, root| {
            t.span("child", 2, root, |_, _| ());
        });
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
