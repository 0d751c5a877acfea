//! The benchmark's own span recorder, used only by the traced run.
//!
//! Spans are recorded around calls into the program's public functions and
//! through the two callback seams ([`crate::seams`]); nothing inside the
//! program is instrumented. Spans live in memory until the run ends, when
//! [`Tracer::summary`] folds them into per-name totals and self times and
//! [`Tracer::write_jsonl`] dumps them whole.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the interval covers, e.g. `session.run` or `vfs.fsync`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Session id, tick id or leg id shared by the spans of one operation.
    pub group: u64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus the time child spans cover, ns.
    pub self_ns: u64,
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span that ends at [`Tracer::close`]; returns its index so
    /// children can name it as their parent.
    pub fn open(&self, name: &'static str, parent: Option<usize>, group: u64) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            group,
        });
        spans.len() - 1
    }

    /// Ends an open span.
    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans()[id].end_ns = end_ns;
    }

    /// Records a span whose bounds were measured by the caller.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        group: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans().push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            group,
        });
    }

    /// Totals and self times per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        summarize(&self.spans())
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{}}}",
                s.name, s.start_ns, s.end_ns, s.group
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Folds spans into per-name totals. A span's self time is its duration
/// minus the part of it that its children cover (children on other threads
/// may overlap each other; the union is subtracted once).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered(kids, s.start_ns, s.end_ns).min(dur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("pull", 10, 30, Some(0)),
            // Overlaps the first child: counted once.
            span("write", 20, 40, Some(0)),
            // Sticks out past the parent's end: clipped.
            span("write", 90, 120, Some(0)),
        ];
        let s = summarize(&spans);
        assert_eq!(
            s["run"],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 100 - 30 - 10
            }
        );
        assert_eq!(s["write"].count, 2);
        assert_eq!(s["write"].self_ns, 50);
    }
}
