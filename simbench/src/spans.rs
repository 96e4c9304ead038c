//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span holds a name, a start and an end (nanoseconds since the
//! tracer started), its parent span and the id of the job it belongs
//! to; all spans of one job share that id. Spans stay in memory and
//! are written out once, when the run ends. A disabled tracer runs the
//! closure and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Job (or group) id shared by all spans of one job.
    pub id: u32,
    /// Layer call the span wraps, e.g. `sim.engine.run`.
    pub name: &'static str,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs closures.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// True if the tracer records spans.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span `name` of job `id`; spans opened inside
    /// `f` (through the tracer it receives) become its children.
    pub fn span<R>(&mut self, id: u32, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            id,
            name,
            parent: self.open.last().copied(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines (`id`, `name`, `parent`,
    /// `start_ns`, `end_ns`, `self_ns`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children of one parent never overlap (the benchmark
/// is single-threaded), so that part is the sum of their durations.
/// Saturates at zero; [`nesting_errors`] reports spans that would not.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Spans that break nesting: a child outside its parent's interval, a
/// parent that is not an earlier span, or a span whose children cover
/// more time than it lasted (a negative self time).
pub fn nesting_errors(spans: &[Span]) -> Vec<usize> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut bad = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            bad.push(i);
            continue;
        }
        if let Some(p) = s.parent {
            let ok = p < i
                && spans[p].start_ns <= s.start_ns
                && s.end_ns <= spans[p].end_ns
                && spans[p].id == s.id;
            if !ok {
                bad.push(i);
            }
            child_ns[p] += s.dur_ns();
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns >= s.start_ns && child_ns[i] > s.dur_ns() {
            bad.push(i);
        }
    }
    bad.sort_unstable();
    bad.dedup();
    bad
}

/// Summed self time per span name, in seconds.
pub fn self_secs_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(n: u64) -> u64 {
        (0..n).fold(0u64, |a, x| a.wrapping_add(std::hint::black_box(x)))
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span(0, "a", |t| t.span(0, "b", |_| 3));
        assert_eq!(v, 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_nest_and_self_time_is_not_negative() {
        let mut t = Tracer::new(true);
        for id in 0..3 {
            t.span(id, "job", |t| {
                busy(1000);
                t.span(id, "child", |t| {
                    busy(1000);
                    t.span(id, "grandchild", |_| busy(1000));
                });
                t.span(id, "child", |_| busy(1000));
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 12);
        assert!(nesting_errors(spans).is_empty());
        let selfs = self_times(spans);
        for (s, own) in spans.iter().zip(&selfs) {
            assert!(*own <= s.dur_ns());
        }
        // Self times add back up to the roots' durations.
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        assert_eq!(selfs.iter().sum::<u64>(), roots);
    }

    #[test]
    fn overlapping_children_are_reported() {
        let mk = |parent, start_ns, end_ns| Span {
            id: 0,
            name: "x",
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![mk(None, 0, 10), mk(Some(0), 0, 8), mk(Some(0), 2, 9)];
        assert_eq!(nesting_errors(&spans), vec![0]);
        let escaped = vec![mk(None, 0, 10), mk(Some(0), 5, 12)];
        assert_eq!(nesting_errors(&escaped), vec![1]);
    }
}
