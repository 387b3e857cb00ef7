//! Spans for the traced run, kept in memory and written out at the end.
//!
//! A span is one timed call into a layer: a name, a start and an end on
//! one wall clock, the span that was open when it started (its parent),
//! and a trace id shared by every span under the same root, so all the
//! spans of one home or one transaction can be pulled out together.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::quote;
use crate::stats::Timing;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was timed, e.g. `home.run`.
    pub name: &'static str,
    /// Shared by every span under the same root span.
    pub trace: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans into memory.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
    traces: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), traces: 0 }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        let parent = self.open.last().copied();
        let trace = match parent {
            Some(p) => self.spans[p].trace,
            None => {
                self.traces += 1;
                self.traces
            }
        };
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, trace, parent, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// Run `f` as a span named `name`, nested in the innermost open span
    /// (or as the root of a new trace). `f` gets the tracer back so it
    /// can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let start = Instant::now();
        let id = self.push(name, start, start);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Record a span timed elsewhere, e.g. around an `.await` inside a
    /// `block_on`, nested in the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.push(name, start, end);
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    }
}

/// Each span's self time, ns: its duration minus the part of its
/// interval that its direct children cover. Children that overlap each
/// other (concurrent calls) are counted once; the parts of a child
/// outside its parent are ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in kids {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One row per span name, in first-seen order: count, total and self
/// time in ms, and the p50 and tail percentile of the durations in µs.
pub fn table(spans: &[Span]) -> String {
    let self_ns = self_times(spans);
    let mut names: Vec<&'static str> = Vec::new();
    for s in spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    let mut out = format!(
        "{:<30} {:>7} {:>11} {:>11} {:>11} {:>16}\n",
        "span", "count", "total ms", "self ms", "p50 us", "tail us"
    );
    for name in names {
        let mine: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].name == name).collect();
        let total: u64 = mine.iter().map(|&i| spans[i].duration_ns()).sum();
        let own: u64 = mine.iter().map(|&i| self_ns[i]).sum();
        let durations: Vec<f64> =
            mine.iter().map(|&i| spans[i].duration_ns() as f64 / 1e3).collect();
        let t = Timing::of(&durations);
        let tail = t.tail.map_or("-".to_string(), |(p, v)| format!("p{p} {v:.1}"));
        let _ = writeln!(
            out,
            "{name:<30} {:>7} {:>11.2} {:>11.2} {:>11.1} {tail:>16}",
            t.n,
            total as f64 / 1e6,
            own as f64 / 1e6,
            t.p50
        );
    }
    out
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let self_ns = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, own)) in spans.iter().zip(self_ns).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": {}, \"trace\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
            quote(s.name),
            s.trace,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, trace: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        let spans = vec![
            span("root", None, 0, 100),
            // Two children overlapping each other on [20, 30).
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            // A grandchild: covers part of `a`, not of the root again.
            span("a.inner", Some(1), 12, 18),
            // A child running past its parent's end counts only inside it.
            span("c", Some(0), 90, 130),
        ];
        let own = self_times(&spans);
        // Root: 100 − |[10, 50) ∪ [90, 100)| = 100 − 50.
        assert_eq!(own[0], 50);
        assert_eq!(own[1], 20 - 6);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 6);
        assert_eq!(own[4], 40);
    }

    #[test]
    fn tracer_nests_spans_and_shares_trace_ids() {
        let mut t = Tracer::new();
        t.span("home", |t| {
            t.span("tokio.reset", |_| ());
            t.span("home.run", |t| {
                let now = Instant::now();
                t.record("client.vod", now, now);
            });
        });
        t.span("home", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s[..4].iter().all(|x| x.trace == s[0].trace));
        assert_ne!(s[4].trace, s[0].trace);
        assert!(s.iter().all(|x| x.start_ns <= x.end_ns));
        assert!(s[0].end_ns >= s[2].end_ns);
        assert!(table(s).contains("home.run"));
    }
}
