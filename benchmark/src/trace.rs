//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Each benchmark thread owns a [`Tracer`]. A span has a name, a start, an
//! end and the span that was open when it began (its parent). Spans stay in
//! memory; [`write_chrome_trace`] writes them when the run ends. Operations
//! are folded into per-name self times as they finish ([`Tracer::finish_op`]),
//! and once [`RETAINED_SPANS`] spans are held, later operations are folded and
//! then discarded so a long run's memory stays bounded.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans kept in memory for the trace file; beyond this, operations are only
/// folded into their self times.
pub const RETAINED_SPANS: usize = 50_000;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin across
    /// threads so their spans line up in the trace file).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx`, which must be the innermost open one, and return its
    /// duration.
    pub fn end(&mut self, idx: usize) -> Duration {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        Duration::from_nanos(span.duration_ns())
    }

    /// Record `f` as one span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    /// Mark the start of an operation; pass the mark to [`Tracer::finish_op`].
    pub fn mark(&self) -> usize {
        assert!(
            self.open.is_empty(),
            "operations must not nest in open spans"
        );
        self.spans.len()
    }

    /// Self time per span name of the spans recorded since `mark`. The spans
    /// stay for the trace file while fewer than [`RETAINED_SPANS`] are held.
    pub fn finish_op(&mut self, mark: usize) -> BTreeMap<&'static str, Duration> {
        assert!(self.open.is_empty(), "finish_op with a span still open");
        let folded = self_time_by_name(&self.spans[mark..], mark);
        if self.spans.len() > RETAINED_SPANS {
            self.dropped += (self.spans.len() - mark) as u64;
            self.spans.truncate(mark);
        }
        folded
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans folded and discarded because the retention cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of each span: its duration minus the part of its interval that
/// its child spans cover. `spans[i].parent` indices are offset by `base`
/// (the index of `spans[0]` in its tracer); parents outside the slice are
/// ignored.
pub fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            if p < spans.len() {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            // Union of the children's intervals, clipped to the parent's.
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name (see [`self_times`]).
pub fn self_time_by_name(spans: &[Span], base: usize) -> BTreeMap<&'static str, Duration> {
    let mut totals: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans, base)) {
        *totals.entry(s.name).or_default() += Duration::from_nanos(own);
    }
    totals
}

/// Per-name samples of per-operation self times, in milliseconds.
#[derive(Debug, Default)]
pub struct LayerSamples(BTreeMap<&'static str, Vec<f64>>);

impl LayerSamples {
    pub fn add(&mut self, folded: &BTreeMap<&'static str, Duration>) {
        for (&name, &d) in folded {
            self.0.entry(name).or_default().push(crate::stats::ms(d));
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Write the spans of each `(thread name, tracer)` as a Chrome trace
/// (`chrome://tracing`, Perfetto).
pub fn write_chrome_trace(path: &Path, threads: &[(&str, &Tracer)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"traceEvents\":[")?;
    let mut first = true;
    for (tid, (thread, tracer)) in threads.iter().enumerate() {
        let sep = if first { "" } else { ",\n" };
        first = false;
        write!(
            out,
            "{sep}{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{thread}\",\"dropped_spans\":{}}}}}",
            tracer.dropped()
        )?;
        for s in tracer.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3
            )?;
        }
    }
    writeln!(out, "\n]}}")?;
    out.flush()
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
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0, 100) with children [10, 30) and [50, 90); the second child
        // has its own child [60, 70).
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans, 0), vec![40, 20, 30, 10]);
        let by_name = self_time_by_name(&spans, 0);
        assert_eq!(by_name["root"], Duration::from_nanos(40));
        assert_eq!(by_name["b"], Duration::from_nanos(30));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 40, Some(0)),
            span("x", 30, 60, Some(0)),
            span("x", 90, 120, Some(0)),
        ];
        // Covered: [10, 60) and [90, 100) = 60 of 100.
        assert_eq!(self_times(&spans, 0)[0], 40);
        assert_eq!(self_time_by_name(&spans, 0)["x"], Duration::from_nanos(90));
    }

    #[test]
    fn self_times_honor_the_slice_offset() {
        let spans = [span("op", 500, 600, None), span("child", 510, 590, Some(7))];
        assert_eq!(self_times(&spans, 7), vec![20, 80]);
    }

    #[test]
    fn tracer_nests_and_folds_operations() {
        let mut t = Tracer::new(Instant::now());
        let mark = t.mark();
        let root = t.begin("root");
        let inner = t.span("inner", || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        let total = t.end(root);
        assert_eq!(inner, 7);
        assert_eq!(t.spans()[1].parent, Some(0));
        let folded = t.finish_op(mark);
        assert!(folded["inner"] >= Duration::from_millis(2));
        assert_eq!(folded["root"] + folded["inner"], total);
        assert_eq!(t.spans().len(), 2, "under the cap, spans are retained");
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new(Instant::now());
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
