//! In-memory span recorder for the traced run.
//!
//! The runner opens a span around each of its own calls into a simulator
//! layer. Spans live in memory while the run executes and are written out
//! once it ends, so recording costs a clock read and a short lock per
//! span, never file I/O.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Cell id of spans that belong to the whole run rather than one cell.
pub const RUN_CELL: u32 = 0;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: u32,
    /// Layer boundary the span covers, e.g. `wl.build`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The cell (or tenant) the span worked for; [`RUN_CELL`] for run-wide
    /// work.
    pub cell: u32,
}

impl Span {
    /// Wall-clock duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&self, name: &'static str, parent: Option<u32>, cell: u32) -> u32 {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        id
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&self, id: u32) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        cell: u32,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.begin(name, parent, cell);
        let out = f(id);
        self.end(id);
        out
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panic")
            .clone()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Overlapping children (concurrent work on
/// other threads) count once; a child reaching outside the parent counts
/// only inside it.
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let mut covered: Vec<(u64, u64)> = all
        .iter()
        .filter(|s| s.parent == Some(span.id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let mut total = 0u64;
    let mut reach = span.start_ns;
    for (a, b) in covered {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    span.duration_ns() - total
}

/// Sum of self times of every span called `name`, in milliseconds.
pub fn self_ms(name: &str, all: &[Span]) -> f64 {
    all.iter()
        .filter(|s| s.name == name)
        .map(|s| self_time_ns(s, all))
        .sum::<u64>() as f64
        / 1e6
}

/// Sum of durations of every span called `name`, in milliseconds.
pub fn total_ms(name: &str, all: &[Span]) -> f64 {
    all.iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum::<u64>() as f64
        / 1e6
}

/// Writes spans as JSON lines after a header line carrying `provenance`
/// (already a JSON object).
pub fn write_jsonl(path: &Path, provenance: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{provenance}")?;
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"cell\": {}, \"self_ns\": {}}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            parent,
            s.cell,
            self_time_ns(s, spans)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name: "t",
            start_ns,
            end_ns,
            parent,
            cell: RUN_CELL,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > child [10,60) > grandchild [20,50)
        let all = [
            span(0, 0, 100, None),
            span(1, 10, 60, Some(0)),
            span(2, 20, 50, Some(1)),
        ];
        assert_eq!(self_time_ns(&all[0], &all), 50);
        assert_eq!(self_time_ns(&all[1], &all), 20);
        assert_eq!(self_time_ns(&all[2], &all), 30);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent children [10,50) and [30,70) cover [10,70).
        let all = [
            span(0, 0, 100, None),
            span(1, 10, 50, Some(0)),
            span(2, 30, 70, Some(0)),
            span(3, 80, 90, Some(0)),
        ];
        assert_eq!(self_time_ns(&all[0], &all), 100 - 60 - 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let all = [
            span(0, 10, 50, None),
            span(1, 0, 20, Some(0)),
            span(2, 40, 90, Some(0)),
        ];
        assert_eq!(self_time_ns(&all[0], &all), 40 - 10 - 10);
    }

    #[test]
    fn recorder_nests_and_aggregates() {
        let rec = Recorder::default();
        rec.span("outer", None, RUN_CELL, |outer| {
            rec.span("inner", Some(outer), 3, |_| std::hint::black_box(1 + 1));
        });
        let all = rec.spans();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[1].cell, 3);
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        let outer = total_ms("outer", &all);
        let parts = self_ms("outer", &all) + total_ms("inner", &all);
        assert!((outer - parts).abs() < 1e-9);
    }
}
