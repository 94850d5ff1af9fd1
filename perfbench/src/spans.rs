//! Span arithmetic over drained `comet_telemetry` records: exclusive (self)
//! time by interval nesting on one thread, and how much of a window other
//! threads' spans cover.

use comet_telemetry::SpanRecord;
use std::collections::{BTreeMap, HashMap};

/// One span as a half-open interval in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    pub fn contains(&self, at: u64) -> bool {
        self.start <= at && at < self.end
    }
}

impl From<&SpanRecord> for Span {
    fn from(record: &SpanRecord) -> Self {
        Span {
            name: record.name,
            thread: record.thread,
            start: record.start_us,
            end: record.start_us + record.dur_us,
        }
    }
}

/// Every span named `name`.
pub fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |span| span.name == name)
}

/// Total duration of the spans named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    named(spans, name).map(|span| span.dur()).sum::<u64>() as f64 * 1e-6
}

/// Durations of the spans named `name`, in milliseconds.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    named(spans, name).map(|span| span.dur() as f64 * 1e-3).collect()
}

/// Exclusive time per span name, in microseconds: each span's duration
/// minus the durations of the spans nested directly inside it on the same
/// thread. Spans on different threads never nest.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut by_thread: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
    for span in spans {
        by_thread.entry(span.thread).or_default().push(*span);
    }
    let mut totals: HashMap<&'static str, u64> = HashMap::new();
    for (_, mut thread_spans) in by_thread {
        // Parents sort before the children they enclose.
        thread_spans.sort_by_key(|span| (span.start, std::cmp::Reverse(span.end)));
        let mut own: Vec<u64> = thread_spans.iter().map(Span::dur).collect();
        let mut open: Vec<usize> = Vec::new();
        for (index, span) in thread_spans.iter().enumerate() {
            // Scope guards nest strictly on one thread, so a span that starts
            // before an open span ends lies inside it (the microsecond
            // rounding of the records can nudge ends by a tick).
            while open.last().is_some_and(|&parent| thread_spans[parent].end <= span.start) {
                open.pop();
            }
            if let Some(&parent) = open.last() {
                own[parent] = own[parent].saturating_sub(span.dur());
            }
            open.push(index);
        }
        for (span, own) in thread_spans.iter().zip(own) {
            *totals.entry(span.name).or_default() += own;
        }
    }
    totals
}

/// Microseconds of `window` covered by the union of `intervals` (any thread).
pub fn covered<'a>(window: &Span, intervals: impl Iterator<Item = &'a Span>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .map(|span| (span.start.max(window.start), span.end.min(window.end)))
        .filter(|(start, end)| start < end)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = window.start;
    for (start, end) in clipped {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, thread: u32, start: u64, end: u64) -> Span {
        Span { name, thread, start, end }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = [
            span("plan", 0, 0, 100),
            span("batch", 0, 10, 60),
            span("cell", 0, 20, 30),
            span("cell", 0, 30, 50),
            span("batch", 0, 70, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own["plan"], 100 - 50 - 20);
        assert_eq!(own["batch"], (50 - 10 - 20) + 20);
        assert_eq!(own["cell"], 30);
    }

    #[test]
    fn spans_on_other_threads_do_not_nest() {
        let spans = [span("batch", 0, 0, 100), span("cell", 1, 10, 90)];
        let own = self_times(&spans);
        assert_eq!(own["batch"], 100);
        assert_eq!(own["cell"], 80);
    }

    #[test]
    fn a_child_ending_with_its_parent_still_nests() {
        let spans = [span("batch", 0, 5, 15), span("cell", 0, 8, 15), span("next", 0, 15, 20)];
        let own = self_times(&spans);
        assert_eq!(own["batch"], 3);
        assert_eq!(own["cell"], 7);
        assert_eq!(own["next"], 5);
    }

    #[test]
    fn coverage_is_the_clipped_union() {
        let window = span("batch", 0, 100, 200);
        let cells = [span("cell", 1, 90, 120), span("cell", 2, 110, 130), span("cell", 1, 150, 250)];
        assert_eq!(covered(&window, cells.iter()), 30 + 50);
        assert_eq!(covered(&window, std::iter::empty()), 0);
    }
}
