//! In-memory spans recorded around calls into each layer, and the self
//! time arithmetic the per-layer metrics are built from.

use std::time::Instant;

/// One timed call: nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The request the span belongs to.
    pub request: u32,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans of one run, kept in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses later ones; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, request: u32, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.now();
    }

    /// Run `call` inside a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, request, parent);
        let out = call();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children that
/// overlap each other are not counted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let outer = &spans[parent];
            let start = span.start.max(outer.start);
            let end = span.end.min(outer.end);
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| span.duration() - covered(intervals))
        .collect()
}

/// Length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// For every root span named `root`: its duration and the sum of the self
/// times of all spans in its tree. The two agree when children nest
/// inside their parents without overlapping, which is what the per-layer
/// decomposition claims.
pub fn tree_balance(spans: &[Span], self_ns: &[u64], root: &str) -> Vec<(u64, u64)> {
    let mut sums: Vec<u64> = self_ns.to_vec();
    // Children follow their parents in recording order, so one reverse
    // pass folds every subtree into its root.
    for (index, span) in spans.iter().enumerate().rev() {
        if let Some(parent) = span.parent {
            sums[parent] += sums[index];
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, span)| span.parent.is_none() && span.name == root)
        .map(|(index, span)| (span.duration(), sums[index]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn nested_children_leave_the_gap_as_self_time() {
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(1), 20, 30),
            span("c", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let self_ns = self_times(&spans);
        assert_eq!(tree_balance(&spans, &self_ns, "request"), vec![(100, 100)]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 40, 80),
        ];
        let self_ns = self_times(&spans);
        // The children cover 10..80 together.
        assert_eq!(self_ns, vec![30, 50, 40]);
        // Overlap makes the self times add up to more than the request.
        assert_eq!(tree_balance(&spans, &self_ns, "request"), vec![(100, 120)]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("request", None, 10, 50),
            span("late", Some(0), 40, 70),
            span("request", None, 100, 110),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10]);
    }

    #[test]
    fn only_named_roots_are_balanced() {
        let spans = vec![
            span("request", None, 0, 10),
            span("parser.lexicon", None, 10, 30),
            span("request", None, 30, 45),
            span("a", Some(2), 31, 35),
        ];
        let self_ns = self_times(&spans);
        assert_eq!(
            tree_balance(&spans, &self_ns, "request"),
            vec![(10, 10), (15, 15)]
        );
    }

    #[test]
    fn recorder_nests_spans_in_order() {
        let mut recorder = Recorder::new();
        let root = recorder.open("request", 7, None);
        let value = recorder.time("leaf", 7, Some(root), || 41 + 1);
        recorder.close(root);
        assert_eq!(value, 42);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let self_ns = self_times(spans);
        let balance = tree_balance(spans, &self_ns, "request");
        assert_eq!(balance[0].0, balance[0].1);
    }
}
