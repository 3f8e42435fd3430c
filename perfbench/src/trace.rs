//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (seconds since the trace began)
//! and the span that caused it. Spans are kept in memory and written out
//! once, when the traced run ends.

use std::time::Instant;

use htp_server::json::{obj, Json};

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a finished span and returns its id.
    pub fn record(&mut self, name: &str, parent: Option<usize>, start: f64, end: f64) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Records a span between two instants (for spans timed on other
    /// threads).
    pub fn record_between(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (s, e) = (self.at(start), self.at(end));
        self.record(name, parent, s, e)
    }

    /// Opens a span ending at [`Trace::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.at(Instant::now());
        self.record(name, parent, now, now)
    }

    /// Closes a span opened by [`Trace::open`] and returns its duration.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end = self.at(Instant::now());
        self.duration(id)
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// The first span named `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    pub fn duration(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Ids of the spans `parent` caused directly.
    pub fn children(&self, parent: usize) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(parent))
            .collect()
    }

    /// The part of `id`'s interval its children cover (overlapping
    /// children counted once).
    pub fn child_coverage(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let intervals: Vec<(f64, f64)> = self
            .children(id)
            .into_iter()
            .map(|c| {
                (
                    self.spans[c].start.max(s.start),
                    self.spans[c].end.min(s.end),
                )
            })
            .collect();
        union_length(&intervals)
    }

    /// Duration minus child coverage.
    pub fn self_time(&self, id: usize) -> f64 {
        self.duration(id) - self.child_coverage(id)
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration(i))
            .sum()
    }

    /// Every span with its self time, one JSON document.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    obj(vec![
                        ("id", Json::Num(i as f64)),
                        ("name", Json::Str(s.name.clone())),
                        ("start", Json::Num(s.start)),
                        ("end", Json::Num(s.end)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self", Json::Num(self.self_time(i))),
                    ])
                })
                .collect(),
        )
    }
}

/// Length of the union of `[start, end]` intervals; empty or inverted
/// intervals count nothing.
pub fn union_length(intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in v {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn union_merges_overlaps_and_skips_empty_intervals() {
        assert_eq!(union_length(&[]), 0.0);
        assert!((union_length(&[(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) - 3.0).abs() < EPS);
        assert!((union_length(&[(3.0, 4.0), (0.0, 1.0), (0.2, 0.4)]) - 2.0).abs() < EPS);
        assert_eq!(union_length(&[(2.0, 2.0), (5.0, 1.0)]), 0.0);
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let mut t = Trace::new();
        let root = t.record("run", None, 0.0, 10.0);
        t.record("a", Some(root), 1.0, 3.0);
        t.record("b", Some(root), 3.0, 7.0);
        assert!((t.self_time(root) - 4.0).abs() < EPS);
        assert!((t.self_time(1) - 2.0).abs() < EPS);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two concurrent client requests under one stream span.
        let mut t = Trace::new();
        let root = t.record("stream", None, 0.0, 10.0);
        t.record("request", Some(root), 0.0, 6.0);
        t.record("request", Some(root), 2.0, 8.0);
        assert!((t.child_coverage(root) - 8.0).abs() < EPS);
        assert!((t.self_time(root) - 2.0).abs() < EPS);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut t = Trace::new();
        let root = t.record("run", None, 2.0, 4.0);
        t.record("early", Some(root), 0.0, 3.0);
        t.record("late", Some(root), 3.5, 9.0);
        assert!((t.child_coverage(root) - 1.5).abs() < EPS);
        assert!((t.self_time(root) - 0.5).abs() < EPS);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_root() {
        let mut t = Trace::new();
        let root = t.record("run", None, 0.0, 10.0);
        let child = t.record("vcycle", Some(root), 0.0, 8.0);
        t.record("solve", Some(child), 1.0, 6.0);
        assert!((t.self_time(root) - 2.0).abs() < EPS);
        assert!((t.self_time(child) - 3.0).abs() < EPS);
        assert!((t.total("solve") - 5.0).abs() < EPS);
    }

    #[test]
    fn timed_spans_nest_and_measure() {
        let mut t = Trace::new();
        let root = t.open("run", None);
        let child = t.open("sleep", Some(root));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let d = t.close(child);
        let total = t.close(root);
        assert!(d >= 0.005 && total >= d);
        assert!(t.self_time(root) >= 0.0);
        assert_eq!(t.children(root), vec![1]);
    }
}
