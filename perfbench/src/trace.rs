//! In-memory spans for the traced replay.
//!
//! A span is a named interval with the span that caused it. Calls made
//! once per cutset or per model class would flood the record with
//! hundreds of thousands of intervals, so they are kept as aggregates:
//! one total and one count per name under their parent. Nothing is
//! written until the run ends.

use std::time::{Duration, Instant};

/// Identifies a span in a [`Trace`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start: Duration,
    end: Duration,
}

#[derive(Debug, Clone)]
struct Aggregate {
    name: &'static str,
    parent: SpanId,
    total: Duration,
    count: u64,
}

/// A span record relative to the moment the trace began.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace starting now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    /// Open a span under `parent`; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Close `span` now.
    pub fn close(&mut self, span: SpanId) {
        self.spans[span].end = self.origin.elapsed();
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Add one occurrence of an aggregated child span of `parent`.
    pub fn add(&mut self, name: &'static str, parent: SpanId, elapsed: Duration) {
        match self
            .aggregates
            .iter_mut()
            .find(|a| a.name == name && a.parent == parent)
        {
            Some(a) => {
                a.total += elapsed;
                a.count += 1;
            }
            None => self.aggregates.push(Aggregate {
                name,
                parent,
                total: elapsed,
                count: 1,
            }),
        }
    }

    /// Time `f` as one occurrence of the aggregated span `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let begin = Instant::now();
        let out = f();
        self.add(name, parent, begin.elapsed());
        out
    }

    /// Wall-clock of a span.
    pub fn duration(&self, span: SpanId) -> Duration {
        self.spans[span].end.saturating_sub(self.spans[span].start)
    }

    /// A span's duration minus the part of its interval that its child
    /// spans cover (overlapping children count once, and a child
    /// reaching outside the parent counts only inside it), minus its
    /// aggregated children, which run sequentially inside it.
    pub fn self_time(&self, span: SpanId) -> Duration {
        let parent = &self.spans[span];
        let mut children: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort();
        let mut covered = Duration::ZERO;
        let mut reach = parent.start;
        for (start, end) in children {
            let from = start.max(reach);
            if end > from {
                covered += end - from;
                reach = end;
            }
        }
        let aggregated: Duration = self
            .aggregates
            .iter()
            .filter(|a| a.parent == span)
            .map(|a| a.total)
            .sum();
        self.duration(span)
            .saturating_sub(covered)
            .saturating_sub(aggregated)
    }

    /// Total time of every span and aggregate called `name`.
    pub fn total(&self, name: &str) -> Duration {
        let spans: Duration = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| self.duration(i))
            .sum();
        let aggregates: Duration = self
            .aggregates
            .iter()
            .filter(|a| a.name == name)
            .map(|a| a.total)
            .sum();
        spans + aggregates
    }

    /// Every span with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = SpanId> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    /// One line per span and aggregate, parents before children, for the
    /// record written when the run ends.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "span {i} {} parent={} start={:.6} end={:.6} self={:.6}\n",
                s.name,
                s.parent.map_or("-".to_owned(), |p| p.to_string()),
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                self.self_time(i).as_secs_f64(),
            ));
        }
        for a in &self.aggregates {
            out.push_str(&format!(
                "aggregate {} parent={} total={:.6} count={}\n",
                a.name,
                a.parent,
                a.total.as_secs_f64(),
                a.count
            ));
        }
        out
    }

    #[cfg(test)]
    fn with_spans(spans: &[(&'static str, Option<SpanId>, u64, u64)]) -> Trace {
        let mut trace = Trace::new();
        for &(name, parent, start, end) in spans {
            trace.spans.push(Span {
                name,
                parent,
                start: Duration::from_millis(start),
                end: Duration::from_millis(end),
            });
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let t = Trace::with_spans(&[
            ("root", None, 0, 100),
            ("a", Some(0), 10, 30),
            ("b", Some(0), 50, 60),
        ]);
        assert_eq!(t.self_time(0), ms(70));
        assert_eq!(t.self_time(1), ms(20));
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let t = Trace::with_spans(&[
            ("root", None, 10, 100),
            ("a", Some(0), 20, 50),
            ("b", Some(0), 40, 70),
            ("c", Some(0), 0, 15),
            ("d", Some(0), 95, 120),
        ]);
        // Covered: [20,70) = 50, [10,15) = 5, [95,100) = 5.
        assert_eq!(t.self_time(0), ms(30));
    }

    #[test]
    fn self_time_ignores_grandchildren_and_subtracts_aggregates() {
        let mut t = Trace::with_spans(&[
            ("root", None, 0, 100),
            ("a", Some(0), 0, 40),
            ("a.inner", Some(1), 5, 35),
        ]);
        t.add("hot", 0, ms(15));
        t.add("hot", 0, ms(5));
        assert_eq!(t.self_time(0), ms(40));
        assert_eq!(t.self_time(1), ms(10));
        assert_eq!(t.total("hot"), ms(20));
        assert_eq!(t.total("a"), ms(40));
    }
}
