//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public functions
//! in a span: a name, a start and an end (offsets from the recorder's
//! epoch), the span it was called under, and the id of the run that
//! recorded it. Spans stay in memory while the workload runs and are
//! written to a file once it has finished. With tracing off the recorder
//! keeps nothing and [`Recorder::span`] only calls its closure.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.function` name of the wrapped call.
    pub name: &'static str,
    /// Offset of the call's start from the recorder's epoch.
    pub start: Duration,
    /// Offset of the call's end from the recorder's epoch.
    pub end: Duration,
    /// The span this call was made under, if any.
    pub parent: Option<SpanId>,
    /// The run that recorded the span.
    pub run: u64,
}

impl Span {
    /// Wall-clock length of the span.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans for one run; shareable across threads.
pub struct Recorder {
    run: u64,
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// A recorder for run `run`; with `enabled == false` it records
    /// nothing.
    #[must_use]
    pub fn new(run: u64, enabled: bool) -> Self {
        Recorder {
            run,
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id, to pass as the parent of the calls it makes
    /// (`None` when tracing is off).
    ///
    /// # Panics
    ///
    /// Panics if another thread panicked while recording a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let id = {
            let mut spans = spans.lock().expect("span recorder lock");
            spans.push(Span {
                name,
                start: self.epoch.elapsed(),
                end: Duration::ZERO,
                parent,
                run: self.run,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.epoch.elapsed();
        spans.lock().expect("span recorder lock")[id].end = end;
        out
    }

    /// A copy of every span recorded so far, in start order.
    ///
    /// # Panics
    ///
    /// Panics if another thread panicked while recording a span.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.as_ref().map_or_else(Vec::new, |spans| {
            spans.lock().expect("span recorder lock").clone()
        })
    }
}

/// Total duration, in seconds, of the spans named `name`.
#[must_use]
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration().as_secs_f64())
        .fold(0.0, |total, d| total + d)
}

/// Durations, in seconds, of the spans named `name`, in start order.
#[must_use]
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration().as_secs_f64())
        .collect()
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (worker
/// threads run side by side), so their intervals are merged before they
/// are subtracted, and each is clipped to the parent's interval.
#[must_use]
pub fn self_time(spans: &[Span], id: SpanId) -> Duration {
    let parent = &spans[id];
    let mut children: Vec<(Duration, Duration)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(start, end)| start < end)
        .collect();
    children.sort();
    let mut covered = Duration::ZERO;
    let mut open: Option<(Duration, Duration)> = None;
    for (start, end) in children {
        match &mut open {
            Some((_, open_end)) if start <= *open_end => *open_end = (*open_end).max(end),
            _ => {
                if let Some((s, e)) = open {
                    covered += e - s;
                }
                open = Some((start, end));
            }
        }
    }
    if let Some((s, e)) = open {
        covered += e - s;
    }
    parent.duration().saturating_sub(covered)
}

/// Tab-separated dump of `spans`, one per line, with each span's self
/// time: `run id name parent start_s end_s self_s`.
#[must_use]
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("run\tid\tname\tparent\tstart_s\tend_s\tself_s\n");
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{id}\t{}\t{parent}\t{:.9}\t{:.9}\t{:.9}",
            span.run,
            span.name,
            span.start.as_secs_f64(),
            span.end.as_secs_f64(),
            self_time(spans, id).as_secs_f64()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start: ms(start),
            end: ms(end),
            parent,
            run: 7,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("a", 10, 25, None)];
        assert_eq!(self_time(&spans, 0), ms(15));
    }

    #[test]
    fn nested_children_count_only_direct_children() {
        // root 0..100 > child 10..60 > grandchild 20..50.
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 50, Some(1)),
        ];
        assert_eq!(self_time(&spans, 0), ms(50));
        assert_eq!(self_time(&spans, 1), ms(20));
        assert_eq!(self_time(&spans, 2), ms(30));
    }

    #[test]
    fn sibling_children_are_summed() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 0, 30, Some(0)),
            span("b", 40, 70, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), ms(40));
    }

    #[test]
    fn overlapping_children_are_merged_not_double_counted() {
        // Two worker threads side by side plus a later call: covered
        // time is 10..70 and 80..90, not the 30 + 50 + 10 ms sum.
        let spans = [
            span("root", 0, 100, None),
            span("worker", 10, 40, Some(0)),
            span("worker", 20, 70, Some(0)),
            span("finish", 80, 90, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), ms(30));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span("root", 10, 50, None), span("late", 40, 90, Some(0))];
        assert_eq!(self_time(&spans, 0), ms(30));
    }

    #[test]
    fn recorder_links_parents_and_carries_the_run_id() {
        let rec = Recorder::new(42, true);
        let value = rec.span("outer", None, |outer| {
            rec.span("inner", outer, |_| 5) + rec.span("inner", outer, |_| 6)
        });
        assert_eq!(value, 11);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 42 && s.start <= s.end));
        assert!(spans[1].end <= spans[2].start);
        assert_eq!(durations_s(&spans, "inner").len(), 2);
        assert!(total_s(&spans, "outer") >= total_s(&spans, "inner"));
        assert!(to_tsv(&spans).lines().count() == 4);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(1, false);
        assert!(!rec.enabled());
        assert_eq!(rec.span("x", None, |id| id), None);
        assert!(rec.spans().is_empty());
    }
}
