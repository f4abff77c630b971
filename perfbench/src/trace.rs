//! Benchmark-side tracing: one span around each call into a layer's public
//! functions, kept in memory and written out when the run ends. Spans live
//! here, not in the program — instrumenting the program itself is a later
//! change (ROADMAP item 5) that this file's output will be compared with.
//!
//! A span's *parent* is the span that was open on the same thread when it
//! began (the round, then the epoch), or an explicit one for work handed to
//! another thread. A name's *self time* is its spans' duration minus the
//! part of each interval that child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Start recording (the traced pass). Spans opened while disabled cost one
/// relaxed load and record nothing.
pub fn enable() {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

impl Guard {
    /// The span's id, for parenting work that continues on another thread.
    pub fn id(&self) -> Option<u32> {
        self.0
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let end = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(at) = open.iter().rposition(|&s| s == id) {
                open.truncate(at);
            }
        });
        // A poisoned lock means another thread panicked mid-push; the run
        // is failing anyway and Drop must not panic on top of it.
        if let Ok(mut spans) = SPANS.lock() {
            spans[id as usize].end_ns = end;
        }
    }
}

/// Open a span under whatever span is open on this thread.
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    open_span(name, parent)
}

/// Open a span under an explicit parent (first span of a spawned thread).
pub fn span_under(name: &'static str, parent: Option<u32>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    open_span(name, parent)
}

fn open_span(name: &'static str, parent: Option<u32>) -> Guard {
    let start = now_ns();
    let id = {
        let mut spans = SPANS.lock().expect("span store lock");
        spans.push(Span {
            name,
            parent,
            start_ns: start,
            end_ns: start,
        });
        (spans.len() - 1) as u32
    };
    OPEN.with(|open| open.borrow_mut().push(id));
    Guard(Some(id))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time per span name: duration minus the part of the interval its
/// child spans cover (children on other threads may overlap one another,
/// so coverage is a union, not a sum).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered(kids, s.start_ns, s.end_ns);
    }
    out
}

/// Take every recorded span (clearing the store) and render the trace file:
/// the raw spans plus the per-name self-time table.
pub fn drain_to_json(workload: &str, seed: u64) -> Value {
    let spans = std::mem::take(&mut *SPANS.lock().expect("span store lock"));
    let totals = self_times(&spans);
    let ms = |ns: u64| Value::Num(ns as f64 / 1e6);
    Value::obj(vec![
        ("workload", Value::Str(workload.into())),
        ("seed", Value::Num(seed as f64)),
        (
            "self_time",
            Value::Arr(
                totals
                    .iter()
                    .map(|(name, t)| {
                        Value::obj(vec![
                            ("name", Value::Str((*name).into())),
                            ("count", Value::Num(t.count as f64)),
                            ("total_ms", ms(t.total_ns)),
                            ("self_ms", ms(t.self_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Value::Arr(
                spans
                    .iter()
                    .enumerate()
                    .map(|(id, s)| {
                        Value::obj(vec![
                            ("id", Value::Num(id as f64)),
                            ("name", Value::Str(s.name.into())),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("start_us", Value::Num(s.start_ns as f64 / 1e3)),
                            ("end_us", Value::Num(s.end_ns as f64 / 1e3)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            sp("round", None, 0, 100),
            sp("epoch", Some(0), 10, 60),
            sp("ckpt", Some(1), 20, 30),
            sp("epoch", Some(0), 60, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["round"].self_ns, 100 - 50 - 30);
        assert_eq!(t["epoch"].count, 2);
        assert_eq!(t["epoch"].total_ns, 80);
        assert_eq!(t["epoch"].self_ns, 80 - 10);
        assert_eq!(t["ckpt"].self_ns, 10);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        // Two restorer threads overlap on [20, 40); one outlives the parent.
        let spans = [
            sp("storm", None, 0, 50),
            sp("restore", Some(0), 10, 40),
            sp("restore", Some(0), 20, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t["storm"].self_ns, 10, "covered [10, 50) = 40 of 50");
        assert_eq!(t["restore"].total_ns, 80);
    }

    #[test]
    fn coverage_ignores_empty_and_disjoint_pieces() {
        assert_eq!(covered(vec![], 0, 10), 0);
        assert_eq!(covered(vec![(2, 2), (3, 5), (7, 9)], 0, 10), 4);
        assert_eq!(covered(vec![(0, 20)], 5, 10), 5);
    }
}
