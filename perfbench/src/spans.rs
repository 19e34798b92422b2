//! The traced run's span recorder: in-memory spans with parent links,
//! written out at the end, and per-name self time.
//!
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover (overlapping children count once).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id within the recorder.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `hpclog.extract`.
    pub name: &'static str,
    /// The request or step this span belongs to.
    pub step: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
    /// Open spans: (id, name, step, start_ns).
    stack: RefCell<Vec<(u64, &'static str, u64, u64)>>,
    next_id: RefCell<u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_id: RefCell::new(1),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, tagged with `step` (one id per request or pipeline step).
    pub fn span<T>(&self, name: &'static str, step: u64, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut next = self.next_id.borrow_mut();
            let id = *next;
            *next += 1;
            id
        };
        let start = self.now_ns();
        self.stack.borrow_mut().push((id, name, step, start));
        let out = f();
        let end = self.now_ns();
        let (id, name, step, start_ns) = self
            .stack
            .borrow_mut()
            .pop()
            .expect("span stack is balanced by construction");
        let parent = self.stack.borrow().last().map(|s| s.0);
        self.spans.borrow_mut().push(SpanRec {
            id,
            parent,
            name,
            step,
            start_ns,
            end_ns: end.max(start_ns),
        });
        out
    }

    /// Every finished span, in finishing order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.borrow().clone()
    }

    /// The finished spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"step\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.step, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.clamp(cursor, hi);
        let end = end.clamp(lo, hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Per-name self time and span count: `name → (self_ns, count)`.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns);
        let slot = out.entry(s.name).or_default();
        slot.0 += own;
        slot.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            step: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            rec(2, Some(1), "child", 10, 30),
            rec(3, Some(1), "child", 50, 60),
            rec(1, None, "root", 0, 100),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (70, 1));
        assert_eq!(t["child"], (30, 2));
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            rec(2, Some(1), "a", 10, 40),
            rec(3, Some(1), "b", 30, 50),
            rec(4, Some(1), "c", 90, 130),
            rec(1, None, "root", 0, 100),
        ];
        // Children cover [10, 50) and [90, 100) of the root.
        assert_eq!(self_times(&spans)["root"], (50, 1));
    }

    #[test]
    fn grandchildren_only_reduce_their_parent() {
        let spans = vec![
            rec(3, Some(2), "leaf", 20, 30),
            rec(2, Some(1), "mid", 10, 40),
            rec(1, None, "root", 0, 50),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (20, 1));
        assert_eq!(t["mid"], (20, 1));
        assert_eq!(t["leaf"], (10, 1));
    }

    #[test]
    fn recorder_links_parents_and_steps() {
        let r = Recorder::new();
        r.span("outer", 7, || r.span("inner", 7, || ()));
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(r.to_jsonl().lines().count(), 2);
    }
}
