//! Host-time spans recorded around the benchmark's calls into the
//! program's public API. Spans live in memory and are written out when
//! the run ends; a disabled tracer records nothing and reads no clock.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that was open when this
/// one started, so nested spans form a tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// The span's index, if the tracer was on when it opened.
    pub fn index(self) -> Option<usize> {
        self.0
    }
}

pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off; spans already open are unaffected.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(
            top,
            Some(idx),
            "spans must close in reverse order of opening"
        );
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tab-separated dump: index, parent, name, start and end in ns.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("idx\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover. Children of one parent never overlap (they
/// nest on one stack), so the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// Indices of `root` and every span below it.
pub fn subtree(spans: &[Span], root: usize) -> Vec<usize> {
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    let mut out = vec![root];
    // Children always come after their parent, so one forward pass sees
    // every ancestor before its descendants.
    for (i, s) in spans.iter().enumerate().skip(root + 1) {
        if s.parent.is_some_and(|p| inside[p]) {
            inside[i] = true;
            out.push(i);
        }
    }
    out
}

/// Per-name totals over a set of spans: (name, calls, self ns, total ns),
/// in first-seen order.
pub fn layer_table(spans: &[Span], idx: &[usize]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for &i in idx {
        let s = &spans[i];
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += selfs[i];
                r.3 += s.dur_ns();
            }
            None => rows.push((s.name, 1, selfs[i], s.dur_ns())),
        }
    }
    rows
}

/// Summed self time of the spans in `idx` named `name`.
pub fn self_ns_of(spans: &[Span], idx: &[usize], name: &str) -> u64 {
    layer_table(spans, idx)
        .iter()
        .find(|r| r.0 == name)
        .map_or(0, |r| r.2)
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
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) has children a [10,40) and b [50,90); a has a
        // grandchild c [15,25) that must not be subtracted from root.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("c", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a subtree add up to the root's duration.
        let all = subtree(&spans, 0);
        let table = layer_table(&spans, &all);
        assert_eq!(table.iter().map(|r| r.2).sum::<u64>(), 100);
        assert_eq!(self_ns_of(&spans, &all, "b"), 40);
        assert_eq!(self_ns_of(&spans, &all, "missing"), 0);
    }

    #[test]
    fn layer_table_groups_repeated_names() {
        let spans = vec![
            span("rep", 0, 50, None),
            span("run", 0, 10, Some(0)),
            span("run", 20, 35, Some(0)),
            span("other", 60, 70, None),
        ];
        let table = layer_table(&spans, &subtree(&spans, 0));
        assert_eq!(table, vec![("rep", 1, 25, 50), ("run", 2, 25, 25)]);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].dur_ns() >= t.spans()[1].dur_ns());

        let mut off = Tracer::new(false);
        let o = off.enter("outer");
        off.span("inner", || ());
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
