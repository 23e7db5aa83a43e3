//! In-memory spans for the traced replay: name, start, end, parent and
//! the id of the request or delta that caused them. Spans are recorded
//! around calls into the program's public functions from the
//! benchmark's own code, kept in memory, and written out at exit.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer boundary, e.g. `service.planner.answer_line`.
    pub name: &'static str,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The request or delta this span belongs to.
    pub id: u64,
}

impl Span {
    /// The span's wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. All recorders of one traced run share an origin, so
/// spans from different threads merge onto one time line.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace measured from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A recorder that records nothing: the untraced comparison run
    /// goes through the same code with only a branch per span.
    pub fn disabled(origin: Instant) -> Self {
        Self {
            enabled: false,
            ..Self::new(origin)
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index, to be passed to
    /// [`Tracer::close`] and as the parent of nested spans.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Closes the span at `index`.
    pub fn close(&mut self, index: usize) {
        if self.enabled {
            self.spans[index].end_ns = self.now();
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, id);
        let out = f();
        self.close(span);
        out
    }

    /// Records an already-measured interval.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, id: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            id,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans in, re-basing their parent indices.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span's self time, by name: `(self_ns, id)` per span.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<(u64, u64)>> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(selfs) {
            out.entry(span.name).or_default().push((own, span.id));
        }
        out
    }

    /// The spans as tab-separated lines: name, id, start, end, parent.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("name\tid\tstart_ns\tend_ns\tparent\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{parent}\n",
                s.name, s.id, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Each span's duration minus the part of its interval that its
/// children cover. Overlapping children count once; a child reaching
/// outside its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 35, 40, Some(0)),
        ];
        // Children cover 10..60 = 50 ns.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span("root", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 190, 250, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 70);
        // A parent fully covered has no self time.
        let spans = [span("root", 0, 10, None), span("all", 0, 10, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 10]);
    }

    #[test]
    fn merge_rebases_parents_and_groups_by_name() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.open("root", None, 1);
        a.time("child", Some(root), 1, || ());
        a.close(root);
        let mut b = Tracer::new(origin);
        let root = b.open("root", None, 2);
        b.time("child", Some(root), 2, || ());
        b.close(root);
        a.merge(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        let by_name = a.self_times();
        assert_eq!(by_name["root"].len(), 2);
        assert_eq!(
            by_name["child"]
                .iter()
                .map(|(_, id)| *id)
                .collect::<Vec<_>>(),
            [1, 2]
        );
        assert!(a.to_tsv().lines().count() == 5);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled(Instant::now());
        let root = t.open("root", None, 1);
        assert_eq!(t.time("child", Some(root), 1, || 7), 7);
        t.close(root);
        t.record("x", 1, 2, 3);
        assert!(t.spans().is_empty());
    }
}
