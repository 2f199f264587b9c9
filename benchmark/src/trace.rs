//! Span recorder for the traced run (choosing-metrics §4): spans are kept
//! in memory, written out as JSON lines when the run ends, and reduced to
//! per-name totals with self time = duration minus the part of the
//! interval the span's direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` 0 means a root span; ids start at 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the span covered (reads, bytes, jobs — per span name).
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[must_use]
pub struct Open(u32);

/// Records spans on the calling thread. A disabled tracer hands out
/// handles and records nothing, which is how the untraced replay that
/// `trace.overhead_share` compares against runs the same code.
pub struct Tracer {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(0);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            items: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close a span. Spans close in the reverse of the order they opened.
    pub fn end(&mut self, open: Open, items: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        let span = &mut self.spans[open.0 as usize - 1];
        span.end_ns = end_ns;
        span.items = items;
    }

    /// Add a span measured elsewhere (a client thread's request), as a
    /// child of the innermost open span. Such children may overlap.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, items: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name,
            start_ns,
            end_ns,
            items,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"workload\": \"{}\", \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"items\": {}}}",
                s.id, s.parent, workload, s.name, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// union of its direct children's intervals (clipped to the span, so
/// overlapping children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(b, e) in kids.iter() {
                let b = b.max(reach);
                let e = e.min(s.end_ns);
                if e > b {
                    covered += e - b;
                    reach = e;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
    pub items: u64,
}

impl Total {
    pub fn dur_s(&self) -> f64 {
        self.dur_ns as f64 / 1e9
    }
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += self_ns;
        t.items += s.items;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            items: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100, child 10..40 with grandchild 20..30, child 50..70
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 2, 20, 30),
            span(4, 1, 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // children 10..60 and 40..90 overlap by 20; one pokes past the end
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 1, 40, 90),
            span(4, 1, 95, 120),
        ];
        // union = 10..90 (80) + 95..100 (5)
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let a = t.begin("outer");
        let b = t.begin("inner");
        t.end(b, 3);
        t.record("foreign", 1, 2, 1);
        t.end(a, 7);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (0, 1, 1));
        assert_eq!((s[0].items, s[1].items), (7, 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let tot = totals(s);
        assert_eq!(tot["outer"].count, 1);

        let mut off = Tracer::new(false);
        let a = off.begin("outer");
        off.end(a, 1);
        assert!(off.spans().is_empty());
    }
}
