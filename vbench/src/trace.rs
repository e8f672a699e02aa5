//! In-memory span recording around calls into each layer, written out when
//! the run ends.
//!
//! A span is `(name, start, end, parent)`. Spans the benchmark times itself
//! nest strictly (one driving thread); spans derived from the program's
//! `obs` histograms are attached as children of the call they were measured
//! around, placed back to back from the call's start because a histogram
//! delta has a duration but no position. A layer's *self time* is its
//! spans' total duration minus the part covered by their children.
//!
//! Calls too frequent to keep one span each (a push that only enqueues)
//! are folded into per-name aggregates: a count and a total.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Count and total of a folded span class.
#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    calls: u64,
    ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    aggs: BTreeMap<&'static str, (Option<usize>, Agg)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            aggs: BTreeMap::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.ns(Instant::now());
        self.begin_at(name, start_ns)
    }

    pub fn begin_at(&mut self, name: &'static str, start_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        self.end_at(id, end_ns);
    }

    pub fn end_at(&mut self, id: usize, end_ns: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Record a closed span `[start, end)` under the innermost open span.
    pub fn span(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.begin_at(name, start_ns);
        self.end_at(id, end_ns);
        id
    }

    /// Attach `(name, ns)` measured inside span `parent` as its children,
    /// laid back to back from the parent's start.
    pub fn children(&mut self, parent: usize, parts: &[(&'static str, u64)]) {
        let mut at = self.spans[parent].start_ns;
        for &(name, ns) in parts.iter().filter(|p| p.1 > 0) {
            self.spans.push(Span {
                name,
                parent: Some(parent),
                start_ns: at,
                end_ns: at + ns,
            });
            at += ns;
        }
    }

    /// Fold one call of `ns` into the aggregate `name` under the innermost
    /// open span.
    pub fn fold(&mut self, name: &'static str, ns: u64) {
        let parent = self.open.last().copied();
        let e = self.aggs.entry(name).or_insert((parent, Agg::default()));
        e.1.calls += 1;
        e.1.ns += ns;
    }

    /// Total duration and self time per span name, seconds. Aggregates
    /// count as children of the span they were folded under.
    pub fn layers(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur();
            }
        }
        for (parent, agg) in self.aggs.values() {
            if let Some(p) = parent {
                covered[*p] += agg.ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(&covered) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur() as f64 * 1e-9;
            e.2 += s.dur().saturating_sub(*cov) as f64 * 1e-9;
        }
        for (name, (_, agg)) in &self.aggs {
            let e = out.entry(name).or_default();
            e.0 += agg.calls as usize;
            e.1 += agg.ns as f64 * 1e-9;
            e.2 += agg.ns as f64 * 1e-9;
        }
        out
    }

    /// The spans and aggregates as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\"folded\":[");
        for (i, (name, (parent, agg))) in self.aggs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"parent\":{parent},\"calls\":{},\"total_ns\":{}}}",
                agg.calls, agg.ns
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_folds() {
        let mut t = Tracer::new();
        let root = t.begin_at("drive", 0);
        let call = t.span("push.dispatch", 100, 600);
        t.children(
            call,
            &[("dispatch.batch", 200), ("serve.barrier_settle", 100)],
        );
        t.fold("push.enqueue", 50);
        t.fold("push.enqueue", 30);
        t.end_at(root, 1_000);

        let layers = t.layers();
        let (n, total, own) = layers["drive"];
        assert_eq!(n, 1);
        assert!((total - 1e-6).abs() < 1e-15);
        // 1000 − 500 (dispatch span) − 80 (folded enqueues).
        assert!((own - 420e-9).abs() < 1e-15);
        assert!((layers["push.dispatch"].2 - 200e-9).abs() < 1e-15);
        let (calls, folded, _) = layers["push.enqueue"];
        assert_eq!(calls, 2);
        assert!((folded - 80e-9).abs() < 1e-15);
        // Obs children are laid out from the parent's start.
        let kids: Vec<_> = t.spans.iter().filter(|s| s.parent == Some(call)).collect();
        assert_eq!((kids[0].start_ns, kids[0].end_ns), (100, 300));
        assert_eq!((kids[1].start_ns, kids[1].end_ns), (300, 400));
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let mut t = Tracer::new();
        let root = t.begin_at("drive", 0);
        t.span("admit", 1, 2);
        t.end_at(root, 3);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"drive\",\"parent\":null"));
        assert!(json.contains("\"name\":\"admit\",\"parent\":0"));
    }
}
