//! Spans recorded by the benchmark around its calls into each layer. They
//! stay in memory until the run ends; [`Ledger`] then derives self times
//! and checks that children never exceed their parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub txn: u64,
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn us(&self) -> f64 {
        self.ns() as f64 / 1e3
    }
}

/// One client's spans. Ids carry the client number in their high bits so
/// logs of several clients merge without clashes.
pub struct SpanLog {
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, client: usize) -> SpanLog {
        SpanLog { epoch, next: ((client as u64) << 40) + 1, spans: Vec::new() }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id, for a span recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }

    pub fn record(
        &mut self,
        kind: &'static str,
        parent: u64,
        txn: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        let id = self.reserve();
        self.record_as(id, kind, parent, txn, start_ns, end_ns)
    }

    /// Record a span under an id from [`SpanLog::reserve`].
    pub fn record_as(
        &mut self,
        id: u64,
        kind: &'static str,
        parent: u64,
        txn: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        let span = Span { id, parent, txn, kind, start_ns, end_ns };
        self.spans.push(span);
        span
    }

    /// Run `f` inside a span; returns its result and the span.
    pub fn time<R>(
        &mut self,
        kind: &'static str,
        parent: u64,
        txn: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Span) {
        let start = self.now();
        let r = f();
        let end = self.now();
        (r, self.record(kind, parent, txn, start, end))
    }
}

/// Self times and the parent/child check over a set of spans.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Total self time per span kind.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Every duration per span kind, in µs.
    pub durations_us: BTreeMap<&'static str, Vec<f64>>,
    /// Root `txn` spans and their total duration.
    pub txns: usize,
    pub txn_ns: u64,
    /// Part of the `txn` spans that no child covers.
    pub txn_uncovered_ns: u64,
    /// Spans whose children outlast them or stick out of them.
    pub violations: usize,
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
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

impl Ledger {
    pub fn build(spans: &[Span]) -> Ledger {
        let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push(s);
        }
        let mut l = Ledger::default();
        for s in spans {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let kid_sum: u64 = kids.iter().map(|k| k.ns()).sum();
            let outside = kids.iter().any(|k| k.start_ns < s.start_ns || k.end_ns > s.end_ns);
            if kid_sum > s.ns() || outside {
                l.violations += 1;
            }
            let cover = covered(
                kids.iter().map(|k| (k.start_ns, k.end_ns)).collect(),
                s.start_ns,
                s.end_ns,
            );
            *l.self_ns.entry(s.kind).or_default() += s.ns() - cover;
            l.durations_us.entry(s.kind).or_default().push(s.us());
            if s.kind == "txn" {
                l.txns += 1;
                l.txn_ns += s.ns();
                l.txn_uncovered_ns += s.ns() - cover;
            }
        }
        l
    }
}

/// Write spans as tab-separated `id parent txn kind start_ns end_ns` lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\ttxn\tkind\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.txn, s.kind, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, txn: 1, kind, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = [
            span(1, 0, "txn", 0, 100),
            span(2, 1, "run", 10, 40),
            span(3, 1, "commit", 50, 90),
            span(4, 3, "commit.validation", 50, 60),
        ];
        let l = Ledger::build(&spans);
        assert_eq!(l.violations, 0);
        assert_eq!(l.self_ns["txn"], 30);
        assert_eq!(l.self_ns["commit"], 30);
        assert_eq!(l.txn_uncovered_ns, 30);
        assert_eq!(l.self_ns.values().sum::<u64>(), 100, "self times add up to the root");
    }

    #[test]
    fn children_outlasting_the_parent_are_violations() {
        let spans = [span(1, 0, "txn", 0, 100), span(2, 1, "run", 50, 120)];
        assert_eq!(Ledger::build(&spans).violations, 1);
    }
}
