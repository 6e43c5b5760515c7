//! Spans recorded by the benchmark around every call it makes into a
//! layer. They are pushed into a preallocated in-memory vector and written
//! out when the run ends; a disabled tracer costs one branch per call, and
//! end-to-end metrics are only ever taken with it disabled.

use std::collections::BTreeMap;
use std::time::Instant;

use exo_tune::json::Json;

/// "No span": the parent of a root span, and the id a disabled tracer
/// hands out.
pub const NONE: u32 = u32::MAX;

/// One timed call into a layer. `name` is `<layer>.<function>`; `op` ties
/// the spans of one operation (one GEMM call, one job, one batch) together.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    capacity: usize,
    pub dropped: u64,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            capacity: 0,
            dropped: 0,
        }
    }

    /// A recording tracer holding at most `capacity` spans (allocated now,
    /// so recording never allocates); spans beyond it are counted dropped.
    pub fn on(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            enabled: true,
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            capacity,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times are counted from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u32) -> u32 {
        if !self.enabled {
            return NONE;
        }
        if self.spans.len() == self.capacity {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        id
    }

    /// Closes a span opened by [`Tracer::begin`] (innermost first).
    #[inline]
    pub fn end(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = end_ns;
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans (same epoch), re-basing their parent
    /// links onto this tracer's indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }
}

/// Per-name totals over a span list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its direct children cover.
    pub self_ns: u64,
}

/// Sums duration and self time per span name. A span's self time is its
/// duration minus the durations of its direct children (children never
/// overlap each other: one thread closes spans innermost first).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NONE {
            child_ns[span.parent as usize] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(child_ns) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(covered);
    }
    out
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
}

/// Writes the span file: a name table plus one row per span, columns as
/// listed in `"columns"` (`parent` is a row index, or -1 for a root). Rows
/// are all integers, so they are written as text directly rather than built
/// as a tree of a few hundred thousand values.
pub fn write_json(spans: &[Span], dropped: u64, header: &[(&str, String)]) -> String {
    let mut names: Vec<&'static str> = Vec::new();
    let rows: Vec<String> = spans
        .iter()
        .map(|span| {
            let name = names.iter().position(|n| *n == span.name).unwrap_or_else(|| {
                names.push(span.name);
                names.len() - 1
            });
            let parent = if span.parent == NONE { -1 } else { i64::from(span.parent) };
            format!("[{name},{},{},{parent},{}]", span.start_ns, span.end_ns, span.op)
        })
        .collect();
    let quoted = |s: &str| Json::Str(s.to_string()).to_text();
    let mut out = String::from("{");
    for (key, value) in header {
        out.push_str(&format!("{}:{},", quoted(key), quoted(value)));
    }
    out.push_str(&format!(
        "\"dropped\":{dropped},\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\"],\"rows\":[{}],\"names\":[{}]}}",
        rows.join(","),
        names.iter().map(|n| quoted(n)).collect::<Vec<_>>().join(","),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // gemm [0,100] > pack [10,30], kernel [30,90] > inner [40,50].
        let spans = vec![
            span("gemm", 0, 100, NONE),
            span("pack", 10, 30, 0),
            span("kernel", 30, 90, 0),
            span("inner", 40, 50, 2),
        ];
        let t = totals(&spans);
        assert_eq!(t["gemm"], NameTotals { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(t["kernel"], NameTotals { count: 1, total_ns: 60, self_ns: 50 });
        assert_eq!(t["pack"].self_ns, 20);
        assert_eq!(t["inner"].self_ns, 10);
        // Self times partition the root's duration.
        assert_eq!(t.values().map(|n| n.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_a_full_one_counts_drops() {
        let mut off = Tracer::off();
        let id = off.begin("x", 1);
        off.end(id);
        assert!(off.spans().is_empty());

        let mut on = Tracer::on(Instant::now(), 2);
        let outer = on.begin("outer", 7);
        let inner = on.begin("inner", 7);
        let lost = on.begin("lost", 7);
        on.end(lost);
        on.end(inner);
        on.end(outer);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.dropped, 1);
        assert_eq!(on.spans()[1].parent, 0);
        assert_eq!(on.spans()[0].parent, NONE);
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
    }

    #[test]
    fn absorbing_a_thread_rebases_its_parent_links() {
        let epoch = Instant::now();
        let mut main = Tracer::on(epoch, 8);
        let a = main.begin("a", 0);
        main.end(a);
        let mut worker = Tracer::on(epoch, 8);
        let outer = worker.begin("outer", 1);
        let inner = worker.begin("inner", 1);
        worker.end(inner);
        worker.end(outer);
        main.absorb(worker);
        assert_eq!(main.spans()[2].parent, 1);
        assert_eq!(main.spans()[1].parent, NONE);
    }

    #[test]
    fn the_span_file_round_trips_through_the_repo_parser() {
        let spans = vec![span("gemm-blis.gemm", 5, 50, NONE), span("gemm-blis.pack_b_into", 6, 9, 0)];
        let text = write_json(&spans, 3, &[("workload", "square".to_string())]);
        let json = exo_tune::json::parse(&text).expect("span file parses");
        assert_eq!(json.get("workload").and_then(|v| v.as_str()), Some("square"));
        assert_eq!(json.get("dropped").and_then(|v| v.as_usize()), Some(3));
        let rows = json.get("rows").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(rows.len(), 2);
        let row1 = rows[1].as_arr().unwrap();
        assert_eq!(row1[0].as_usize(), Some(1)); // second name
        assert_eq!(row1[3].as_usize(), Some(0)); // parent row
        assert_eq!(rows[0].as_arr().unwrap()[3].as_num(), Some(-1.0));
        let names = json.get("names").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(names[1].as_str(), Some("gemm-blis.pack_b_into"));
    }
}
