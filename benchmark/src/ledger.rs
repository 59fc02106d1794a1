//! Spans and the per-layer cost ledger of a traced run.
//!
//! A span names one call into a layer (`<layer>.<call>`), its start and
//! end, the span that caused it and the job it belongs to. Calls made
//! once per simulated cycle are folded into one aggregate span per job
//! (first start, last end, summed busy time and a call count), so a
//! long run keeps a bounded span list. Spans live in memory and are
//! written out once, at the end of the run.
//!
//! A span's self time is its busy time minus the busy time of its
//! children. Spans whose layer is `bench` are the benchmark's own glue
//! and stay unattributed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::thread::ThreadId;
use std::time::Instant;

/// The workspace layers the ledger attributes time to.
pub const LAYERS: [&str; 8] = [
    "noc-traffic",
    "noc-topology",
    "noc-faults",
    "shield-router",
    "noc-sim",
    "noc-campaign",
    "noc-telemetry",
    "noc-service",
];

/// `ledger.self_frac.<layer>` metric names, in [`LAYERS`] order.
const SELF_FRAC: [&str; 8] = [
    "ledger.self_frac.noc-traffic",
    "ledger.self_frac.noc-topology",
    "ledger.self_frac.noc-faults",
    "ledger.self_frac.shield-router",
    "ledger.self_frac.noc-sim",
    "ledger.self_frac.noc-campaign",
    "ledger.self_frac.noc-telemetry",
    "ledger.self_frac.noc-service",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Job the span belongs to (shared by every span of one job).
    pub job: u64,
    /// Index of the span within its job.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds since the traced run began.
    pub start_ns: u64,
    /// End, nanoseconds since the traced run began.
    pub end_ns: u64,
    /// Time spent inside the call(s): `end - start` for a single call,
    /// the sum over calls for an aggregate span.
    pub busy_ns: u64,
    /// Calls folded into this span (1 for a single call).
    pub calls: u64,
}

/// The spans of one job, recorded on the thread that ran it.
pub struct JobSpans {
    job: u64,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl JobSpans {
    /// Start recording job `job`; times are relative to `epoch`.
    pub fn new(job: u64, epoch: Instant) -> Self {
        JobSpans {
            job,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            job: self.job,
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: start,
            end_ns: start,
            busy_ns: 0,
            calls: 1,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end = self.now();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        s.busy_ns = end - s.start_ns;
    }

    /// Time `f` as one span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record an aggregate span under the innermost open span.
    pub fn aggregate(&mut self, name: &'static str, agg: &Aggregate) {
        if agg.calls == 0 {
            return;
        }
        self.spans.push(Span {
            job: self.job,
            id: self.spans.len() as u32,
            parent: self.stack.last().copied(),
            name,
            start_ns: agg.first_ns,
            end_ns: agg.last_ns,
            busy_ns: agg.busy_ns,
            calls: agg.calls,
        });
    }

    /// The finished spans; every span must be closed.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "unclosed spans at job end");
        self.spans
    }
}

/// A repeated call folded into one span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    /// Start of the first call.
    pub first_ns: u64,
    /// End of the last call.
    pub last_ns: u64,
    /// Summed call durations.
    pub busy_ns: u64,
    /// Number of calls.
    pub calls: u64,
}

impl Aggregate {
    /// Fold in one call spanning `[start, end)`.
    #[inline]
    pub fn add(&mut self, start: u64, end: u64) {
        if self.calls == 0 {
            self.first_ns = start;
        }
        self.last_ns = end;
        self.busy_ns += end - start;
        self.calls += 1;
    }
}

/// Self time per span name: busy time minus the children's busy time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_busy: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_busy.entry((s.job, p)).or_default() += s.busy_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let children = child_busy.get(&(s.job, s.id)).copied().unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.0 += s.busy_ns.saturating_sub(children);
        e.1 += s.calls;
    }
    out
}

/// Total busy time and calls of every span named `name`.
pub fn busy(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(b, c), s| (b + s.busy_ns, c + s.calls))
}

/// Mean busy time per call of the spans named `name`, in
/// microseconds; 0 when there were none.
pub fn mean_us(spans: &[Span], name: &str) -> f64 {
    let (b, c) = busy(spans, name);
    if c == 0 {
        0.0
    } else {
        b as f64 / c as f64 / 1e3
    }
}

/// How long a batch lane idles at the barrier: the slowest lane's last
/// job end minus the fastest lane's, from each job's `(thread, end_ns)`.
/// 0 when only one lane ran jobs.
pub fn straggler_ns(ends: impl IntoIterator<Item = (ThreadId, u64)>) -> u64 {
    let mut lanes: Vec<(ThreadId, u64)> = Vec::new();
    for (thread, end) in ends {
        match lanes.iter_mut().find(|(t, _)| *t == thread) {
            Some(l) => l.1 = l.1.max(end),
            None => lanes.push((thread, end)),
        }
    }
    if lanes.len() < 2 {
        return 0;
    }
    let max = lanes.iter().map(|l| l.1).max().unwrap_or(0);
    let min = lanes.iter().map(|l| l.1).min().unwrap_or(0);
    max - min
}

/// Summarise a traced run into the ledger metrics.
///
/// `capacity_ns` is the traced wall time times the number of threads
/// that ran jobs; `untraced_round_s`/`traced_round_s` are the median
/// round wall times of the two runs, for the tracing overhead.
/// `unattributed` explains, per layer, why its self time cannot be
/// separated from the outside on this workload.
pub fn report(
    res: &mut crate::Results,
    file: &Path,
    spans: &[Span],
    capacity_ns: u64,
    untraced_round_s: f64,
    traced_round_s: f64,
    unattributed: &[(&str, &str)],
) {
    let selfs = self_times(spans);
    let mut per_layer = [0u64; 8];
    for (name, (self_ns, _)) in &selfs {
        let layer = name.split_once('.').map_or(*name, |(l, _)| l);
        if let Some(i) = LAYERS.iter().position(|l| *l == layer) {
            per_layer[i] += self_ns;
        }
    }
    let cap = capacity_ns.max(1) as f64;
    let attributed: u64 = per_layer.iter().sum();
    res.layer.insert("ledger.coverage", attributed as f64 / cap);
    res.layer.insert(
        "ledger.trace_overhead_pct",
        (traced_round_s / untraced_round_s - 1.0) * 100.0,
    );
    eprintln!("ledger: {:<36} {:>12} {:>10}", "span", "self_ms", "calls");
    for (name, (self_ns, calls)) in &selfs {
        eprintln!(
            "ledger: {:<36} {:>12.3} {:>10}",
            name,
            *self_ns as f64 / 1e6,
            calls
        );
    }
    for (i, layer) in LAYERS.iter().enumerate() {
        res.layer.insert(SELF_FRAC[i], per_layer[i] as f64 / cap);
        if per_layer[i] == 0 {
            let why = unattributed
                .iter()
                .find(|(l, _)| l == layer)
                .map_or("not called by this workload", |(_, w)| w);
            eprintln!("ledger: layer {layer} has no attributed self time: {why}");
        }
    }
    eprintln!(
        "ledger: coverage {:.4} of {:.3} s capacity; unattributed {:.3} s \
         (benchmark glue, idle threads); trace overhead {:+.2}%",
        attributed as f64 / cap,
        cap / 1e9,
        (cap - attributed as f64).max(0.0) / 1e9,
        (traced_round_s / untraced_round_s - 1.0) * 100.0
    );
    if let Err(e) = write_spans(file, spans) {
        eprintln!("ledger: could not write {}: {e}", file.display());
    }
}

/// Write every span as one JSON line.
fn write_spans(file: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 120);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"job\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\
             \"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}",
            s.job, s.id, parent, s.name, s.start_ns, s.end_ns, s.busy_ns, s.calls
        );
    }
    std::fs::write(file, out)
}
