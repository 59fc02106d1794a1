//! `noc-perf`: the repository benchmark.
//!
//! One command drives every layer of the workspace through its public
//! functions, checks its own outputs and prints one JSON result line:
//!
//! ```text
//! noc-perf --workload <paper_fig78|mesh16_sharded|campaign_mesh8|daemon_jobs>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics of an
//! untraced run. With `--trace 1` the same untraced run is followed by a
//! traced replay of the same jobs, and the result carries the per-layer
//! metrics and the cost ledger (see README.md).
//!
//! Every simulator knob is set explicitly: the benchmark refuses to
//! start when any `NOC_*` environment variable is set, and it never
//! calls the argv- or environment-reading helpers of `noc-bench`.

mod campaign;
mod daemon;
mod fig78;
mod ledger;
mod mesh16;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("correct_fraction", "ratio"),
    ("sim_cycles_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("latency_mean_cycles", "cycles"),
    ("delivered_fraction", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// workload that does not exercise a metric's layer reports 0 and says
/// why on standard error.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traffic.tick_ns_per_cycle", "ns"),
    ("sim.construct_us.static", "us"),
    ("sim.construct_us.adaptive", "us"),
    ("faults.plan_us", "us"),
    ("campaign.link_sample_us", "us"),
    ("sim.offer_ns_per_packet", "ns"),
    ("sim.step_ns_per_cycle", "ns"),
    ("sim.step_ns_per_router_step", "ns"),
    ("sim.skip_ratio", "ratio"),
    ("sim.load_imbalance", "ratio"),
    ("sim.shard_count", "count"),
    ("sim.flight_record_us", "us"),
    ("batch.busy_frac", "ratio"),
    ("batch.straggler_s", "s"),
    ("router.va_stall_ratio", "ratio"),
    ("router.sa_stall_ratio", "ratio"),
    ("router.occupancy_mean_flits", "flits"),
    ("router.va_borrows", "count"),
    ("router.sa_bypass_grants", "count"),
    ("router.vc_transfers", "count"),
    ("router.secondary_path_flits", "count"),
    ("router.flits_dropped", "count"),
    ("fault_latency_increase_pct.splash2", "%"),
    ("fault_latency_increase_pct.parsec", "%"),
    ("mean_faults_to_failure.static", "faults"),
    ("mean_faults_to_failure.adaptive", "faults"),
    ("campaign.cycles_per_scenario", "cycles"),
    ("campaign.wedged_fraction", "ratio"),
    ("campaign.static.delivered_all", "count"),
    ("campaign.static.degraded", "count"),
    ("campaign.static.lost_packets", "count"),
    ("campaign.static.deadlocked", "count"),
    ("campaign.adaptive.delivered_all", "count"),
    ("campaign.adaptive.degraded", "count"),
    ("campaign.adaptive.lost_packets", "count"),
    ("campaign.adaptive.deadlocked", "count"),
    ("snapshot.serialise_us", "us"),
    ("snapshot.bytes", "bytes"),
    ("service.submit_ms", "ms"),
    ("service.status_ms", "ms"),
    ("service.result_ms", "ms"),
    ("service.polls_per_job", "count"),
    ("service.checkpoint_writes", "count"),
    ("service.checkpoint_write_s", "s"),
    ("service.spool_bytes", "bytes"),
    ("service.job_latency_p50_ms", "ms"),
    ("service.job_latency_p90_ms", "ms"),
    ("service.job_samples", "count"),
    ("ledger.coverage", "ratio"),
    ("ledger.trace_overhead_pct", "%"),
    ("ledger.self_frac.noc-traffic", "ratio"),
    ("ledger.self_frac.noc-topology", "ratio"),
    ("ledger.self_frac.noc-faults", "ratio"),
    ("ledger.self_frac.shield-router", "ratio"),
    ("ledger.self_frac.noc-sim", "ratio"),
    ("ledger.self_frac.noc-campaign", "ratio"),
    ("ledger.self_frac.noc-telemetry", "ratio"),
    ("ledger.self_frac.noc-service", "ratio"),
];

/// The four workloads.
pub const WORKLOADS: &[&str] = &[
    "paper_fig78",
    "mesh16_sharded",
    "campaign_mesh8",
    "daemon_jobs",
];

/// What one invocation was asked to do.
pub struct Ctx {
    /// The benchmark seed every input derives from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Whether to follow the untraced run with a traced replay.
    pub trace: bool,
    /// The only place the benchmark writes files.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Length of each measured phase: the whole `--seconds` for an
    /// untraced run; half of it each for the untraced and traced phases
    /// of a traced run, so every run takes about `--seconds`.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// A value derived from the benchmark seed and a per-use tag, so
    /// every input changes with `--seed` and no two uses share a value.
    pub fn derive(&self, tag: u64) -> u64 {
        let mut h = self.seed ^ 0x6E6F_632D_7065_7266;
        noc_types::splitmix64(&mut h);
        h ^= tag;
        noc_types::splitmix64(&mut h)
    }
}

/// A workload's results: operation counts, failures and metrics.
#[derive(Default)]
pub struct Results {
    /// Operations attempted (simulations, scenarios, jobs, rounds).
    pub attempted: u64,
    /// Operations that failed or whose output did not verify.
    pub failed: u64,
    /// The first failure messages, for standard error.
    pub failures: Vec<String>,
    /// End-to-end metrics of the untraced run.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics of the traced run.
    pub layer: BTreeMap<&'static str, f64>,
    /// Why a per-layer metric is absent on this workload, by name prefix.
    pub absent: Vec<(&'static str, &'static str)>,
}

impl Results {
    /// Count one operation; it fails when `problems` is non-empty.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.failures.len() < 20 {
                    self.failures.push(p);
                }
            }
        }
    }

    /// Count one operation that must satisfy `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(if ok { Vec::new() } else { vec![what()] });
    }
}

/// Set-up repetitions per [`Setup::run`] for workloads whose set-up
/// takes about a millisecond.
pub const SETUP_REPS: usize = 51;

/// A workload's set-up, timed every time it runs.
///
/// The benchmark host switches between a fast and a slow phase (about
/// 1.8× apart) that last from seconds to minutes. A set-up timed only
/// in the moment before the measured phase lands in one of them, and
/// the median of many repetitions flips between the two phases from run
/// to run. The workloads therefore run the set-up before the measured
/// phase and again between its rounds (outside the rounds' timing), and
/// `setup_s` is the fastest repetition of the run: the cost of the
/// set-up's work on an undisturbed host.
pub struct Setup<F> {
    f: F,
    reps: usize,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// A set-up `f` run `reps` times per [`Setup::run`].
    pub fn new(reps: usize, f: F) -> Self {
        Setup {
            f,
            reps: reps.max(1),
            times: Vec::new(),
        }
    }

    /// Run the set-up `reps` times, timing each repetition, and return
    /// the last output; earlier outputs are dropped after their
    /// repetition is timed.
    pub fn run(&mut self) -> T {
        let mut last = None;
        for _ in 0..self.reps {
            let t = Instant::now();
            let out = (self.f)();
            self.times.push(t.elapsed().as_secs_f64());
            last = Some(out);
        }
        last.expect("at least one set-up repetition")
    }

    /// The fastest repetition's time in seconds.
    pub fn fastest_s(&self) -> f64 {
        let mut sorted = self.times.clone();
        sorted.sort_by(f64::total_cmp);
        let median = stats::median(&sorted);
        eprintln!(
            "set-up: {} repetitions, min {:.6} s, median {median:.6} s, mean {:.6} s, max {:.6} s",
            sorted.len(),
            sorted.first().copied().unwrap_or(0.0),
            stats::mean(&sorted),
            sorted.last().copied().unwrap_or(0.0)
        );
        sorted.first().copied().unwrap_or(0.0)
    }
}

/// Repeat `round` until its wall times sum to `seconds` and at least
/// `min_rounds` rounds ran, calling `between` (untimed) before every
/// round but the first; returns each round's wall time in seconds.
pub fn timed_rounds(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize),
    mut between: impl FnMut(),
) -> Vec<f64> {
    let mut walls: Vec<f64> = Vec::new();
    while walls.len() < min_rounds || walls.iter().sum::<f64>() < seconds {
        if !walls.is_empty() {
            between();
        }
        let t = Instant::now();
        round(walls.len());
        walls.push(t.elapsed().as_secs_f64());
    }
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!("round wall times (s): {}", shown.join(" "));
    walls
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage(msg: &str) -> ! {
    eprintln!("noc-perf: {msg}");
    eprintln!(
        "usage: noc-perf --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok().or_else(|| usage("bad --seed")),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .or_else(|| usage("--seconds must be in (0, 600]"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Refuse to run when any `NOC_*` variable is set: the library reads
/// several of them (`NOC_SIM_THREADS`, `NOC_TOPOLOGY`, `NOC_ROUTING`,
/// `NOC_SIM_REBALANCE`) and would silently rewrite the configurations
/// this benchmark sets explicitly.
fn refuse_noc_environment() {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NOC_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "noc-perf: refusing to start: {} set in the environment; the library would \
             override the benchmark's explicit configuration. Unset it and retry.",
            set.join(", ")
        );
        std::process::exit(3);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    refuse_noc_environment();
    let args = parse_args();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: PathBuf::from(".bench_out"),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("noc-perf: cannot create {}: {e}", ctx.out_dir.display());
        std::process::exit(1);
    }
    eprintln!(
        "noc-perf: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    let mut res = match args.workload.as_str() {
        "paper_fig78" => fig78::run(&ctx),
        "mesh16_sharded" => mesh16::run(&ctx),
        "campaign_mesh8" => campaign::run(&ctx),
        "daemon_jobs" => daemon::run(&ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    res.e2e.insert("peak_rss_mib", peak_rss_mib());
    if res.attempted > 0 {
        res.e2e.insert(
            "correct_fraction",
            (res.attempted - res.failed) as f64 / res.attempted as f64,
        );
    }

    let (wanted, source) = if ctx.trace {
        (PER_LAYER, &res.layer)
    } else {
        (END_TO_END, &res.e2e)
    };
    let mut failed = res.failed;
    let mut attempted = res.attempted;
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = match source.get(name) {
            Some(v) => *v,
            None if ctx.trace => {
                let why = res
                    .absent
                    .iter()
                    .find(|(prefix, _)| name.starts_with(prefix))
                    .map_or("not exercised by this workload", |(_, why)| why);
                eprintln!("absent: {name} = 0 ({why})");
                0.0
            }
            None => {
                eprintln!("noc-perf: end-to-end metric {name} was not measured");
                attempted += 1;
                failed += 1;
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for f in &res.failures {
        eprintln!("FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted,
        failed,
        fields.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
