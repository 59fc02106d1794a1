//! `daemon_jobs`: an in-process `Scheduler` behind `http::serve` on
//! `127.0.0.1:0`, one scheduler worker, driven closed-loop by a single
//! client connection at a time.
//!
//! Each job is a checkpointed `simulate` spec on the 8×8 mesh
//! (checkpoint every 1000 cycles): submit, poll status until done,
//! fetch the result. HTTP parsing, spec validation, the queue, the
//! checkpoint serialise + fsync and the delivery stream carry a real
//! share of the cost here and none elsewhere. Every result must be
//! byte-identical to an in-process run of the same spec, computed in
//! set-up.

use crate::ledger::{self, Aggregate, JobSpans, Span};
use crate::{stats, Ctx, Results, Setup};
use noc_faults::FaultPlan;
use noc_service::client::jobs;
use noc_service::{http, CampaignSpec, ObsLog, Scheduler, ServiceConfig};
use noc_sim::{MemoryStream, Network, SimOutcome};
use noc_telemetry::json::obj;
use noc_telemetry::{JsonValue, Snapshot, SNAPSHOT_SCHEMA_VERSION};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Distinct job specs, cycled through by the client.
const SPECS: u64 = 8;
/// Jobs between two timed repetitions of the set-up (the references
/// and a daemon start).
const SETUP_EVERY: usize = 20;
/// Jobs per run at least, so the p90 has ten samples above it.
const MIN_JOBS: usize = 100;
/// Checkpoint cadence of every job, in cycles.
const CHECKPOINT_EVERY: u64 = 1_000;
/// Largest integer a JSON number carries exactly through
/// `noc_telemetry::JsonValue` (an `f64`).
const JSON_EXACT: u64 = (1 << 53) - 1;

fn specs(ctx: &Ctx) -> Vec<CampaignSpec> {
    (0..SPECS)
        .map(|i| CampaignSpec {
            name: format!("bench-{i}"),
            mesh_k: 8,
            rate: 0.03,
            warmup_cycles: 300,
            measure_cycles: 1_500,
            drain_cycles: 1_500,
            // Spec fields travel as JSON numbers, which the workspace's
            // JSON layer keeps exact only below 2^53.
            seed: ctx.derive(0xD0B + i) & JSON_EXACT,
            threads: 1,
            checkpoint_every: CHECKPOINT_EVERY,
            ..CampaignSpec::default()
        })
        .collect()
}

/// A spec's in-process result, for byte comparison with the daemon's.
struct Reference {
    spec_text: String,
    outcome: &'static str,
    spec_json: JsonValue,
    report_json: JsonValue,
    offered: u64,
    deliveries: u64,
    latency_count: u64,
    latency_mean: f64,
    cycles_run: u64,
}

impl Reference {
    fn compute(spec: &CampaignSpec) -> Result<Reference, String> {
        let sim = spec.simulator(CHECKPOINT_EVERY)?;
        let mut gen = spec.generator()?;
        let mut stream = MemoryStream::new();
        let (report, outcome) = sim
            .run_streamed(&mut gen, &mut stream, None, |_| true)
            .map_err(|e| e.to_string())?;
        Ok(Reference {
            spec_text: spec.to_json().render(),
            outcome: match outcome {
                SimOutcome::Completed => "completed",
                SimOutcome::DrainedEarly => "drained_early",
                SimOutcome::DeadlockSuspected => "deadlock_suspected",
                SimOutcome::Interrupted => return Err("reference run interrupted".into()),
            },
            spec_json: spec.to_json(),
            report_json: report.to_json(),
            offered: report.offered,
            deliveries: stream.entries().len() as u64,
            latency_count: report.total_latency.count as u64,
            latency_mean: report.total_latency.mean,
            cycles_run: report.cycles_run,
        })
    }

    /// The result document the daemon must serve for job `id`.
    fn expected(&self, id: &str) -> String {
        obj([
            ("schema_version", SNAPSHOT_SCHEMA_VERSION.into()),
            ("job", id.into()),
            ("outcome", self.outcome.into()),
            ("spec", self.spec_json.clone()),
            ("report", self.report_json.clone()),
        ])
        .render()
    }
}

/// A running scheduler + HTTP server; dropping it stops both, joins
/// their threads and removes the spool.
struct Daemon {
    sched: Scheduler,
    addr: String,
    stop: Arc<AtomicBool>,
    server: Option<JoinHandle<std::io::Result<()>>>,
    spool: PathBuf,
}

impl Daemon {
    fn start(spool: &Path) -> std::io::Result<Daemon> {
        let _ = std::fs::remove_dir_all(spool);
        let mut cfg = ServiceConfig::new(spool);
        cfg.workers = 1;
        cfg.queue_cap = 4;
        cfg.default_checkpoint_every = CHECKPOINT_EVERY;
        cfg.retry_after_secs = 1;
        let sched = Scheduler::start(cfg)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let sched = sched.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                http::serve(listener, sched, ObsLog::disabled(), move || {
                    stop.load(Ordering::SeqCst)
                })
            })
        };
        let daemon = Daemon {
            sched,
            addr,
            stop,
            server: Some(server),
            spool: spool.to_path_buf(),
        };
        let health = jobs::healthz(&daemon.addr)?;
        if health.status != 200 {
            return Err(std::io::Error::other("daemon health check failed"));
        }
        Ok(daemon)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        match self.server.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => {}
            Some(Ok(Err(e))) => eprintln!("daemon_jobs: server ended with {e}"),
            Some(Err(_)) => eprintln!("daemon_jobs: server thread panicked"),
        }
        self.sched.shutdown();
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}

/// Sum of file sizes under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// A counter or gauge value from the `/metrics` text.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            (n == name).then(|| v.trim().parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}

fn scrape(addr: &str) -> (f64, f64) {
    match jobs::metrics(addr) {
        Ok(r) if r.status == 200 => (
            metric(&r.body, "noc_service_checkpoint_writes_total"),
            metric(&r.body, "noc_service_checkpoint_write_seconds_total"),
        ),
        _ => (0.0, 0.0),
    }
}

/// Client-side timings of one job.
#[derive(Default)]
struct JobTimes {
    total_ms: f64,
    submit: Aggregate,
    status: Aggregate,
    result: Aggregate,
}

/// Submit, poll and fetch one job; returns its timings and problems.
fn one_job(addr: &str, r: &Reference, epoch: Instant) -> (JobTimes, Vec<String>) {
    let mut t = JobTimes::default();
    let now = || epoch.elapsed().as_nanos() as u64;
    let start = now();
    let submitted = jobs::submit(addr, &r.spec_text);
    t.submit.add(start, now());
    let id = match submitted {
        Ok(resp) if resp.status == 201 => JsonValue::parse(&resp.body)
            .ok()
            .and_then(|d| d.get("id").and_then(JsonValue::as_str).map(String::from)),
        Ok(resp) => {
            return (
                t,
                vec![format!("submit answered {}: {}", resp.status, resp.body)],
            )
        }
        Err(e) => return (t, vec![format!("submit failed: {e}")]),
    };
    let Some(id) = id else {
        return (t, vec!["submit answer has no job id".into()]);
    };
    loop {
        let s = now();
        let status = jobs::status(addr, &id);
        t.status.add(s, now());
        let phase = match status {
            Ok(resp) if resp.status == 200 => JsonValue::parse(&resp.body)
                .ok()
                .and_then(|d| d.get("phase").and_then(JsonValue::as_str).map(String::from)),
            Ok(resp) => return (t, vec![format!("{id}: status answered {}", resp.status)]),
            Err(e) => return (t, vec![format!("{id}: status failed: {e}")]),
        };
        match phase.as_deref() {
            Some("completed") => break,
            Some("queued" | "running") => {}
            other => return (t, vec![format!("{id}: job phase {other:?}")]),
        }
        if t.status.calls > 100_000 {
            return (t, vec![format!("{id}: never completed")]);
        }
    }
    let s = now();
    let result = jobs::result(addr, &id);
    t.result.add(s, now());
    t.total_ms = (now() - start) as f64 / 1e6;
    let problems = match result {
        Ok(resp) if resp.status == 200 && resp.body == r.expected(&id) => Vec::new(),
        Ok(resp) if resp.status == 200 => {
            let want = r.expected(&id);
            let at = resp
                .body
                .bytes()
                .zip(want.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(want.len().min(resp.body.len()));
            let near = |s: &str| {
                s.get(at.saturating_sub(40)..(at + 40).min(s.len()))
                    .unwrap_or("")
                    .to_string()
            };
            vec![format!(
                "{id}: result differs from the in-process run of the same spec at byte {at}: \
                 served …{}… expected …{}…",
                near(&resp.body),
                near(&want)
            )]
        }
        Ok(resp) => vec![format!("{id}: result answered {}", resp.status)],
        Err(e) => vec![format!("{id}: result failed: {e}")],
    };
    (t, problems)
}

/// The closed loop: jobs until their wall times sum to `seconds` and
/// `MIN_JOBS` ran, with `between` (untimed) before every `SETUP_EVERY`th
/// job. Returns per-job timings, simulated cycles and the summed wall
/// time of the jobs in seconds.
fn closed_loop(
    res: &mut Results,
    addr: &str,
    refs: &[Reference],
    seconds: f64,
    epoch: Instant,
    mut spans: Option<&mut Vec<Span>>,
    mut between: impl FnMut() -> Result<(), String>,
) -> (Vec<JobTimes>, u64, f64) {
    let mut wall = 0.0;
    let mut times = Vec::new();
    let mut cycles = 0u64;
    while times.len() < MIN_JOBS || wall < seconds {
        if !times.is_empty() && times.len() % SETUP_EVERY == 0 {
            if let Err(e) = between() {
                res.op(vec![format!("set-up repetition failed: {e}")]);
            }
        }
        let started = Instant::now();
        let r = &refs[times.len() % refs.len()];
        let job = times.len() as u64;
        let (t, problems) = match spans.as_deref_mut() {
            None => one_job(addr, r, epoch),
            Some(all) => {
                let mut sp = JobSpans::new(job, epoch);
                let root = sp.enter("bench.job");
                let out = one_job(addr, r, epoch);
                sp.aggregate("noc-service.submit", &out.0.submit);
                sp.aggregate("noc-service.status", &out.0.status);
                sp.aggregate("noc-service.result", &out.0.result);
                sp.exit(root);
                all.extend(sp.finish());
                out
            }
        };
        res.op(problems);
        cycles += r.cycles_run;
        times.push(t);
        wall += started.elapsed().as_secs_f64();
    }
    (times, cycles, wall)
}

pub fn run(ctx: &Ctx) -> Results {
    let mut res = Results::default();
    // Each set-up computes the references and starts its own daemon.
    // Only the first daemon serves the jobs; the set-ups repeated
    // between jobs drop theirs at once, outside the jobs' timing.
    let mut rep = 0;
    let mut setup = Setup::new(1, || -> Result<_, String> {
        let specs = specs(ctx);
        let refs = specs
            .iter()
            .map(Reference::compute)
            .collect::<Result<Vec<_>, _>>()?;
        rep += 1;
        let spool = ctx
            .out_dir
            .join(format!("spool-{}-{rep}", std::process::id()));
        let daemon = Daemon::start(&spool).map_err(|e| format!("daemon start: {e}"))?;
        Ok((specs, refs, daemon))
    });
    let (specs, refs, daemon) = match setup.run() {
        Ok(s) => s,
        Err(e) => {
            res.op(vec![format!("set-up failed: {e}")]);
            return res;
        }
    };

    let epoch = Instant::now();
    let before = scrape(&daemon.addr);
    let (times, cycles, wall) = closed_loop(
        &mut res,
        &daemon.addr,
        &refs,
        ctx.phase_seconds(),
        epoch,
        None,
        || setup.run().map(drop),
    );
    res.e2e.insert("setup_s", setup.fastest_s());
    let after = scrape(&daemon.addr);
    let spool_bytes = dir_bytes(&daemon.spool) as f64 / times.len().max(1) as f64;
    let lat: Vec<f64> = times.iter().map(|t| t.total_ms).collect();
    res.e2e.insert("sim_cycles_per_s", cycles as f64 / wall);
    res.e2e.insert("runs_per_s", times.len() as f64 / wall);
    let (mut n, mut sum, mut offered, mut delivered) = (0u64, 0.0f64, 0u64, 0u64);
    for i in 0..times.len() {
        let r = &refs[i % refs.len()];
        n += r.latency_count;
        sum += r.latency_mean * r.latency_count as f64;
        offered += r.offered;
        delivered += r.deliveries;
    }
    res.e2e.insert("latency_mean_cycles", sum / n.max(1) as f64);
    res.e2e.insert(
        "delivered_fraction",
        delivered as f64 / offered.max(1) as f64,
    );
    eprintln!(
        "daemon_jobs: {} jobs in {wall:.3} s; job latency p50 {:.3} ms, p90 {:.3} ms \
         ({} samples)",
        times.len(),
        stats::median(&lat),
        stats::percentile(&lat, 0.9),
        lat.len()
    );
    if !ctx.trace {
        drop(daemon);
        return res;
    }

    let jobs_n = times.len() as f64;
    res.layer
        .insert("service.job_latency_p50_ms", stats::median(&lat));
    res.layer
        .insert("service.job_latency_p90_ms", stats::percentile(&lat, 0.9));
    res.layer.insert("service.job_samples", jobs_n);
    res.layer
        .insert("service.checkpoint_writes", (after.0 - before.0) / jobs_n);
    res.layer.insert(
        "service.checkpoint_write_s",
        (after.1 - before.1) / (after.0 - before.0).max(1.0),
    );
    res.layer.insert("service.spool_bytes", spool_bytes);

    // Traced run: the same closed loop with spans around each call,
    // then the checkpoint serialiser on the jobs' network.
    let mut spans = Vec::new();
    let (traced, _, traced_wall) = closed_loop(
        &mut res,
        &daemon.addr,
        &refs,
        ctx.phase_seconds(),
        epoch,
        Some(&mut spans),
        || Ok(()),
    );
    let loop_ns = (traced_wall * 1e9) as u64;
    drop(daemon);
    let per_call = |name: &str| ledger::mean_us(&spans, name) / 1e3;
    res.layer
        .insert("service.submit_ms", per_call("noc-service.submit"));
    res.layer
        .insert("service.status_ms", per_call("noc-service.status"));
    res.layer
        .insert("service.result_ms", per_call("noc-service.result"));
    res.layer.insert(
        "service.polls_per_job",
        traced.iter().map(|t| t.status.calls).sum::<u64>() as f64 / traced.len().max(1) as f64,
    );

    let probe_start = Instant::now();
    let spec = &specs[0];
    let mut sp = JobSpans::new(u64::MAX, epoch);
    let root = sp.enter("bench.snapshot_probe");
    // The job's network at its first checkpoint: the spec cut off
    // after `CHECKPOINT_EVERY` cycles, run through the simulator's loop.
    let to_checkpoint = CampaignSpec {
        measure_cycles: CHECKPOINT_EVERY - spec.warmup_cycles,
        drain_cycles: 0,
        ..spec.clone()
    };
    let mut net = Network::with_faults(
        spec.network_config().expect("bench spec is valid"),
        spec.router_kind,
        &FaultPlan::none(),
    );
    net.set_threads(1);
    let mut gen = spec.generator().expect("bench spec is valid");
    to_checkpoint
        .simulator(0)
        .expect("bench spec is valid")
        .run_on(&mut net, |c, out| gen.tick_into(c, out));
    let mut times_us = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..20 {
        let s = Instant::now();
        let text = sp.time("noc-telemetry.snapshot", || net.snapshot().render());
        times_us.push(s.elapsed().as_nanos() as f64 / 1e3);
        bytes = text.len();
    }
    sp.exit(root);
    spans.extend(sp.finish());
    let probe_ns = probe_start.elapsed().as_nanos() as u64;
    res.layer
        .insert("snapshot.serialise_us", stats::median(&times_us));
    res.layer.insert("snapshot.bytes", bytes as f64);

    res.absent = vec![
        ("traffic", "traffic is generated inside the daemon's jobs"),
        ("sim.", "the simulator runs inside the daemon's worker"),
        ("faults", "fault-free jobs"),
        ("campaign", "no link-fault campaign"),
        ("batch", "one scheduler worker, no batch pool"),
        ("router", "router counters are inside the served reports"),
        ("fault_latency_increase_pct", "no pipeline-fault figure"),
        ("mean_faults_to_failure", "no link-fault campaign"),
    ];
    ledger::report(
        &mut res,
        &ctx.out_dir.join("spans-daemon_jobs.jsonl"),
        &spans,
        loop_ns + probe_ns,
        wall / jobs_n,
        loop_ns as f64 / 1e9 / traced.len().max(1) as f64,
        &[
            (
                "noc-sim",
                "simulation, checkpoint fsync and delivery stream run on the daemon's \
                 worker, inside the client's noc-service calls",
            ),
            ("shield-router", "inside the daemon's simulations"),
            ("noc-traffic", "inside the daemon's simulations"),
            ("noc-topology", "inside the daemon's simulations"),
            ("noc-faults", "fault-free jobs"),
            ("noc-campaign", "no campaign"),
        ],
    );
    res
}
