//! `paper_fig78`: the Figure 7 + Figure 8 job set.
//!
//! Eight SPLASH-2 and eight PARSEC application models on the protected
//! 8×8 mesh, each fault-free and under the tolerated uniform-random
//! pipeline-fault plan that `run_figure` builds
//! (`InjectionConfig::accelerated_accumulating`, mean = horizon/2), at
//! the figures' quick-scale window. The 32 simulations of one round fan
//! out over `run_batch` with two workers; every network is serial.
//!
//! This is the paper's headline experiment: the app traffic models and
//! the router stages (with the Shield correction paths) do the work,
//! intra-network sharding does none.

use crate::ledger::{self, JobSpans, Span};
use crate::sim::{self, Digest, Timed};
use crate::{stats, timed_rounds, Ctx, Results, Setup, SETUP_REPS};
use noc_faults::{FaultPlan, InjectionConfig};
use noc_sim::{run_batch, Network, SimOutcome, Simulator};
use noc_traffic::{AppId, Suite, TrafficConfig, TrafficGenerator};
use noc_types::{NetworkConfig, RouterConfig, SimConfig};
use shield_router::RouterKind;
use std::thread::ThreadId;
use std::time::Instant;

/// Batch workers (the host has two cores).
const WORKERS: usize = 2;

/// The figures' quick-scale window.
fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 6_000,
        drain_cycles: 8_000,
        seed,
    }
}

fn net_config() -> NetworkConfig {
    NetworkConfig {
        mesh_k: 8,
        ..NetworkConfig::paper()
    }
}

#[derive(Debug, Clone, Copy)]
struct Job {
    index: usize,
    app: AppId,
    faulty: bool,
}

fn jobs() -> Vec<Job> {
    AppId::SPLASH2
        .iter()
        .chain(AppId::PARSEC.iter())
        .flat_map(|&app| [false, true].map(|faulty| (app, faulty)))
        .enumerate()
        .map(|(index, (app, faulty))| Job { index, app, faulty })
        .collect()
}

/// The fault plan of `run_figure`: one uniform-random accelerated
/// accumulating campaign per simulation seed, shared by every app.
fn plan(sim: &SimConfig) -> FaultPlan {
    let horizon = sim.warmup_cycles + sim.measure_cycles;
    let inj = InjectionConfig::accelerated_accumulating(horizon / 2, horizon);
    FaultPlan::uniform_random(&RouterConfig::paper(), 64, &inj, sim.seed ^ 0xFA17)
}

fn build(net_cfg: NetworkConfig, plan: &FaultPlan) -> Network {
    let mut net = Network::with_faults(net_cfg, RouterKind::Protected, plan);
    net.set_threads(1);
    net
}

fn generator(job: &Job, sim: &SimConfig) -> TrafficGenerator {
    TrafficGenerator::new(
        TrafficConfig::app(job.app),
        net_config().grid(),
        sim.seed ^ 0x5EED,
    )
}

struct JobOut {
    digest: Digest,
    /// The simulator's own mean latency, to cross-check the digest.
    report_mean: f64,
    faults: usize,
    deadlock: bool,
    ns: u64,
    end_ns: u64,
    thread: ThreadId,
    spans: Vec<Span>,
}

/// One simulation through the simulator's own run loop.
fn run_job(job: &Job, sim_cfg: &SimConfig, epoch: Instant) -> JobOut {
    let t0 = Instant::now();
    let plan = if job.faulty {
        plan(sim_cfg)
    } else {
        FaultPlan::none()
    };
    let mut net = build(net_config(), &plan);
    let mut gen = generator(job, sim_cfg);
    let simulator = Simulator::new(
        net_config(),
        *sim_cfg,
        RouterKind::Protected,
        FaultPlan::none(),
    )
    .with_threads(1);
    let (report, outcome) = simulator.run_on(&mut net, |c, out| gen.tick_into(c, out));
    let window = (
        sim_cfg.warmup_cycles,
        sim_cfg.warmup_cycles + sim_cfg.measure_cycles,
    );
    let digest = Digest::of(&net, window, report.cycles_run);
    JobOut {
        digest,
        report_mean: report.mean_latency(),
        faults: plan.len(),
        deadlock: outcome == SimOutcome::DeadlockSuspected,
        ns: t0.elapsed().as_nanos() as u64,
        end_ns: epoch.elapsed().as_nanos() as u64,
        thread: std::thread::current().id(),
        spans: Vec::new(),
    }
}

/// The same simulation replayed through the public layer calls, with a
/// span around each.
fn traced_job(job: &Job, sim_cfg: &SimConfig, epoch: Instant, id: u64) -> JobOut {
    let t0 = Instant::now();
    let mut sp = JobSpans::new(id, epoch);
    let root = sp.enter("bench.job");
    let plan = if job.faulty {
        sp.time("noc-faults.plan", || plan(sim_cfg))
    } else {
        FaultPlan::none()
    };
    let mut net = sp.time("noc-topology.construct_static", || {
        build(net_config(), &plan)
    });
    let mut gen = sp.time("noc-traffic.generator_new", || generator(job, sim_cfg));
    let mut probe = Timed::new(epoch);
    let drive = sp.enter("noc-sim.drive");
    let end = sim::drive(&mut net, &mut gen, sim_cfg, &mut probe);
    probe.record(&mut sp, "noc-traffic.tick");
    sp.exit(drive);
    let window = (
        sim_cfg.warmup_cycles,
        sim_cfg.warmup_cycles + sim_cfg.measure_cycles,
    );
    let digest = sp.time("bench.digest", || Digest::of(&net, window, end.cycles_run));
    sp.exit(root);
    JobOut {
        report_mean: digest.mean_latency(),
        digest,
        faults: plan.len(),
        deadlock: end.deadlock,
        ns: t0.elapsed().as_nanos() as u64,
        end_ns: epoch.elapsed().as_nanos() as u64,
        thread: std::thread::current().id(),
        spans: sp.finish(),
    }
}

/// Problems with one job's output: the tolerated-fault invariants, and
/// identity with the reference output when there is one.
fn verify(job: &Job, out: &JobOut, reference: Option<&JobOut>) -> Vec<String> {
    let mut p = Vec::new();
    let d = &out.digest;
    let (offered, _injected, ejected, misdelivered) = d.counters;
    let name = format!(
        "{}/{}",
        job.app.name(),
        if job.faulty { "faulty" } else { "clean" }
    );
    if out.deadlock || d.in_flight != 0 || d.queued != 0 {
        p.push(format!("{name}: did not drain (deadlock {})", out.deadlock));
    }
    if ejected != offered || misdelivered != 0 || d.flits_dropped != 0 {
        p.push(format!(
            "{name}: delivered {ejected} of {offered}, misdelivered {misdelivered}, \
             flits dropped {}",
            d.flits_dropped
        ));
    }
    if out.report_mean.to_bits() != d.mean_latency().to_bits() {
        p.push(format!(
            "{name}: report mean latency {} != digest {}",
            out.report_mean,
            d.mean_latency()
        ));
    }
    if job.faulty && out.faults == 0 {
        p.push(format!("{name}: fault plan is empty"));
    }
    if let Some(r) = reference {
        if r.digest != *d {
            p.push(format!(
                "{name}: simulated statistics differ from the first round"
            ));
        }
    }
    p
}

/// Mean over a suite's apps of the faulty/clean latency increase, as
/// `run_figure` computes it.
fn suite_increase(jobs: &[Job], outs: &[JobOut], suite: Suite) -> f64 {
    let mut incs = Vec::new();
    for (j, o) in jobs.iter().zip(outs) {
        if j.app.suite() != suite || !j.faulty {
            continue;
        }
        let clean = jobs
            .iter()
            .zip(outs)
            .find(|(c, _)| c.app == j.app && !c.faulty)
            .map(|(_, c)| c.digest.mean_latency())
            .expect("every app has a clean run");
        incs.push((o.digest.mean_latency() / clean - 1.0) * 100.0);
    }
    stats::mean(&incs)
}

pub fn run(ctx: &Ctx) -> Results {
    let mut res = Results::default();
    // Set-up derives the window and the job list and builds the
    // protected mesh once. Serial, so no thread hand-off jitters it.
    let mut setup = Setup::new(SETUP_REPS, || {
        let sim_cfg = sim_config(ctx.derive(0xF178));
        let net = build(net_config(), &FaultPlan::none());
        assert_eq!(net.mesh().len(), 64);
        (jobs(), sim_cfg)
    });
    let (jobs, sim_cfg) = setup.run();
    // Start the shared batch pool, so the first timed round pays no
    // lazy start-up.
    let warm = run_batch(vec![0u8; WORKERS], WORKERS, |w| w);
    assert_eq!(warm.len(), WORKERS);

    // Untraced rounds.
    let mut reference: Option<Vec<JobOut>> = None;
    let mut cycles_total = 0u64;
    let mut job_ms = Vec::new();
    let mut busy = Vec::new();
    let mut straggler = Vec::new();
    let walls = timed_rounds(
        ctx.phase_seconds(),
        1,
        |_| {
            let epoch = Instant::now();
            let outs = run_batch(jobs.clone(), WORKERS, |j| run_job(&j, &sim_cfg, epoch));
            let wall = epoch.elapsed().as_secs_f64();
            for (j, o) in jobs.iter().zip(&outs) {
                let r = reference.as_ref().map(|r| &r[j.index]);
                res.op(verify(j, o, r));
                job_ms.push(o.ns as f64 / 1e6);
            }
            cycles_total += outs.iter().map(|o| o.digest.cycles_run).sum::<u64>();
            busy.push(
                outs.iter().map(|o| o.ns).sum::<u64>() as f64 / 1e9 / (WORKERS as f64 * wall),
            );
            straggler
                .push(ledger::straggler_ns(outs.iter().map(|o| (o.thread, o.end_ns))) as f64 / 1e9);
            if reference.is_none() {
                reference = Some(outs);
            }
        },
        || {
            setup.run();
        },
    );
    res.e2e.insert("setup_s", setup.fastest_s());
    let reference = reference.expect("at least one round");
    let measured: f64 = walls.iter().sum();
    res.e2e
        .insert("sim_cycles_per_s", cycles_total as f64 / measured);
    res.e2e.insert("runs_per_s", job_ms.len() as f64 / measured);
    let digests: Vec<&Digest> = reference.iter().map(|o| &o.digest).collect();
    let lat_sum: u128 = digests.iter().map(|d| d.window_latency_sum).sum();
    let lat_n: u64 = digests.iter().map(|d| d.window_count).sum();
    res.e2e
        .insert("latency_mean_cycles", lat_sum as f64 / lat_n.max(1) as f64);
    let offered: u64 = digests.iter().map(|d| d.counters.0).sum();
    let ejected: u64 = digests.iter().map(|d| d.counters.2).sum();
    res.e2e
        .insert("delivered_fraction", ejected as f64 / offered.max(1) as f64);
    let splash = suite_increase(&jobs, &reference, Suite::Splash2);
    let parsec = suite_increase(&jobs, &reference, Suite::Parsec);
    eprintln!(
        "paper_fig78: {} rounds of {} simulations; overall latency increase under \
         tolerated faults: SPLASH-2 {splash:+.2}% (paper ~10%), PARSEC {parsec:+.2}% \
         (paper ~13%); {} job-time samples",
        walls.len(),
        jobs.len(),
        job_ms.len()
    );
    if !ctx.trace {
        return res;
    }

    // Traced replay of the same jobs through the public layer calls.
    res.layer
        .insert("fault_latency_increase_pct.splash2", splash);
    res.layer
        .insert("fault_latency_increase_pct.parsec", parsec);
    res.layer.insert("batch.busy_frac", stats::median(&busy));
    res.layer
        .insert("batch.straggler_s", stats::median(&straggler));
    sim::router_metrics(&mut res, &digests, 64);
    res.layer
        .insert("sim.skip_ratio", sim::skip_ratio(&digests));
    res.layer.insert("sim.shard_count", 1.0);
    let epoch = Instant::now();
    let mut spans: Vec<Span> = Vec::new();
    let mut capacity_ns = 0u64;
    let mut packets = 0u64;
    let mut router_steps = 0u64;
    let traced_walls = timed_rounds(
        ctx.phase_seconds(),
        1,
        |round| {
            let started = epoch.elapsed().as_nanos() as u64;
            let outs = run_batch(jobs.clone(), WORKERS, |j| {
                traced_job(&j, &sim_cfg, epoch, (round * jobs.len() + j.index) as u64)
            });
            let wall = epoch.elapsed().as_nanos() as u64 - started;
            let job_busy: u64 = outs.iter().map(|o| o.ns).sum();
            capacity_ns += WORKERS as u64 * wall;
            spans.push(Span {
                job: u64::MAX - round as u64,
                id: 0,
                parent: None,
                name: "noc-sim.batch_idle",
                start_ns: started,
                end_ns: started + wall,
                busy_ns: (WORKERS as u64 * wall).saturating_sub(job_busy),
                calls: 1,
            });
            for (j, mut o) in jobs.iter().zip(outs) {
                let mut p = verify(j, &o, Some(&reference[j.index]));
                if o.digest.mean_latency().to_bits() != reference[j.index].report_mean.to_bits() {
                    p.push(format!("{}: traced replay latency differs", j.app.name()));
                }
                res.op(p);
                packets += o.digest.counters.0;
                router_steps += o.digest.routers_stepped;
                spans.append(&mut o.spans);
            }
        },
        || {},
    );
    res.layer
        .insert("faults.plan_us", ledger::mean_us(&spans, "noc-faults.plan"));
    res.layer.insert(
        "sim.construct_us.static",
        ledger::mean_us(&spans, "noc-topology.construct_static"),
    );
    sim::step_metrics(
        &mut res,
        ledger::busy(&spans, "noc-traffic.tick"),
        ledger::busy(&spans, "noc-sim.offer"),
        ledger::busy(&spans, "noc-sim.step"),
        packets,
        router_steps,
    );
    res.absent = vec![
        ("sim.construct_us.adaptive", "static XY routing only"),
        ("sim.load_imbalance", "every network is serial (one shard)"),
        (
            "sim.flight_record_us",
            "tolerated faults never wedge the network",
        ),
        ("campaign", "no link-fault campaign"),
        ("mean_faults_to_failure", "no link-fault campaign"),
        ("snapshot", "no checkpoints"),
        ("service", "no daemon"),
    ];
    ledger::report(
        &mut res,
        &ctx.out_dir.join("spans-paper_fig78.jsonl"),
        &spans,
        capacity_ns,
        stats::median(&walls),
        stats::median(&traced_walls),
        &[
            (
                "shield-router",
                "the RC/VA/SA/XB stages run inside Network::step (noc-sim.step)",
            ),
            ("noc-campaign", "no campaign"),
            (
                "noc-telemetry",
                "no snapshots; counters read in bench.digest",
            ),
            ("noc-service", "no daemon"),
        ],
    );
    res
}
