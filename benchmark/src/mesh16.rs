//! `mesh16_sharded`: one long fault-free 16×16 uniform-random run,
//! stepped by two shard threads.
//!
//! The load (0.04 packets/node/cycle) sits below saturation, so the
//! deliver / shard-step / merge phases, the pool barrier, load-aware
//! re-cutting and the idle-skip worklist do most of the work, while
//! construction and the batch pool do almost none. Each round repeats
//! the same run through `Simulator::run_on`. Before the rounds, the
//! first `PREFIX` cycles on two shards, which span two re-cuts, are
//! checked against a serial run of the same seed.

use crate::ledger::{self, JobSpans, Span};
use crate::sim::{self, Digest, Timed};
use crate::{stats, timed_rounds, Ctx, Results, Setup};
use noc_faults::FaultPlan;
use noc_sim::{Network, NetworkReport, SimOutcome, Simulator};
use noc_traffic::{SyntheticPattern, TrafficConfig, TrafficGenerator};
use noc_types::{Cycle, NetworkConfig, SimConfig};
use shield_router::RouterKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Shard threads stepping the mesh.
const THREADS: usize = 2;
/// Offered load, packets per node per cycle.
const RATE: f64 = 0.04;
/// The network's default re-cut cadence, set explicitly.
const REBALANCE_EVERY: u64 = 1_024;
/// Cycles checked against the serial reference: past the re-cuts at
/// cycles 1024 and 2048.
const PREFIX: Cycle = 2 * REBALANCE_EVERY + 52;

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 10_000,
        drain_cycles: 10_000,
        seed,
    }
}

/// `sim` cut off after `PREFIX` cycles: packets are offered on every
/// one of them, as in the full run.
fn prefix_config(sim: &SimConfig) -> SimConfig {
    SimConfig {
        warmup_cycles: PREFIX,
        measure_cycles: 0,
        drain_cycles: 0,
        seed: sim.seed,
    }
}

fn window(sim: &SimConfig) -> (Cycle, Cycle) {
    (sim.warmup_cycles, sim.warmup_cycles + sim.measure_cycles)
}

fn net_config() -> NetworkConfig {
    NetworkConfig {
        mesh_k: 16,
        ..NetworkConfig::paper()
    }
}

fn build(threads: usize) -> Network {
    let mut net = Network::with_faults(net_config(), RouterKind::Protected, &FaultPlan::none());
    net.set_threads(threads);
    net.set_rebalance_every(REBALANCE_EVERY);
    net
}

fn generator(sim: &SimConfig) -> TrafficGenerator {
    TrafficGenerator::new(
        TrafficConfig::synthetic(SyntheticPattern::UniformRandom, RATE),
        net_config().grid(),
        sim.seed ^ 0x5EED,
    )
}

/// Run `net` under `sim` through the simulator's own loop.
fn simulate(net: &mut Network, sim: &SimConfig) -> (NetworkReport, SimOutcome) {
    let mut gen = generator(sim);
    Simulator::new(net_config(), *sim, RouterKind::Protected, FaultPlan::none())
        .with_threads(net.shard_count())
        .run_on(net, |c, out| gen.tick_into(c, out))
}

/// Problems with one round: credit conservation, full delivery, the
/// simulator's own mean latency when there is a report, and identity
/// with the first round.
fn verify(
    net: &Network,
    drained: bool,
    report_mean: Option<f64>,
    digest: &Digest,
    reference: Option<&Digest>,
) -> Vec<String> {
    let mut p = Vec::new();
    if catch_unwind(AssertUnwindSafe(|| net.assert_credit_conservation())).is_err() {
        p.push("credit conservation violated at the end of the run".into());
    }
    let (offered, _, ejected, misdelivered) = digest.counters;
    if !drained || ejected != offered || misdelivered != 0 {
        p.push(format!(
            "delivered {ejected} of {offered} (drained {drained}, misdelivered {misdelivered})"
        ));
    }
    if let Some(mean) = report_mean.filter(|m| m.to_bits() != digest.mean_latency().to_bits()) {
        p.push(format!(
            "report mean latency {mean} != digest {}",
            digest.mean_latency()
        ));
    }
    if reference.is_some_and(|r| r != digest) {
        p.push("simulated statistics differ from the first round".into());
    }
    p
}

pub fn run(ctx: &Ctx) -> Results {
    let mut res = Results::default();
    // Set-up: the serial reference prefix, once per repetition.
    let mut setup = Setup::new(1, || {
        let sim_cfg = sim_config(ctx.derive(0x16));
        let mut net = build(1);
        let (report, _) = simulate(&mut net, &prefix_config(&sim_cfg));
        let serial = Digest::of(&net, window(&sim_cfg), report.cycles_run);
        (sim_cfg, serial)
    });
    let (sim_cfg, serial_prefix) = setup.run();
    // The same prefix on the shards the rounds use, once: the partition
    // and the re-cuts are deterministic, so every round repeats it.
    let mut net = build(THREADS);
    let (report, _) = simulate(&mut net, &prefix_config(&sim_cfg));
    res.check(
        net.shard_count() == THREADS
            && Digest::of(&net, window(&sim_cfg), report.cycles_run) == serial_prefix,
        || format!("first {PREFIX} cycles on {THREADS} shards differ from the serial run"),
    );

    let mut reference: Option<Digest> = None;
    let mut cycles_total = 0u64;
    let mut imbalance = Vec::new();
    let mut shards = 0usize;
    let walls = timed_rounds(
        ctx.phase_seconds(),
        1,
        |_| {
            let mut net = build(THREADS);
            let (report, outcome) = simulate(&mut net, &sim_cfg);
            cycles_total += report.cycles_run;
            let digest = Digest::of(&net, window(&sim_cfg), report.cycles_run);
            res.op(verify(
                &net,
                outcome == SimOutcome::DrainedEarly,
                Some(report.mean_latency()),
                &digest,
                reference.as_ref(),
            ));
            let profile = net.shard_profile();
            imbalance.push(stats::mean(
                &profile
                    .iter()
                    .map(|p| p.time_imbalance())
                    .collect::<Vec<_>>(),
            ));
            shards = net.shard_count();
            reference.get_or_insert(digest);
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
    res.e2e.insert("runs_per_s", walls.len() as f64 / measured);
    res.e2e
        .insert("latency_mean_cycles", reference.mean_latency());
    res.e2e.insert(
        "delivered_fraction",
        reference.counters.2 as f64 / reference.counters.0.max(1) as f64,
    );
    eprintln!(
        "mesh16_sharded: {} rounds of {} cycles on {shards} shards",
        walls.len(),
        reference.cycles_run
    );
    if !ctx.trace {
        return res;
    }

    sim::router_metrics(&mut res, &[&reference], 256);
    res.layer
        .insert("sim.skip_ratio", sim::skip_ratio(&[&reference]));
    res.layer
        .insert("sim.load_imbalance", stats::median(&imbalance));
    res.layer.insert("sim.shard_count", shards as f64);
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
            let mut sp = JobSpans::new(round as u64, epoch);
            let root = sp.enter("bench.job");
            let mut net = sp.time("noc-topology.construct_static", || build(THREADS));
            let mut gen = sp.time("noc-traffic.generator_new", || generator(&sim_cfg));
            let mut probe = Timed::new(epoch);
            let drive = sp.enter("noc-sim.drive");
            let end = sim::drive(&mut net, &mut gen, &sim_cfg, &mut probe);
            probe.record(&mut sp, "noc-traffic.tick");
            sp.exit(drive);
            let digest = sp.time("bench.digest", || {
                Digest::of(&net, window(&sim_cfg), end.cycles_run)
            });
            let problems = sp.time("bench.verify", || {
                verify(&net, end.drained, None, &digest, Some(&reference))
            });
            sp.exit(root);
            res.op(problems);
            packets += end.packets;
            router_steps += digest.routers_stepped;
            spans.append(&mut sp.finish());
            capacity_ns += epoch.elapsed().as_nanos() as u64 - started;
        },
        || {},
    );
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
        ("faults", "fault-free run"),
        ("sim.flight_record_us", "the run never wedges"),
        ("batch", "one network, no batch pool"),
        ("fault_latency_increase_pct", "fault-free run"),
        ("campaign", "no link-fault campaign"),
        ("mean_faults_to_failure", "no link-fault campaign"),
        ("snapshot", "no checkpoints"),
        ("service", "no daemon"),
    ];
    ledger::report(
        &mut res,
        &ctx.out_dir.join("spans-mesh16_sharded.jsonl"),
        &spans,
        capacity_ns,
        stats::median(&walls),
        stats::median(&traced_walls),
        &[
            (
                "shield-router",
                "the RC/VA/SA/XB stages run inside Network::step (noc-sim.step)",
            ),
            ("noc-faults", "fault-free run"),
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
