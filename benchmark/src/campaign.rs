//! `campaign_mesh8`: `noc_campaign::run_campaign` on the 8×8 mesh.
//!
//! The `CampaignConfig::quick` shape (static and adaptive arms, faults
//! 1..=2, 100 scenarios per point, fault-free baselines) over two
//! threads. Thousands of short networks instead of one long one: the
//! per-scenario construction (adaptive escape tables), the campaign's
//! own traffic source, low-load stepping dominated by idle-skip and the
//! stall / flight-record classification do the work.
//!
//! The engine's internals are private, so the traced run replays the
//! same scenarios (same configs, fault sets and seeds) through the
//! public layer calls and checks the replay reproduces every scenario.

use crate::ledger::{self, JobSpans, Span};
use crate::sim::{self, Digest, Slot, Timed};
use crate::{stats, timed_rounds, Ctx, Results, Setup, SETUP_REPS};
use noc_campaign::{
    run_campaign, summarise, CampaignConfig, CampaignRun, LinkPool, Outcome, ScenarioResult,
};
use noc_faults::{FaultPlan, LinkFaultEvent};
use noc_sim::{run_batch, Network};
use noc_types::{
    splitmix64, Cycle, Mesh, NetworkConfig, Packet, PacketId, PacketKind, RouterId, RoutingMode,
};
use std::thread::ThreadId;
use std::time::Instant;

/// Scenario threads (the host has two cores).
const THREADS: usize = 2;

fn config(ctx: &Ctx) -> CampaignConfig {
    let mut cc = CampaignConfig::quick(NetworkConfig {
        mesh_k: 8,
        ..NetworkConfig::paper()
    });
    cc.seed = ctx.derive(0xCA4);
    cc.threads = THREADS;
    cc
}

fn mode_tag(mode: RoutingMode) -> &'static str {
    match mode {
        RoutingMode::Static => "static",
        RoutingMode::Adaptive => "adaptive",
    }
}

/// Campaign-level invariants: every scenario classified exactly once
/// (ARCHITECTURE.md §8). The per-scenario invariant, no adaptive
/// deadlock, is [`scenario_problems`]'s.
fn invariants(run: &CampaignRun) -> Vec<String> {
    let cc = &run.config;
    let mut p = Vec::new();
    for s in summarise(run) {
        for &(faults, ok, deg, lost, dead) in &s.outcome_counts {
            if ok + deg + lost + dead != cc.scenarios_per_point {
                p.push(format!(
                    "{} at {faults} faults: outcomes sum to {} of {} scenarios",
                    mode_tag(s.mode),
                    ok + deg + lost + dead,
                    cc.scenarios_per_point
                ));
            }
        }
    }
    let expected = cc.modes.len() * (cc.max_faults * cc.scenarios_per_point) as usize;
    if run.results.len() != expected {
        p.push(format!(
            "{} results, expected {expected}",
            run.results.len()
        ));
    }
    p
}

/// Problems with one scenario of a round: an adaptive deadlock
/// (ARCHITECTURE.md §10), or a difference from the first round.
fn scenario_problems(r: &ScenarioResult, first: Option<&ScenarioResult>) -> Vec<String> {
    let mut p = Vec::new();
    let name = || format!("{} faults {} #{}", mode_tag(r.mode), r.faults, r.scenario);
    if r.mode == RoutingMode::Adaptive && r.outcome == Outcome::Deadlocked {
        p.push(format!("{}: adaptive scenario deadlocked", name()));
    }
    if first.is_some_and(|f| format!("{f:?}") != format!("{r:?}")) {
        p.push(format!("{}: differs from the first round: {r:?}", name()));
    }
    p
}

/// The engine's per-scenario seed mixer.
fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for &p in parts {
        h ^= p;
        splitmix64(&mut h);
    }
    h
}

/// The engine's uniform-random traffic source.
struct Source {
    rng: u64,
    grid: Mesh,
    rate_permille: u64,
    next: u64,
}

impl Source {
    fn tick(&mut self, cycle: Cycle) -> Vec<Packet> {
        let mut out = Vec::new();
        let n = self.grid.len() as u64;
        for src in self.grid.coords() {
            if splitmix64(&mut self.rng) % 1000 >= self.rate_permille {
                continue;
            }
            let dst = loop {
                let d = self
                    .grid
                    .coord_of(RouterId((splitmix64(&mut self.rng) % n) as u16));
                if d != src {
                    break d;
                }
            };
            let kind = if self.next.is_multiple_of(3) {
                PacketKind::Data
            } else {
                PacketKind::Control
            };
            self.next += 1;
            out.push(Packet::new(PacketId(self.next), kind, src, dst, cycle));
        }
        out
    }
}

/// One replayed scenario.
struct Replay {
    offered: u64,
    delivered: u64,
    misdelivered: u64,
    drained: bool,
    mean_latency_x100: u64,
    cycles_run: Cycle,
    wait_cycle: Vec<String>,
    digest: Digest,
    ns: u64,
    end_ns: u64,
    thread: ThreadId,
    spans: Vec<Span>,
}

/// Replay one scenario as the engine runs it, with a span around each
/// public call.
fn replay_one(
    cc: &CampaignConfig,
    mode: RoutingMode,
    faults: &[LinkFaultEvent],
    traffic_seed: u64,
    epoch: Instant,
    job: u64,
) -> Replay {
    let t0 = Instant::now();
    let mut sp = JobSpans::new(job, epoch);
    let root = sp.enter("bench.job");
    let mut cfg = cc.base;
    cfg.routing = mode;
    let plan = sp.time("noc-faults.link_plan", || {
        FaultPlan::none().with_link_faults(faults.to_vec())
    });
    let construct = match mode {
        RoutingMode::Static => "noc-topology.construct_static",
        RoutingMode::Adaptive => "noc-topology.construct_adaptive",
    };
    let mut net = sp.time(construct, || {
        Network::with_faults(cfg, cc.router_kind, &plan)
    });
    let mut src = Source {
        rng: traffic_seed,
        grid: net.topology().grid(),
        rate_permille: cc.rate_permille,
        next: 0,
    };
    let budget = cc.inject_cycles + cc.drain_cycles;
    let mut cycle: Cycle = 0;
    let mut drained = false;
    let mut probe = Timed::new(epoch);
    let drive = sp.enter("noc-sim.drive");
    while cycle < budget {
        if cycle < cc.inject_cycles {
            let packets = probe.time(Slot::Tick, || src.tick(cycle));
            probe.time(Slot::Offer, || net.offer_packets(packets));
        }
        probe.time(Slot::Step, || net.step(cycle));
        cycle += 1;
        if cycle >= cc.inject_cycles {
            if net.in_flight_flits() == 0 && net.queued_packets() == 0 {
                drained = true;
                break;
            }
            if net.last_activity + cc.stall_cycles < cycle {
                break;
            }
        }
    }
    probe.record(&mut sp, "noc-campaign.source_tick");
    sp.exit(drive);
    let (offered, _injected, ejected, misdelivered, mean_latency_x100) =
        sp.time("noc-campaign.measure", || {
            let (offered, injected, ejected, misdelivered) = net.packet_counters();
            let deliveries = net.deliveries();
            let mean = if deliveries.is_empty() {
                0
            } else {
                let total: u64 = deliveries
                    .iter()
                    .map(|d| d.ejected_at.saturating_sub(d.created_at))
                    .sum();
                total * 100 / deliveries.len() as u64
            };
            (offered, injected, ejected, misdelivered, mean)
        });
    let wait_cycle = if drained {
        Vec::new()
    } else {
        let record = sp.time("noc-sim.flight_record", || net.flight_record(cycle));
        record
            .cycle_edges
            .map(|edges| edges.iter().map(|e| e.to_string()).collect())
            .unwrap_or_default()
    };
    let digest = sp.time("bench.digest", || {
        Digest::of(&net, (0, cc.inject_cycles), cycle)
    });
    sp.exit(root);
    Replay {
        offered,
        delivered: ejected,
        misdelivered,
        drained,
        mean_latency_x100,
        cycles_run: cycle,
        wait_cycle,
        digest,
        ns: t0.elapsed().as_nanos() as u64,
        end_ns: epoch.elapsed().as_nanos() as u64,
        thread: std::thread::current().id(),
        spans: sp.finish(),
    }
}

/// The engine's classification rule.
fn classify(r: &Replay, baseline_x100: u64, threshold_pct: u64) -> Outcome {
    if !r.drained {
        return if r.wait_cycle.is_empty() {
            Outcome::LostPackets
        } else {
            Outcome::Deadlocked
        };
    }
    if r.delivered < r.offered || r.misdelivered > 0 {
        return Outcome::LostPackets;
    }
    if baseline_x100 > 0 && r.mean_latency_x100 * 100 > baseline_x100 * threshold_pct {
        return Outcome::Degraded;
    }
    Outcome::DeliveredAll
}

pub fn run(ctx: &Ctx) -> Results {
    let mut res = Results::default();
    // Set-up derives the configuration and the link pool faults are
    // drawn from, and builds one network of each arm, serially, so no
    // thread hand-off jitters it.
    let mut setup = Setup::new(SETUP_REPS, || {
        let cc = config(ctx);
        assert!(!LinkPool::new(&cc.base).is_empty());
        for &mode in &cc.modes {
            let mut cfg = cc.base;
            cfg.routing = mode;
            let net = Network::with_faults(cfg, cc.router_kind, &FaultPlan::none());
            assert_eq!(net.mesh().len(), 64);
        }
        cc
    });
    let cc = setup.run();
    // Start the shared batch pool, so the first timed round pays no
    // lazy start-up.
    let warm = run_batch(vec![0u8; THREADS], THREADS, |w| w);
    assert_eq!(warm.len(), THREADS);

    // One operation per scenario and per baseline, and one per round
    // for the campaign-level invariants.
    let mut reference: Option<CampaignRun> = None;
    let mut cycles_total = 0u64;
    let mut runs_total = 0usize;
    let walls = timed_rounds(
        ctx.phase_seconds(),
        1,
        |_| {
            let run = match run_campaign(&cc) {
                Ok(run) => run,
                Err(e) => {
                    res.op(vec![format!("run_campaign failed: {e}")]);
                    return;
                }
            };
            cycles_total += run.results.iter().map(|r| r.cycles_run).sum::<u64>();
            runs_total += run.results.len() + run.baselines.len();
            res.op(invariants(&run));
            let first = reference.as_ref();
            for (i, r) in run.results.iter().enumerate() {
                res.op(scenario_problems(r, first.and_then(|f| f.results.get(i))));
            }
            for (i, b) in run.baselines.iter().enumerate() {
                res.check(first.is_none_or(|f| f.baselines.get(i) == Some(b)), || {
                    format!("baseline {i} differs from the first round: {b:?}")
                });
            }
            reference.get_or_insert(run);
        },
        || {
            setup.run();
        },
    );
    res.e2e.insert("setup_s", setup.fastest_s());
    let Some(reference) = reference else {
        return res;
    };
    let measured: f64 = walls.iter().sum();
    res.e2e
        .insert("sim_cycles_per_s", cycles_total as f64 / measured);
    res.e2e.insert("runs_per_s", runs_total as f64 / measured);
    let delivered: u64 = reference.results.iter().map(|r| r.delivered).sum();
    let offered: u64 = reference.results.iter().map(|r| r.offered).sum();
    let weighted: u64 = reference
        .results
        .iter()
        .map(|r| r.mean_latency_x100 * r.delivered)
        .sum();
    res.e2e.insert(
        "latency_mean_cycles",
        weighted as f64 / 100.0 / delivered.max(1) as f64,
    );
    res.e2e.insert(
        "delivered_fraction",
        delivered as f64 / offered.max(1) as f64,
    );
    let summaries = summarise(&reference);
    for s in &summaries {
        eprintln!(
            "campaign_mesh8: {} mean faults-to-failure {:.4}; outcomes per fault point \
             (faults, delivered_all, degraded, lost_packets, deadlocked) {:?}",
            mode_tag(s.mode),
            s.curve.mean_faults_to_failure(),
            s.outcome_counts
        );
    }
    eprintln!(
        "campaign_mesh8: {} rounds of {} scenario runs",
        walls.len(),
        reference.results.len() + reference.baselines.len()
    );
    if !ctx.trace {
        return res;
    }

    for s in &summaries {
        let (mftf, counts) = match s.mode {
            RoutingMode::Static => (
                "mean_faults_to_failure.static",
                [
                    "campaign.static.delivered_all",
                    "campaign.static.degraded",
                    "campaign.static.lost_packets",
                    "campaign.static.deadlocked",
                ],
            ),
            RoutingMode::Adaptive => (
                "mean_faults_to_failure.adaptive",
                [
                    "campaign.adaptive.delivered_all",
                    "campaign.adaptive.degraded",
                    "campaign.adaptive.lost_packets",
                    "campaign.adaptive.deadlocked",
                ],
            ),
        };
        res.layer.insert(mftf, s.curve.mean_faults_to_failure());
        for (i, name) in counts.iter().enumerate() {
            let total: u32 = s
                .outcome_counts
                .iter()
                .map(|&(_, a, b, c, d)| [a, b, c, d][i])
                .sum();
            res.layer.insert(name, f64::from(total));
        }
    }
    let n = reference.results.len() as f64;
    res.layer.insert(
        "campaign.cycles_per_scenario",
        reference.results.iter().map(|r| r.cycles_run).sum::<u64>() as f64 / n,
    );
    res.layer.insert(
        "campaign.wedged_fraction",
        reference.results.iter().filter(|r| !r.drained).count() as f64 / n,
    );

    // Traced replay: the engine's baselines, fault sets and scenarios.
    let epoch = Instant::now();
    let mut spans: Vec<Span> = Vec::new();
    let mut capacity_ns = 0u64;
    let mut busy = Vec::new();
    let mut straggler = Vec::new();
    let mut digests: Vec<Digest> = Vec::new();
    let mut packets = 0u64;
    let traced_walls = timed_rounds(
        ctx.phase_seconds(),
        1,
        |round| {
            let started = epoch.elapsed().as_nanos() as u64;
            let base = (round as u64) << 32;
            let mut sp = JobSpans::new(base | 0xFFFF_FFFF, epoch);
            let setup = sp.enter("bench.round");
            let pool = sp.time("noc-campaign.link_pool", || LinkPool::new(&cc.base));
            let mut fault_sets: Vec<Vec<LinkFaultEvent>> = Vec::new();
            for faults in 1..=cc.max_faults {
                for s in 0..cc.scenarios_per_point {
                    fault_sets.push(sp.time("noc-campaign.link_sample", || {
                        pool.sample(
                            mix(&[cc.seed, 0xFA_17, faults as u64, s as u64]),
                            faults as usize,
                            cc.inject_cycles,
                        )
                    }));
                }
            }
            sp.exit(setup);
            spans.append(&mut sp.finish());
            let spp = cc.scenarios_per_point;
            let base_jobs: Vec<(RoutingMode, u32, u32)> = cc
                .modes
                .iter()
                .flat_map(|&m| (0..spp).map(move |s| (m, 0, s)))
                .collect();
            let jobs: Vec<(RoutingMode, u32, u32)> = cc
                .modes
                .iter()
                .flat_map(|&m| {
                    (1..=cc.max_faults).flat_map(move |f| (0..spp).map(move |s| (m, f, s)))
                })
                .collect();
            let mut round_busy = 0u64;
            let mut round_straggler = 0u64;
            let mut outs_all = Vec::new();
            for (part, list) in [&base_jobs, &jobs].into_iter().enumerate() {
                let batch_start = epoch.elapsed().as_nanos() as u64;
                let outs = run_batch(list.clone(), THREADS, |(mode, faults, s)| {
                    let set: &[LinkFaultEvent] = if faults == 0 {
                        &[]
                    } else {
                        &fault_sets[(faults - 1) as usize * spp as usize + s as usize]
                    };
                    let job = base
                        | (part as u64) << 24
                        | u64::from(faults) << 16
                        | u64::from(s) << 1
                        | u64::from(mode == RoutingMode::Adaptive);
                    replay_one(
                        &cc,
                        mode,
                        set,
                        mix(&[cc.seed, 0x7_72AF, s as u64]),
                        epoch,
                        job,
                    )
                });
                let batch_wall = epoch.elapsed().as_nanos() as u64 - batch_start;
                let job_busy: u64 = outs.iter().map(|o| o.ns).sum();
                spans.push(Span {
                    job: base | (0xFFFF_FFFE - part as u64),
                    id: 0,
                    parent: None,
                    name: "noc-sim.batch_idle",
                    start_ns: batch_start,
                    end_ns: batch_start + batch_wall,
                    busy_ns: (THREADS as u64 * batch_wall).saturating_sub(job_busy),
                    calls: 1,
                });
                round_busy += job_busy;
                round_straggler += ledger::straggler_ns(outs.iter().map(|o| (o.thread, o.end_ns)));
                outs_all.push(outs);
            }
            let wall = epoch.elapsed().as_nanos() as u64 - started;
            capacity_ns += THREADS as u64 * wall;
            busy.push(round_busy as f64 / (THREADS as u64 * wall) as f64);
            straggler.push(round_straggler as f64 / 1e9);
            let scenarios = outs_all.pop().expect("scenario batch");
            let baselines = outs_all.pop().expect("baseline batch");
            for (i, ((mode, _, _), b)) in base_jobs.iter().zip(&baselines).enumerate() {
                let (rm, rl) = reference.baselines[i];
                res.check(rm == *mode && rl == b.mean_latency_x100, || {
                    format!(
                        "replayed baseline {i} latency {} != {rl}",
                        b.mean_latency_x100
                    )
                });
            }
            for ((mode, faults, s), o) in jobs.iter().zip(&scenarios) {
                let bi = cc.modes.iter().position(|m| m == mode).unwrap_or(0) * spp as usize
                    + *s as usize;
                let outcome = classify(
                    o,
                    baselines[bi].mean_latency_x100,
                    cc.degraded_threshold_pct,
                );
                let r = reference
                    .results
                    .iter()
                    .find(|r| r.mode == *mode && r.faults == *faults && r.scenario == *s);
                let same = r.is_some_and(|r| {
                    r.outcome == outcome
                        && r.offered == o.offered
                        && r.delivered == o.delivered
                        && r.mean_latency_x100 == o.mean_latency_x100
                        && r.drained == o.drained
                        && r.cycles_run == o.cycles_run
                        && r.wait_cycle == o.wait_cycle
                });
                res.check(same, || {
                    format!(
                        "replayed scenario {} faults {faults} #{s} differs from run_campaign",
                        mode_tag(*mode)
                    )
                });
            }
            for o in baselines.into_iter().chain(scenarios) {
                packets += o.digest.counters.0;
                spans.extend(o.spans);
                if round == 0 {
                    digests.push(o.digest);
                }
            }
        },
        || {},
    );
    let mean_us = |name: &str| ledger::mean_us(&spans, name);
    res.layer.insert(
        "sim.construct_us.static",
        mean_us("noc-topology.construct_static"),
    );
    res.layer.insert(
        "sim.construct_us.adaptive",
        mean_us("noc-topology.construct_adaptive"),
    );
    res.layer.insert(
        "campaign.link_sample_us",
        mean_us("noc-campaign.link_sample"),
    );
    if ledger::busy(&spans, "noc-sim.flight_record").1 > 0 {
        res.layer
            .insert("sim.flight_record_us", mean_us("noc-sim.flight_record"));
    }
    res.layer.insert("batch.busy_frac", stats::median(&busy));
    res.layer
        .insert("batch.straggler_s", stats::median(&straggler));
    let refs: Vec<&Digest> = digests.iter().collect();
    sim::router_metrics(&mut res, &refs, 64);
    res.layer.insert("sim.skip_ratio", sim::skip_ratio(&refs));
    res.layer.insert("sim.shard_count", 1.0);
    let router_steps: u64 =
        digests.iter().map(|d| d.routers_stepped).sum::<u64>() * traced_walls.len() as u64;
    sim::step_metrics(
        &mut res,
        ledger::busy(&spans, "noc-campaign.source_tick"),
        ledger::busy(&spans, "noc-sim.offer"),
        ledger::busy(&spans, "noc-sim.step"),
        packets,
        router_steps,
    );
    res.absent = vec![
        ("faults.plan_us", "link faults only; no pipeline-fault plan"),
        ("sim.load_imbalance", "every network is serial (one shard)"),
        (
            "sim.flight_record_us",
            "no scenario wedged, so the flight recorder never ran",
        ),
        ("fault_latency_increase_pct", "no pipeline-fault figure"),
        ("snapshot", "no checkpoints"),
        ("service", "no daemon"),
    ];
    ledger::report(
        &mut res,
        &ctx.out_dir.join("spans-campaign_mesh8.jsonl"),
        &spans,
        capacity_ns,
        stats::median(&walls),
        stats::median(&traced_walls),
        &[
            (
                "shield-router",
                "the RC/VA/SA/XB stages run inside Network::step (noc-sim.step)",
            ),
            ("noc-traffic", "the campaign uses its own traffic source"),
            (
                "noc-telemetry",
                "no snapshots; counters read in bench.digest",
            ),
            ("noc-service", "no daemon"),
        ],
    );
    res
}
