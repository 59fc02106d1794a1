//! The simulation loop shared by the workloads that step a `Network`
//! themselves, and the digest every workload verifies outputs with.

use crate::ledger::{Aggregate, JobSpans};
use noc_sim::{Network, RouterEventTotals};
use noc_telemetry::CellStats;
use noc_traffic::TrafficGenerator;
use noc_types::{splitmix64, Cycle, Packet, SimConfig};
use std::time::Instant;

/// Cycles without crossbar movement (while flits are buffered) before
/// the loop declares a suspected deadlock; the simulator's value.
const WATCHDOG_CYCLES: Cycle = 10_000;

/// Per-cycle calls the traced run times.
#[derive(Clone, Copy)]
pub enum Slot {
    /// `TrafficGenerator::tick_into`.
    Tick = 0,
    /// `Network::offer_packets_from`.
    Offer = 1,
    /// `Network::step`.
    Step = 2,
}

/// Folds every call of each slot into one [`Aggregate`].
pub struct Timed {
    epoch: Instant,
    /// One aggregate per [`Slot`].
    pub aggs: [Aggregate; 3],
}

impl Timed {
    /// Time relative to the job's span epoch.
    pub fn new(epoch: Instant) -> Self {
        Timed {
            epoch,
            aggs: [Aggregate::default(); 3],
        }
    }

    /// Attach the aggregates to the innermost open span of `spans`;
    /// `tick` names the packet source's call.
    pub fn record(&self, spans: &mut JobSpans, tick: &'static str) {
        spans.aggregate(tick, &self.aggs[Slot::Tick as usize]);
        spans.aggregate("noc-sim.offer", &self.aggs[Slot::Offer as usize]);
        spans.aggregate("noc-sim.step", &self.aggs[Slot::Step as usize]);
    }

    /// Run `f` as one call of `slot`.
    #[inline]
    pub fn time<R>(&mut self, slot: Slot, f: impl FnOnce() -> R) -> R {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.aggs[slot as usize].add(start, end);
        out
    }
}

/// How a driven run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunEnd {
    /// Cycles stepped.
    pub cycles_run: Cycle,
    /// The network drained after the measurement window.
    pub drained: bool,
    /// The watchdog fired.
    pub deadlock: bool,
    /// Packets handed to `offer_packets_from`.
    pub packets: u64,
}

/// Drive `net` with `gen` through warm-up, measurement and drain, with
/// the same phase, drain and watchdog rules as `Simulator::run_on`,
/// timing every per-cycle call. Only traced replays use this loop; the
/// measured runs go through the simulator's own.
pub fn drive(
    net: &mut Network,
    gen: &mut TrafficGenerator,
    sim: &SimConfig,
    probe: &mut Timed,
) -> RunEnd {
    let measure_end = sim.warmup_cycles + sim.measure_cycles;
    let horizon = sim.total_cycles();
    let mut buf: Vec<Packet> = Vec::new();
    let mut end = RunEnd {
        cycles_run: horizon,
        drained: false,
        deadlock: false,
        packets: 0,
    };
    for cycle in 0..horizon {
        if cycle < measure_end {
            buf.clear();
            probe.time(Slot::Tick, || gen.tick_into(cycle, &mut buf));
            if !buf.is_empty() {
                end.packets += buf.len() as u64;
                probe.time(Slot::Offer, || net.offer_packets_from(&mut buf));
            }
        }
        probe.time(Slot::Step, || net.step(cycle));
        if cycle >= measure_end && net.in_flight_flits() == 0 && net.queued_packets() == 0 {
            end.drained = true;
            end.cycles_run = cycle + 1;
            break;
        }
        if net.in_flight_flits() > 0 && cycle.saturating_sub(net.last_activity) > WATCHDOG_CYCLES {
            end.deadlock = true;
            end.cycles_run = cycle + 1;
            break;
        }
    }
    end
}

/// Every simulated statistic of a network, for exact comparison: the
/// packet counters, the delivery log (as a hash), the router event
/// totals and the per-router counter grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    /// `(offered, injected, ejected, misdelivered)` packets.
    pub counters: (u64, u64, u64, u64),
    /// Flits dropped by faulty crossbars.
    pub flits_dropped: u64,
    /// Flits that left the mesh edge.
    pub flits_edge_dropped: u64,
    /// Flits still in the network.
    pub in_flight: u64,
    /// Packets still queued at NIs.
    pub queued: u64,
    /// Deliveries logged.
    pub deliveries: u64,
    /// Hash over every delivery record in log order.
    pub deliveries_hash: u64,
    /// Router event totals (Shield correction paths).
    pub events: RouterEventTotals,
    /// Per-router counters summed over the grid.
    pub cells: CellStats,
    /// Hash over every per-router counter.
    pub spatial_hash: u64,
    /// Router steps executed / skipped by the worklist.
    pub routers_stepped: u64,
    /// Router steps skipped by the worklist.
    pub routers_skipped: u64,
    /// Summed total latency of deliveries created in the window.
    pub window_latency_sum: u128,
    /// Deliveries created in the window.
    pub window_count: u64,
    /// Cycles stepped.
    pub cycles_run: Cycle,
}

fn fold(h: &mut u64, x: u64) {
    *h ^= x;
    splitmix64(h);
}

impl Digest {
    /// Digest `net` after `cycles_run` cycles; latency statistics cover
    /// packets created in `window` (the measurement window).
    pub fn of(net: &Network, window: (Cycle, Cycle), cycles_run: Cycle) -> Self {
        let mut deliveries_hash = 0x0DE1_17E5;
        let mut window_latency_sum = 0u128;
        let mut window_count = 0u64;
        for d in net.deliveries() {
            for x in [
                d.id.0,
                d.kind as u64,
                u64::from(d.src.x) << 8 | u64::from(d.src.y),
                u64::from(d.dst.x) << 8 | u64::from(d.dst.y),
                d.created_at,
                d.injected_at,
                d.ejected_at,
                u64::from(d.hops),
            ] {
                fold(&mut deliveries_hash, x);
            }
            if d.created_at >= window.0 && d.created_at < window.1 {
                window_latency_sum += u128::from(d.total_latency());
                window_count += 1;
            }
        }
        let grid = net.spatial_grid();
        let mut cells = CellStats::default();
        let mut spatial_hash = 0x5A7_1A1;
        for c in &grid.cells {
            let fields = [
                c.flits_routed,
                c.occ_integral,
                c.va_grants,
                c.va_stalls,
                c.sa_grants,
                c.sa_stalls,
                c.sa_bypass_grants,
                c.va_borrows,
                c.vc_transfers,
            ];
            for x in fields {
                fold(&mut spatial_hash, x);
            }
            cells.flits_routed += c.flits_routed;
            cells.occ_integral += c.occ_integral;
            cells.va_grants += c.va_grants;
            cells.va_stalls += c.va_stalls;
            cells.sa_grants += c.sa_grants;
            cells.sa_stalls += c.sa_stalls;
            cells.sa_bypass_grants += c.sa_bypass_grants;
            cells.va_borrows += c.va_borrows;
            cells.vc_transfers += c.vc_transfers;
        }
        Digest {
            counters: net.packet_counters(),
            flits_dropped: net.flits_dropped,
            flits_edge_dropped: net.flits_edge_dropped,
            in_flight: net.in_flight_flits(),
            queued: net.queued_packets(),
            deliveries: net.deliveries().len() as u64,
            deliveries_hash,
            events: net.router_event_totals(),
            cells,
            spatial_hash,
            routers_stepped: net.routers_stepped(),
            routers_skipped: net.routers_skipped(),
            window_latency_sum,
            window_count,
            cycles_run,
        }
    }

    /// Mean end-to-end latency of window packets, computed as
    /// `NetworkReport` computes it.
    pub fn mean_latency(&self) -> f64 {
        if self.window_count == 0 {
            0.0
        } else {
            self.window_latency_sum as f64 / self.window_count as f64
        }
    }
}

/// Shield-router metrics summed over a set of digests: stall ratios,
/// mean buffer occupancy and the correction-path event counts.
pub fn router_metrics(res: &mut crate::Results, digests: &[&Digest], routers: usize) {
    let mut c = CellStats::default();
    let mut e = RouterEventTotals::default();
    let mut dropped = 0u64;
    let mut router_cycles = 0u64;
    for d in digests {
        c.occ_integral += d.cells.occ_integral;
        c.va_grants += d.cells.va_grants;
        c.va_stalls += d.cells.va_stalls;
        c.sa_grants += d.cells.sa_grants;
        c.sa_stalls += d.cells.sa_stalls;
        e.va_borrows += d.events.va_borrows;
        e.sa_bypass_grants += d.events.sa_bypass_grants;
        e.vc_transfers += d.events.vc_transfers;
        e.secondary_path_flits += d.events.secondary_path_flits;
        dropped += d.flits_dropped;
        router_cycles += d.cycles_run * routers as u64;
    }
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    res.layer
        .insert("router.va_stall_ratio", ratio(c.va_stalls, c.va_grants));
    res.layer
        .insert("router.sa_stall_ratio", ratio(c.sa_stalls, c.sa_grants));
    res.layer.insert(
        "router.occupancy_mean_flits",
        c.occ_integral as f64 / router_cycles.max(1) as f64,
    );
    res.layer.insert("router.va_borrows", e.va_borrows as f64);
    res.layer
        .insert("router.sa_bypass_grants", e.sa_bypass_grants as f64);
    res.layer
        .insert("router.vc_transfers", e.vc_transfers as f64);
    res.layer
        .insert("router.secondary_path_flits", e.secondary_path_flits as f64);
    res.layer.insert("router.flits_dropped", dropped as f64);
}

/// Worklist skip ratio over a set of digests.
pub fn skip_ratio(digests: &[&Digest]) -> f64 {
    let stepped: u64 = digests.iter().map(|d| d.routers_stepped).sum();
    let skipped: u64 = digests.iter().map(|d| d.routers_skipped).sum();
    if stepped + skipped == 0 {
        0.0
    } else {
        skipped as f64 / (stepped + skipped) as f64
    }
}

/// Per-cycle timing metrics from a traced run's aggregates.
pub fn step_metrics(
    res: &mut crate::Results,
    tick: (u64, u64),
    offer: (u64, u64),
    step: (u64, u64),
    packets: u64,
    router_steps: u64,
) {
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    res.layer
        .insert("traffic.tick_ns_per_cycle", per(tick.0, tick.1));
    res.layer
        .insert("sim.offer_ns_per_packet", per(offer.0, packets));
    res.layer
        .insert("sim.step_ns_per_cycle", per(step.0, step.1));
    res.layer
        .insert("sim.step_ns_per_router_step", per(step.0, router_steps));
}
