//! One measured run of a workload: set-up and run timings, the exact work
//! counters read back from the public accessors, and the output checks.

use std::time::Instant;

use trustlink_attacks::spoof::LinkSpoofing;
use trustlink_core::{DetectorNode, VerdictRecord};
use trustlink_olsr::hooks::OlsrHooks;
use trustlink_sim::{NodeId, Simulator};
use trustlink_trust::decision::Verdict;

use crate::shim::{Ledger, Timed};
use crate::workload::Workload;

/// Exact, machine-independent results of one run. Two runs of one
/// workload and seed must agree on every field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Frames transmitted (`TrafficStats::total_sent`).
    pub sent: u64,
    /// Frames delivered (`TrafficStats::total_received`).
    pub delivered: u64,
    /// Payload bytes transmitted.
    pub bytes_sent: u64,
    /// Receptions lost to the channel's random draws.
    pub lost_random: u64,
    /// Receptions lost to collisions.
    pub lost_collision: u64,
    /// Audit-log records held across all nodes.
    pub log_records: u64,
    /// `RecomputeStats::flushes`, summed over nodes.
    pub flushes: u64,
    /// `RecomputeStats::mpr_runs`, summed over nodes.
    pub mpr_runs: u64,
    /// `RecomputeStats::route_runs`, summed over nodes.
    pub route_runs: u64,
    /// TC messages originated (`FloodStats::originated_total`).
    pub tc_originated: u64,
    /// TC messages forwarded (`FloodStats::forwarded`).
    pub tc_forwarded: u64,
    /// Routing-table entries held at the end of the run.
    pub routes: u64,
    /// Verdict records of every detector.
    pub verdicts: u64,
    /// Investigation rounds (`DetectorNode::detect_history`).
    pub rounds: u64,
    /// Completed signature matches.
    pub matches: u64,
    /// Intruder verdicts against configured spoofers.
    pub true_convictions: u64,
    /// Intruder verdicts against honest nodes.
    pub false_convictions: u64,
    /// Sim time of the first true conviction, in microseconds.
    pub first_conviction_us: Option<u64>,
    /// Earliest verdict of any kind, in microseconds.
    pub first_verdict_us: Option<u64>,
    /// FNV-1a over the verdict stream and the frame counts.
    pub digest: u64,
}

impl Counters {
    /// True Intruder verdicts over all Intruder verdicts; 1 when there are
    /// none, since then no node was convicted wrongly.
    pub fn conviction_accuracy(&self) -> f64 {
        let all = self.true_convictions + self.false_convictions;
        if all == 0 {
            1.0
        } else {
            self.true_convictions as f64 / all as f64
        }
    }
}

/// Host timings and counters of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The simulator seed.
    pub seed: u64,
    /// Host wall seconds of `run_for(window)`.
    pub run_s: f64,
    /// Process user+sys CPU seconds over the window.
    pub cpu_s: f64,
    /// What the run did.
    pub counters: Counters,
    /// Callback costs, in a traced run.
    pub ledger: Option<Ledger>,
}

/// Builds and drops the simulator back to back, at least `min` times and
/// then until `budget_s` host seconds have passed (at most `max` times);
/// returns the host seconds of each set-up.
pub fn setup_times(w: &Workload, seed: u64, min: usize, max: usize, budget_s: f64) -> Vec<f64> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min || (times.len() < max && started.elapsed().as_secs_f64() < budget_s) {
        let t = Instant::now();
        let sim = std::hint::black_box(w.build(seed, false));
        times.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
    times
}

/// Builds the simulator and runs it over the workload's window.
pub fn run_once(w: &Workload, seed: u64, traced: bool) -> Outcome {
    let mut sim = w.build(seed, traced);
    let cpu_before = process_cpu_s();
    let started = Instant::now();
    sim.run_for(w.window);
    let run_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_before;
    let (counters, ledger) = collect(w, &sim, traced);
    Outcome { seed, run_s, cpu_s, counters, ledger }
}

/// What one node's detector reports.
struct NodeView {
    verdicts: Vec<VerdictRecord>,
    rounds: u64,
    matches: u64,
    flushes: u64,
    mpr_runs: u64,
    route_runs: u64,
    tc_originated: u64,
    tc_forwarded: u64,
    routes: u64,
}

fn view<H: OlsrHooks>(d: &DetectorNode<H>) -> NodeView {
    let recompute = d.olsr().recompute_stats();
    let flood = d.olsr().flood_stats();
    NodeView {
        verdicts: d.verdicts().to_vec(),
        rounds: d.detect_history().len() as u64,
        matches: d.signature_matches().len() as u64,
        flushes: recompute.flushes,
        mpr_runs: recompute.mpr_runs,
        route_runs: recompute.route_runs,
        tc_originated: flood.originated_total(),
        tc_forwarded: flood.forwarded,
        routes: d.olsr().routing_table().len() as u64,
    }
}

/// Reads node `id`'s detector and, in a traced run, its shim ledger.
fn node_view(sim: &Simulator, id: NodeId) -> (NodeView, Option<&Ledger>) {
    if let Some(d) = sim.app_as::<DetectorNode>(id) {
        (view(d), None)
    } else if let Some(d) = sim.app_as::<DetectorNode<LinkSpoofing>>(id) {
        (view(d), None)
    } else if let Some(t) = sim.app_as::<Timed<DetectorNode>>(id) {
        (view(&t.inner), Some(&t.ledger))
    } else if let Some(t) = sim.app_as::<Timed<DetectorNode<LinkSpoofing>>>(id) {
        (view(&t.inner), Some(&t.ledger))
    } else {
        panic!("node {id} runs no detector");
    }
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a 64 offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Reads the counters of a finished run off `sim`, and in a traced run
/// the summed shim ledgers.
pub fn collect(w: &Workload, sim: &Simulator, traced: bool) -> (Counters, Option<Ledger>) {
    let spoofers = w.spoofers();
    let stats = sim.stats();
    let mut c = Counters {
        sent: stats.total_sent(),
        delivered: stats.total_received(),
        bytes_sent: stats.total_bytes_sent(),
        lost_random: stats.lost_random,
        lost_collision: stats.lost_collision,
        ..Counters::default()
    };
    let mut ledger = traced.then(Ledger::default);
    let mut digest = FNV_BASIS;
    for id in sim.node_ids() {
        c.log_records += sim.log(id).len() as u64;
        let (v, node_ledger) = node_view(sim, id);
        match (&mut ledger, node_ledger) {
            (Some(total), Some(l)) => total.merge(l),
            (None, None) => {}
            _ => panic!("node {id}: shim presence does not match the run's tracing"),
        }
        c.rounds += v.rounds;
        c.matches += v.matches;
        c.flushes += v.flushes;
        c.mpr_runs += v.mpr_runs;
        c.route_runs += v.route_runs;
        c.tc_originated += v.tc_originated;
        c.tc_forwarded += v.tc_forwarded;
        c.routes += v.routes;
        for r in &v.verdicts {
            c.verdicts += 1;
            let at = r.at.as_micros();
            c.first_verdict_us = Some(c.first_verdict_us.map_or(at, |f| f.min(at)));
            if r.verdict == Verdict::Intruder {
                if spoofers.contains(&r.suspect) {
                    c.true_convictions += 1;
                    c.first_conviction_us = Some(c.first_conviction_us.map_or(at, |f| f.min(at)));
                } else {
                    c.false_convictions += 1;
                }
            }
            let verdict: u8 = match r.verdict {
                Verdict::WellBehaving => 0,
                Verdict::Intruder => 1,
                Verdict::Unrecognized => 2,
            };
            digest = fnv1a(digest, &id.0.to_le_bytes());
            digest = fnv1a(digest, &r.case.to_le_bytes());
            digest = fnv1a(digest, &r.suspect.0.to_le_bytes());
            digest = fnv1a(digest, &[verdict]);
            digest = fnv1a(digest, &at.to_le_bytes());
        }
    }
    digest = fnv1a(digest, &c.sent.to_le_bytes());
    c.digest = fnv1a(digest, &c.delivered.to_le_bytes());
    (c, ledger)
}

/// Checks one run's outputs on their own: the detect workloads convict a
/// configured spoofer, no verdict precedes the detector warm-up, frames
/// flow and routes form. Returns what is wrong, if anything.
pub fn check(w: &Workload, c: &Counters) -> Result<(), String> {
    if c.sent == 0 || c.delivered == 0 {
        return Err(format!("no traffic: {} sent, {} delivered", c.sent, c.delivered));
    }
    if c.routes == 0 {
        return Err("no node learned a route".into());
    }
    let warmup = w.detector.warmup.as_micros();
    if let Some(first) = c.first_verdict_us.filter(|&t| t < warmup) {
        return Err(format!("verdict at {first} us, inside the {warmup} us warm-up"));
    }
    if w.expect_conviction && c.true_convictions == 0 {
        return Err("no configured spoofer was convicted".into());
    }
    Ok(())
}

/// Checks that `c` repeats `reference` exactly: same verdict digest, frame
/// counts and work counters.
pub fn check_repeat(reference: &Counters, c: &Counters, what: &str) -> Result<(), String> {
    if reference == c {
        Ok(())
    } else {
        Err(format!("{what} differs from the first run: {reference:?} vs {c:?}"))
    }
}

/// User plus system CPU seconds of this process, from `/proc/self/stat`
/// (fields 14 and 15, in the kernel's fixed 100 Hz user-visible ticks).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; count fields after it.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("stat tick field is numeric");
    // `rest` starts at field 3, so fields 14 and 15 sit at 11 and 12.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let line =
        status.lines().find(|l| l.starts_with("VmHWM:")).expect("/proc/self/status reports VmHWM");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM holds a number of kB");
    kib * 1024
}
