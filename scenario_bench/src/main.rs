//! Detection-scenario benchmark: runs one full-stack workload (OLSR, the
//! intrusion detector and the trust plane on the packet simulator) for a
//! given host-time budget, checks every run's outputs and prints its
//! metrics, the last line as one JSON object.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path scenario_bench/Cargo.toml -- \
//!     --workload detect_static --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` repeats untraced runs and reports the end-to-end metrics.
//! `--trace 1` alternates untraced runs with runs whose nodes sit behind
//! the timing shim (`shim.rs`) and reports the per-layer split. Every run
//! must repeat the verdict digest and work counters of the first run of
//! its seed exactly, traced or not; a run that panics or differs counts as
//! failed.

mod measure;
#[cfg(test)]
mod selftest;
mod shim;
mod workload;

use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use measure::{Counters, Outcome};
use shim::{Class, Ledger};
use trustlink_sim::{LogRecord, SimTime};
use workload::Workload;

/// Before each untraced run, the simulator is set up back to back at least
/// `SETUPS_MIN` times, then more until `SETUP_BUDGET_S` host seconds have
/// passed, at most `SETUPS_MAX` times. `setup_s` is the median over all of
/// them: spread over the whole measurement, like the runs, so that it sees
/// the same host drift.
const SETUPS_MIN: usize = 8;
const SETUPS_MAX: usize = 1000;
const SETUP_BUDGET_S: f64 = 0.1;

/// End-to-end metrics, reported with `--trace 0`: `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("delivered_per_s", "frames/s"),
    ("peak_rss_bytes_per_node", "B"),
];

/// Per-layer metrics, reported with `--trace 1`: `(name, unit)`.
const PER_LAYER: [(&str, &str); 34] = [
    ("olsr.node.recv_s", "s"),
    ("olsr.node.recv_frames", "count"),
    ("olsr.node.recv_ns_per_frame", "ns"),
    ("core.detector.analysis_s", "s"),
    ("core.detector.analysis_calls", "count"),
    ("olsr.routing.recompute_s", "s"),
    ("olsr.routing.recompute_calls", "count"),
    ("olsr.mpr.mpr_runs", "count"),
    ("olsr.routing.route_runs", "count"),
    ("olsr.node.flushes", "count"),
    ("olsr.state.refresh_s", "s"),
    ("olsr.node.hello_s", "s"),
    ("olsr.node.tc_s", "s"),
    ("olsr.flood.tc_originated", "count"),
    ("olsr.flood.tc_forwarded", "count"),
    ("core.gossip.gossip_s", "s"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.batches", "count"),
    ("sim.engine.frames_per_batch", "frames"),
    ("sim.radio.sent", "count"),
    ("sim.radio.delivered", "count"),
    ("sim.radio.bytes_sent", "B"),
    ("sim.radio.lost_random", "count"),
    ("sim.radio.lost_collision", "count"),
    ("sim.record.log_records", "count"),
    ("ids.investigation.verdicts", "count"),
    ("ids.investigation.rounds", "count"),
    ("ids.signature.matches", "count"),
    ("first_conviction_sim_s", "sim-s"),
    ("false_convictions", "count"),
    ("conviction_accuracy", "ratio"),
    ("trace.run_s", "s"),
    ("trace.callback_s", "s"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Median of `values`, which must not be empty.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Simulator seeds a run cycles through: `--seed` itself and seeds
/// derived from it, so one run's medians span several random draws of the
/// workload (mobility, loss, jitter) rather than one.
const SEEDS_PER_RUN: u64 = 3;

/// The `k`-th simulator seed of a run with `--seed seed`; the 0th is
/// `seed` itself.
fn run_seed(seed: u64, k: u64) -> u64 {
    seed ^ (k << 32)
}

/// Runs and checks repeatedly within `args.seconds` of host time: a run
/// starts only while the time left still fits one more run as long as the
/// last. Returns the passing runs, the number attempted and the set-up
/// times.
fn measure_runs(args: &Args) -> (Vec<Outcome>, u64, Vec<f64>) {
    let started = Instant::now();
    let mut references: Vec<Option<Counters>> = vec![None; SEEDS_PER_RUN as usize];
    let mut passed = Vec::new();
    let mut setups = Vec::new();
    let mut attempted = 0u64;
    let mut last_run_s = 0.0;
    let min_runs = if args.trace { 2 } else { 1 };
    while attempted < min_runs || started.elapsed().as_secs_f64() + last_run_s <= args.seconds {
        // A traced run follows an untraced run of the same seed, so the
        // pair sees the same inputs and nearly the same host drift.
        let traced = args.trace && attempted % 2 == 1;
        let k = if args.trace { attempted / 2 } else { attempted } % SEEDS_PER_RUN;
        let seed = run_seed(args.seed, k);
        attempted += 1;
        let w = &args.workload;
        let run_started = Instant::now();
        if !args.trace {
            setups.extend(measure::setup_times(w, seed, SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S));
        }
        let run = panic::catch_unwind(AssertUnwindSafe(|| measure::run_once(w, seed, traced)));
        last_run_s = run_started.elapsed().as_secs_f64();
        let reference = &mut references[k as usize];
        let checked = run.map_err(|_| "run panicked".to_string()).and_then(|o| {
            measure::check(w, &o.counters)?;
            if let Some(r) = reference.as_ref() {
                let what = if traced { "traced run" } else { "untraced run" };
                measure::check_repeat(r, &o.counters, what)?;
            }
            Ok(o)
        });
        match checked {
            Ok(o) => {
                println!(
                    "run {attempted} seed {seed} traced {} run_s {:.4} cpu_s {:.2} digest {:016x}",
                    u8::from(traced),
                    o.run_s,
                    o.cpu_s,
                    o.counters.digest
                );
                reference.get_or_insert_with(|| o.counters.clone());
                passed.push(o);
            }
            Err(why) => eprintln!("run {attempted} (seed {seed}) failed: {why}"),
        }
    }
    (passed, attempted, setups)
}

fn end_to_end(w: &Workload, setups: &mut [f64], runs: &[Outcome]) -> Vec<f64> {
    let pick = |f: &dyn Fn(&Outcome) -> f64| median(&mut runs.iter().map(f).collect::<Vec<_>>());
    vec![
        median(setups),
        pick(&|o| o.run_s),
        pick(&|o| o.cpu_s),
        pick(&|o| o.counters.delivered as f64 / o.run_s),
        measure::peak_rss_bytes() as f64 / w.nodes as f64,
    ]
}

fn per_layer(w: &Workload, seed: u64, runs: &[Outcome]) -> Option<Vec<f64>> {
    // Each traced run is compared with the untraced run just before it.
    let mut overhead: Vec<f64> = runs
        .windows(2)
        .filter(|p| p[0].ledger.is_none() && p[1].ledger.is_some())
        .map(|p| p[1].run_s / p[0].run_s)
        .collect();
    if overhead.is_empty() {
        return None;
    }
    let traced: Vec<(&Outcome, &Ledger)> =
        runs.iter().filter_map(|o| Some((o, o.ledger.as_ref()?))).collect();
    let med = |f: &dyn Fn(&Outcome, &Ledger) -> f64| {
        median(&mut traced.iter().map(|(o, l)| f(o, l)).collect::<Vec<_>>())
    };
    let secs = |class: Class| med(&|_, l| l.get(class).nanos as f64 / 1e9);
    // Exact counts come from the traced run of `--seed` itself.
    let (first, ledger) = traced.iter().find(|(o, _)| o.seed == seed).unwrap_or(&traced[0]);
    let c = &first.counters;
    let recv = ledger.get(Class::Receive);
    let callback_s = |l: &Ledger| l.total_nanos() as f64 / 1e9;
    Some(vec![
        secs(Class::Receive),
        recv.units as f64,
        med(&|_, l| {
            let r = l.get(Class::Receive);
            r.nanos as f64 / r.units.max(1) as f64
        }),
        secs(Class::Analysis),
        ledger.get(Class::Analysis).calls as f64,
        secs(Class::Recompute),
        ledger.get(Class::Recompute).calls as f64,
        c.mpr_runs as f64,
        c.route_runs as f64,
        c.flushes as f64,
        secs(Class::Refresh),
        secs(Class::Hello),
        secs(Class::Tc),
        c.tc_originated as f64,
        c.tc_forwarded as f64,
        secs(Class::Gossip),
        med(&|o, l| o.run_s - callback_s(l)),
        recv.calls as f64,
        recv.units as f64 / recv.calls.max(1) as f64,
        c.sent as f64,
        c.delivered as f64,
        c.bytes_sent as f64,
        c.lost_random as f64,
        c.lost_collision as f64,
        c.log_records as f64,
        c.verdicts as f64,
        c.rounds as f64,
        c.matches as f64,
        first_conviction_sim_s(w, c),
        c.false_convictions as f64,
        c.conviction_accuracy(),
        med(&|o, _| o.run_s),
        med(&|_, l| callback_s(l)),
        median(&mut overhead),
    ])
}

/// Sim time of the first true conviction; the window length when the run
/// convicted nobody.
fn first_conviction_sim_s(w: &Workload, c: &Counters) -> f64 {
    c.first_conviction_us.map_or(w.window.as_secs_f64(), |us| us as f64 / 1e6)
}

fn json_metrics(names: &[(&str, &str)], values: &[f64]) -> String {
    let fields: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::all().iter().map(|w| w.name).collect::<Vec<_>>().join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} nodes {} window_sim_s {} trace {} host_cpus {cpus}",
        w.name,
        args.seed,
        w.nodes,
        w.window.as_secs_f64(),
        u8::from(args.trace)
    );
    let (runs, attempted, mut setups) = measure_runs(&args);
    let failed = attempted - runs.len() as u64;
    let (names, values): (&[(&str, &str)], Option<Vec<f64>>) = if runs.is_empty() {
        (&[], None)
    } else if args.trace {
        (&PER_LAYER, per_layer(w, args.seed, &runs))
    } else {
        (&END_TO_END, Some(end_to_end(w, &mut setups, &runs)))
    };
    let Some(values) = values else {
        eprintln!("error: no run passed its checks (or none was traced); nothing to report");
        println!(
            "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}"
        );
        return ExitCode::SUCCESS;
    };
    // The exact outputs of every seed the run cycled through, `--seed`
    // itself first.
    println!("runs {} (traced {})", runs.len(), runs.iter().filter(|o| o.ledger.is_some()).count());
    for k in 0..SEEDS_PER_RUN {
        let seed = run_seed(args.seed, k);
        if let Some(o) = runs.iter().find(|o| o.seed == seed) {
            let c = &o.counters;
            println!(
                "seed {seed} verdict_digest {:016x} first_conviction_sim_s {} false_convictions {} conviction_accuracy {:.4}",
                c.digest,
                first_conviction_sim_s(w, c),
                c.false_convictions,
                c.conviction_accuracy()
            );
            println!("seed {seed} counters {c:?}");
            // Every record the audit logs hold, at its in-memory size: the
            // part of the peak RSS the flight recorder accounts for.
            let record = std::mem::size_of::<(SimTime, LogRecord)>() as u64;
            println!("seed {seed} log_bytes {} ({record} B per record)", c.log_records * record);
        }
    }
    for ((name, unit), v) in names.iter().zip(&values) {
        println!("metric {name} {v} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(names, &values)
    );
    ExitCode::SUCCESS
}
