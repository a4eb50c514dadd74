//! Smoke-size self-test of the benchmark itself:
//!
//! * the timing shim is transparent: a traced run repeats the untraced
//!   run's verdict digest, frame counts and work counters exactly;
//! * the benchmark's own simulator set-up replays `ScenarioBuilder::run`;
//! * every metric name and unit is well formed, and `BENCHMARK.json` lists
//!   exactly the workloads and metrics the benchmark reports.
//!
//! Run with `cargo test --release --manifest-path scenario_bench/Cargo.toml`.

use trustlink_core::{ScenarioBuilder, Topology};
use trustlink_sim::{ChannelModel, SimDuration};

use crate::measure::{self, run_once};
use crate::shim::Class;
use crate::workload::{self, Workload, MEAN_DEGREE, PLACEMENT_SEED};
use crate::{END_TO_END, PER_LAYER};

/// A smoke-size copy of workload `name`: every mechanism of the full
/// workload, on a few dozen nodes (the 4k workload keeps two spoofer
/// blocks).
fn smoke(name: &str) -> Workload {
    let w = workload::by_name(name).expect("workload exists");
    if w.nodes > 256 {
        w.resized(300, SimDuration::from_secs(4))
    } else {
        w.resized(32, SimDuration::from_secs(16))
    }
}

#[test]
fn shim_is_transparent() {
    for w in workload::all() {
        let w = smoke(w.name);
        let plain = run_once(&w, 7, false);
        let traced = run_once(&w, 7, true);
        assert_eq!(plain.counters, traced.counters, "{}: tracing changed the run", w.name);
        assert!(plain.ledger.is_none());
        let ledger = traced.ledger.expect("a traced run has a ledger");
        assert_eq!(
            ledger.get(Class::Receive).units,
            traced.counters.delivered,
            "{}: the shim saw every delivered frame",
            w.name
        );
        assert!(ledger.get(Class::Analysis).calls > 0, "{}: analysis ran", w.name);
        assert!(ledger.total_nanos() > 0);
    }
}

#[test]
fn build_replays_scenario_builder() {
    for w in workload::all() {
        let w = smoke(w.name);
        let seed = PLACEMENT_SEED;
        let ours = run_once(&w, seed, false).counters;
        let mut builder = ScenarioBuilder::new(seed, w.nodes)
            .topology(Topology::RandomGeometric { mean_degree: MEAN_DEGREE })
            .radio(w.radio())
            .olsr(w.olsr.clone())
            .detector(w.detector.clone())
            .mobility(w.mobility.clone())
            .duration(w.window);
        if let Some(tick) = w.mobility_tick {
            builder = builder.mobility_tick(tick);
        }
        if let Some(fading) = w.fading {
            builder = builder.channel(ChannelModel::new().with_fading(fading));
        }
        for (k, spoofer) in w.spoofers().into_iter().enumerate() {
            builder = builder.attacker(spoofer.index(), workload::spoofing(k));
        }
        for (liar, accomplice) in w.liars() {
            builder = builder.liar(liar.index(), workload::cover_for(accomplice));
        }
        let report = builder.run();
        let (theirs, _) = measure::collect(&w, &report.sim, false);
        assert_eq!(ours, theirs, "{}: set-up differs from ScenarioBuilder", w.name);
    }
}

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
    for (name, unit) in &all {
        assert!(well_formed_name(name), "bad metric name {name:?}");
        assert!(well_formed_unit(unit), "bad unit {unit:?} of {name}");
    }
    for (i, (name, _)) in all.iter().enumerate() {
        assert!(all[i + 1..].iter().all(|(other, _)| other != name), "{name} is listed twice");
    }
}

/// The value of `"key": "…"` on `line`, if present.
fn string_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    // The file keeps one entry per line; sort the entries by the list
    // they appear under.
    let (mut section, mut workloads, mut end_to_end, mut per_layer) =
        ("", Vec::new(), Vec::new(), Vec::new());
    for line in text.lines() {
        for key in ["workloads", "end_to_end", "per_layer"] {
            if line.trim_start().starts_with(&format!("\"{key}\"")) {
                section = key;
            }
        }
        let Some(name) = string_field(line, "name") else { continue };
        match section {
            "workloads" => workloads.push(name),
            "end_to_end" => end_to_end.push((name, string_field(line, "unit").unwrap_or(""))),
            "per_layer" => per_layer.push((name, string_field(line, "unit").unwrap_or(""))),
            _ => panic!("entry {name} outside the known lists"),
        }
    }
    let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
    assert_eq!(workloads, names);
    assert_eq!(end_to_end, END_TO_END);
    assert_eq!(per_layer, PER_LAYER);
}
