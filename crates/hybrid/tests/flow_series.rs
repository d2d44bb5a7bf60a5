//! The per-flow engine's windowed series: `HybridSim` records
//! `FLOW_TS_METRICS` at event time next to the registry increments they
//! mirror, and alerts by replaying the standard rules over the result.
//! These tests hold the series to the registry and the dataset, to the
//! queue backend, and to the zero-false-positive claim.

use netsession_hybrid::alerts::replay_standard_alerts;
use netsession_hybrid::{
    FaultEvent, FaultKind, HybridSim, Scenario, ScenarioConfig, SimOutput, FLOW_TS_INTERVAL_US,
    FLOW_TS_METRICS,
};
use netsession_logs::SeriesDigest;
use netsession_obs::timeseries::SeriesKind;

/// The tiny chaos month of `regressions.rs` — one fault of each class —
/// plus a fleet-wide control restart and an edge outage in every region
/// every other day, so the recording sites fire (a single outage in the
/// tiny month cuts no backstop flow).
fn chaos_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::tiny();
    cfg.control_restart_day = Some(3);
    let outages = (1..15u64).flat_map(|day| {
        (0..9).map(move |region| (day * 48, FaultKind::EdgeOutage { region, secs: 600 }))
    });
    cfg.faults.events = [
        (200u64, FaultKind::CnCrash { region: 0 }),
        (350, FaultKind::DnWipe { region: 0 }),
        (
            500,
            FaultKind::EdgeOutage {
                region: 0,
                secs: 3_600,
            },
        ),
        (650, FaultKind::ChurnBurst { fraction: 0.5 }),
    ]
    .into_iter()
    .chain(outages)
    .map(|(at_hours, kind)| FaultEvent { at_hours, kind })
    .collect();
    cfg
}

fn total(out: &SimOutput, name: &str) -> i64 {
    let m = out.timeseries.metric(name).expect("metric in the catalog");
    (0..out.timeseries.groups.len())
        .map(|g| m.group_total(g))
        .sum()
}

#[test]
fn series_totals_match_the_registry_and_the_dataset() {
    let out = HybridSim::run_config(chaos_cfg());
    let ts = &out.timeseries;
    let names: Vec<&str> = ts.metrics.iter().map(|m| m.name.as_str()).collect();
    let catalog: Vec<&str> = FLOW_TS_METRICS.iter().map(|s| s.name).collect();
    assert_eq!(names, catalog);
    assert_eq!(ts.interval_us, FLOW_TS_INTERVAL_US);
    assert_eq!(ts.groups.len(), 9);

    // A recording site missed next to a registry increment shows here.
    for spec in FLOW_TS_METRICS {
        if !spec.name.starts_with("hybrid.fault.") {
            continue;
        }
        assert_eq!(spec.kind, SeriesKind::Counter);
        let registry = out.metrics.counter(spec.name).get();
        // Paced readmission (500 peers/s) reconnects a region before any
        // request arrives, so no download starts edge-only here.
        assert!(
            registry > 0 || spec.name == "hybrid.fault.edge_only_downloads",
            "{} never moved: the campaign misses it",
            spec.name
        );
        assert_eq!(total(&out, spec.name), registry as i64, "{}", spec.name);
    }
    assert_eq!(
        total(&out, "scaled.downloads_started"),
        out.dataset.downloads.len() as i64
    );
    assert_eq!(
        total(&out, "scaled.downloads_completed"),
        out.stats.completed as i64
    );
    let peer_bytes: u64 = out
        .dataset
        .downloads
        .iter()
        .map(|d| d.bytes_peers.bytes())
        .sum();
    assert_eq!(total(&out, "scaled.bytes_peers"), peer_bytes as i64);
    // Every login is matched by at most one logout: the level never dips
    // below zero in any region.
    let active = ts.metric("scaled.active_peers").unwrap();
    assert!(active.values.iter().flatten().all(|&v| v >= 0));
    assert!(active.global().iter().any(|&v| v > 0));
}

#[test]
fn both_queue_backends_record_the_same_series() {
    let build = || HybridSim::new(Scenario::build(chaos_cfg()));
    let wheel = build().run();
    let heap = build().run_with_oracle_queue();
    assert_eq!(
        SeriesDigest::fingerprint(&wheel.timeseries),
        SeriesDigest::fingerprint(&heap.timeseries)
    );
    assert_eq!(wheel.alerts, heap.alerts);
}

#[test]
fn a_fault_free_month_replays_to_zero_transitions() {
    let out = HybridSim::run_config(ScenarioConfig::tiny());
    // The month plus its two-day tail, up to and including the cutoff.
    assert_eq!(out.timeseries.windows, 33 * 48 + 1);
    assert!(out.alerts.is_empty(), "{:?}", out.alerts);
    let detections = replay_standard_alerts(&out.timeseries);
    assert!(detections.is_empty(), "{detections:?}");
}
