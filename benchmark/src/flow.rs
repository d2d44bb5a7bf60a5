//! `flow_month`: the per-flow `HybridSim` month at the committed `headline`
//! scale (30k peers, 40k downloads, fault-free).
//!
//! One repetition builds a fresh `Scenario` (set-up), runs the month,
//! computes `overview::headline`, serialises both sidecars and drops the
//! `SimOutput` (together `run_s`). A run does `--seconds` / 5 s months,
//! at least two, whatever their speed. Every seed runs the committed
//! headline world; the seed is the built scenario's run seed. The traced
//! run alternates two plain and two traced months: a traced month also
//! reads the registry's counters and volatile histograms, outside the
//! timed spans.

use crate::check::{same_as_file, same_text, Tally};
use crate::report::Metrics;
use crate::stats::tail_percentile;
use crate::{secs, Opts};
use netsession_analytics::overview::{self, Headline};
use netsession_bench::runner::{config_for, pct, ExperimentArgs};
use netsession_core::hash::sha256;
use netsession_hybrid::{HybridSim, Scenario, SimOutput};
use netsession_logs::records::DownloadOutcome;
use std::hint::black_box;
use std::time::Instant;

/// Committed output of the `headline` binary at the default seed.
const REFERENCE: &str = "results/headline.txt";
/// `Scenario::build` samples per run.
const SETUPS: usize = 7;
/// Rough host time of one month, for sizing a run from `--seconds`.
const MONTH_S: f64 = 5.0;
/// Volatile per-event-type handler timings the event loop records.
const HANDLERS: [&str; 9] = [
    "hybrid.ev_online_ns",
    "hybrid.ev_offline_ns",
    "hybrid.ev_arrival_ns",
    "hybrid.ev_tick_ns",
    "hybrid.ev_control_restart_ns",
    "hybrid.ev_fault_ns",
    "hybrid.ev_readmit_ns",
    "hybrid.ev_readd_ns",
    "hybrid.ev_edge_recover_ns",
];

/// What one month produced, for the checks and the metrics.
struct Month {
    month_s: f64,
    headline_s: f64,
    export_s: f64,
    drop_s: f64,
    /// The `headline` binary's stdout, rebuilt from the run's outputs.
    text: String,
    /// SHA-256 of the deterministic registry snapshot.
    snapshot: String,
    outcomes: Result<(), String>,
    events: u64,
    content_bytes: u64,
    /// Simulated durations (ms) of completed downloads, split by whether
    /// the provider enabled peer assistance for the object.
    edge_ms: Vec<f64>,
    swarm_ms: Vec<f64>,
    /// Per-layer samples, traced months only.
    layers: Option<Vec<(&'static str, f64)>>,
}

impl Month {
    fn run_s(&self) -> f64 {
        self.month_s + self.headline_s + self.export_s + self.drop_s
    }
}

pub fn run(o: &Opts, m: &mut Metrics, tally: &mut Tally) {
    // The committed headline world (population, catalog, requests) at
    // every seed; the seed drives the month itself.
    let at_reference_seed = o.seed == ExperimentArgs::default().seed;
    let cfg = config_for(&ExperimentArgs::default());
    let months = if o.trace {
        4
    } else {
        crate::units(o.seconds, MONTH_S, 2)
    };
    let mut first: Option<(String, String)> = None;
    let (mut plain_run_s, mut traced_run_s) = (Vec::new(), Vec::new());
    for i in 1..=months {
        let t = Instant::now();
        let mut scenario = Scenario::build(cfg.clone());
        m.sample("setup_s", secs(t));
        scenario.config.seed = o.seed;
        let traced = o.trace && i % 2 == 0;
        let month = run_month(scenario, traced);

        // Checks: outcome counts add up, every month of the run, plain or
        // traced, produces the same output and deterministic registry
        // snapshot, and at the default seed the output is the committed
        // one.
        let mut outcome = month.outcomes.clone();
        if at_reference_seed {
            outcome = outcome.and_then(|()| same_as_file(&month.text, REFERENCE));
        }
        let first = first.get_or_insert_with(|| (month.text.clone(), month.snapshot.clone()));
        outcome = outcome.and_then(|()| same_text("repeated month", &month.text, &first.0));
        if month.snapshot != first.1 {
            outcome = outcome.and(Err("months differ in their registry snapshot".into()));
        }
        tally.record(outcome);

        let run_s = month.run_s();
        eprintln!(
            "# flow_month: month {i}{}: run_s {run_s:.3} s ({:.3} s simulating)",
            if traced { " (traced)" } else { "" },
            month.month_s
        );
        m.sample("run_s", run_s);
        m.sample("events_per_s", month.events as f64 / month.month_s);
        m.sample(
            "goodput_mib_s",
            month.content_bytes as f64 / (1 << 20) as f64 / run_s,
        );
        m.sample("edge_download_p50_ms", tail_percentile(&month.edge_ms, 0.5));
        m.sample("edge_download_p90_ms", tail_percentile(&month.edge_ms, 0.9));
        m.sample(
            "swarm_download_p50_ms",
            tail_percentile(&month.swarm_ms, 0.5),
        );
        m.sample(
            "swarm_download_p90_ms",
            tail_percentile(&month.swarm_ms, 0.9),
        );
        match &month.layers {
            Some(layers) => {
                traced_run_s.push(run_s);
                for &(name, v) in layers {
                    m.sample(name, v);
                }
            }
            None => plain_run_s.push(run_s),
        }
    }
    // More set-up samples, so its median rests on several builds.
    for _ in months..SETUPS {
        let t = Instant::now();
        drop(black_box(Scenario::build(cfg.clone())));
        m.sample("setup_s", secs(t));
    }
    if o.trace {
        m.set("hash.sha256_token_ns", token_hash_ns());
        m.set(
            "trace.overhead_pct",
            crate::overhead_pct(&traced_run_s, &plain_run_s),
        );
    }
}

fn run_month(scenario: Scenario, traced: bool) -> Month {
    let t = Instant::now();
    let out = HybridSim::new(scenario).run();
    let month_s = secs(t);
    let t = Instant::now();
    let h = black_box(overview::headline(&out.dataset));
    let headline_s = secs(t);
    let t = Instant::now();
    let metrics_json = black_box(out.metrics.full_snapshot_json());
    let trace_json = black_box(out.trace.export_chrome_json());
    let export_s = secs(t);

    // Untimed: gather what the checks and metrics need.
    let text = headline_text(&h, &out);
    let outcomes = outcome_counts_add_up(&out);
    let counter = |name: &str| out.metrics.counter(name).get();
    let events = counter("sim.events_processed");
    let content_bytes = out.stats.p2p_bytes + out.stats.edge_bytes;
    let (mut edge_ms, mut swarm_ms) = (Vec::new(), Vec::new());
    for d in &out.dataset.downloads {
        if d.outcome == DownloadOutcome::Completed {
            let ms = (d.ended.as_micros() - d.started.as_micros()) as f64 / 1e3;
            if d.p2p_enabled {
                swarm_ms.push(ms);
            } else {
                edge_ms.push(ms);
            }
        }
    }
    let snapshot = sha256(out.metrics.snapshot_json().as_bytes()).to_hex();
    let mut layers = traced.then(|| layer_samples(&out, events, month_s, trace_json.len()));
    drop((metrics_json, trace_json));

    let t = Instant::now();
    drop(out);
    let drop_s = secs(t);
    if let Some(l) = &mut layers {
        l.push(("hybrid.output_drop_s", drop_s));
        l.push(("analytics.report_s", headline_s));
        l.push(("obs.export_s", export_s));
    }
    Month {
        month_s,
        headline_s,
        export_s,
        drop_s,
        text,
        snapshot,
        outcomes,
        events,
        content_bytes,
        edge_ms,
        swarm_ms,
        layers,
    }
}

/// Per-layer samples of a traced month read from the registry: handler
/// times from the volatile histograms, work counts from the counters.
fn layer_samples(
    out: &SimOutput,
    events: u64,
    month_s: f64,
    trace_bytes: usize,
) -> Vec<(&'static str, f64)> {
    let c = |name: &str| out.metrics.counter(name).get() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let handler_s = HANDLERS.map(|h| out.metrics.volatile_histogram(h).sum() as f64 / 1e9);
    let recomputes = c("sim.flownet_recomputes");
    let flows = c("sim.flownet_active_flows_recomputed");
    let queries = c("control.peer_queries");
    vec![
        ("sim.events", events as f64),
        ("hybrid.online_s", handler_s[0]),
        ("hybrid.offline_s", handler_s[1]),
        ("hybrid.arrival_s", handler_s[2]),
        ("hybrid.tick_s", handler_s[3]),
        // Queue pops, the in-loop alert scrape and clock reads.
        (
            "hybrid.loop_other_s",
            month_s - handler_s.iter().sum::<f64>(),
        ),
        ("flownet.recomputes", recomputes),
        ("flownet.flows_recomputed", flows),
        ("flownet.flows_per_recompute", ratio(flows, recomputes)),
        ("control.peer_queries", queries),
        (
            "control.peers_per_query",
            ratio(c("control.peers_selected"), queries),
        ),
        (
            "control.empty_selection_pct",
            100.0 * ratio(c("control.empty_selections"), queries),
        ),
        ("control.logins", c("control.logins")),
        (
            "nat.traversal_ok_pct",
            100.0 * ratio(c("peer.nat_traversal_ok"), c("peer.nat_traversal_attempts")),
        ),
        ("peer.edge_fallbacks", c("peer.edge_fallbacks")),
        ("edge.auth_grants", c("edge.auth_grants")),
        ("obs.trace_bytes", trace_bytes as f64),
    ]
}

/// Every logged download has exactly one outcome, and the dataset's
/// outcome counts equal the run statistics.
fn outcome_counts_add_up(out: &SimOutput) -> Result<(), String> {
    let (mut ok, mut ab, mut sys, mut env) = (0u64, 0u64, 0u64, 0u64);
    for d in &out.dataset.downloads {
        match d.outcome {
            DownloadOutcome::Completed => ok += 1,
            DownloadOutcome::Abandoned => ab += 1,
            DownloadOutcome::Failed {
                system_related: true,
            } => sys += 1,
            DownloadOutcome::Failed {
                system_related: false,
            } => env += 1,
        }
    }
    let s = &out.stats;
    let logged = out.dataset.downloads.len() as u64;
    if (ok, ab, sys, env) != (s.completed, s.abandoned, s.failed_system, s.failed_env)
        || ok + ab + sys + env != logged
    {
        return Err(format!(
            "outcome counts: dataset {ok}/{ab}/{sys}/{env} of {logged} logged, stats {}/{}/{}/{}",
            s.completed, s.abandoned, s.failed_system, s.failed_env
        ));
    }
    Ok(())
}

/// The `headline` binary's stdout for this run.
fn headline_text(h: &Headline, out: &SimOutput) -> String {
    let s = &out.stats;
    format!(
        "metric                          paper      measured\n\
         uploads enabled (peers)         ~31%       {}\n\
         p2p-enabled files               1.7%       {}\n\
         bytes on p2p-enabled files      57.4%      {}\n\
         mean peer efficiency (p2p dls)  71.4%      {}\n\
         offload (bytes-weighted)        70-80%     {}\n\
         \n\
         downloads logged: {}  completed: {}  abandoned: {}  failed(sys/env): {}/{}\n\
         p2p bytes: {:.2} TB  edge bytes: {:.2} TB  logins: {}  punch failures: {}\n",
        pct(h.enabled_fraction),
        pct(h.p2p_file_fraction),
        pct(h.p2p_byte_share),
        pct(h.mean_peer_efficiency),
        pct(h.offload_fraction),
        out.dataset.downloads.len(),
        s.completed,
        s.abandoned,
        s.failed_system,
        s.failed_env,
        s.p2p_bytes as f64 / 1e12,
        s.edge_bytes as f64 / 1e12,
        s.logins,
        s.punch_failures
    )
}

/// SHA-256 of an auth-token-sized input (the 72-byte MAC input
/// `EdgeAuth` hashes per grant): median ns per call over batches.
fn token_hash_ns() -> f64 {
    let input = [0x5au8; 72];
    let batch = 20_000;
    let per_call: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(sha256(black_box(&input)));
            }
            secs(t) * 1e9 / batch as f64
        })
        .collect();
    crate::stats::median(&per_call)
}
