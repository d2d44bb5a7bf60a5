//! `sharded_month`: `run_scaled` at 1M peers x 31 days x 16 sub-shards,
//! parallel, with `FaultSchedule::scaled_campaign` and time series on —
//! the configuration behind the committed `results/scale.txt`. The seed
//! reassigns the campaign's fault times (see [`config`]).
//!
//! `run_s` is `run_scaled_profiled`, the merged report, the series encode
//! (JSON and digest) and the alert replay. A `ShardProfiler` rides every
//! run: its volatile per-window timings give the runner's window-step
//! latency, which this engine reports under the download-latency metrics
//! because it exposes no per-download durations, and `setup_s`, the first
//! window's step. The traced run does one plain month (for the overhead),
//! then a traced parallel month and a traced sequential oracle, whose
//! outputs must agree.

use crate::check::{same_as_file, same_text, unprofiled_scale_lines, Tally};
use crate::report::Metrics;
use crate::stats::tail_percentile;
use crate::{secs, Opts};
use netsession_core::rng::DetRng;
use netsession_hybrid::alerts::{detected_classes, replay_standard_alerts};
use netsession_hybrid::{run_scaled_profiled, FaultSchedule, ScaledConfig, ScaledOutput};
use netsession_logs::{ProfileDigest, SeriesDigest};
use netsession_obs::profile::ShardProfiler;
use netsession_obs::MetricsRegistry;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Committed stdout of `scale --chaos` at the default seed.
const REFERENCE: &str = "results/scale.txt";
/// Rough host time of one month on 2 CPUs, for sizing a run from
/// `--seconds`: one month below 45 s.
const MONTH_S: f64 = 30.0;

/// The `scale --chaos` configuration, validated. The world is the
/// committed one at every seed (its catalog sets how many bytes the month
/// moves, which varies too much between world seeds for a steady
/// benchmark); the seed reassigns the chaos campaign's fault times among
/// its faults, and the default seed keeps the committed campaign.
fn config(seed: u64) -> ScaledConfig {
    let mut cfg = ScaledConfig {
        peers: 1_000_000,
        objects: 20_000,
        days: 31,
        shards: 16,
        ..ScaledConfig::default()
    };
    cfg.faults = FaultSchedule::scaled_campaign(cfg.days);
    if seed != cfg.seed {
        let mut times: Vec<u64> = cfg.faults.events.iter().map(|f| f.at_hours).collect();
        DetRng::seeded(seed).shuffle(&mut times);
        for (f, at_hours) in cfg.faults.events.iter_mut().zip(times) {
            f.at_hours = at_hours;
        }
    }
    cfg.validate()
        .expect("the scale --chaos configuration is valid");
    cfg
}

/// One month and what the checks and metrics need from it.
struct Month {
    sim_s: f64,
    report_s: f64,
    encode_s: f64,
    replay_s: f64,
    out: ScaledOutput,
    profiler: ShardProfiler,
    /// Report plus time-series and detection lines, as `scale` prints them.
    text: String,
    raised: usize,
    consistency: Result<(), String>,
}

impl Month {
    fn run_s(&self) -> f64 {
        self.sim_s + self.report_s + self.encode_s + self.replay_s
    }

    /// The whole `scale` stdout: needs the digest sink of a traced run.
    fn profiled_text(&self) -> String {
        let stats = self.profiler.exec().stats();
        let stream = self
            .profiler
            .stream_fingerprint()
            .expect("traced runs attach the digest sink");
        let report = self.out.report();
        let tail = &self.text[report.len()..];
        format!(
            "{report}{}  stream {stream}\n{tail}",
            stats.render_report(&self.out.shard_labels, &self.out.shard_peers)
        )
    }
}

fn run_month(cfg: &ScaledConfig, parallel: bool, traced: bool) -> Month {
    let registry = MetricsRegistry::new();
    let profiler = if traced {
        ShardProfiler::new().with_sink(Box::new(ProfileDigest::new()))
    } else {
        ShardProfiler::new()
    };
    let t = Instant::now();
    let (out, profiler) = run_scaled_profiled(cfg, parallel, Some(&registry), Some(profiler));
    let sim_s = secs(t);
    let t = Instant::now();
    let report = black_box(out.report());
    let report_s = secs(t);
    let ts = out
        .timeseries
        .as_ref()
        .expect("the scale configuration samples time series");
    let t = Instant::now();
    black_box(ts.to_json());
    let digest = black_box(SeriesDigest::fingerprint(ts));
    let encode_s = secs(t);
    let t = Instant::now();
    let detections = black_box(replay_standard_alerts(ts));
    let replay_s = secs(t);

    let raised = detections.iter().filter(|d| d.event.raised).count();
    let classes = detected_classes(&detections);
    let text = format!(
        "{report}timeseries: windows={} metrics={} digest={digest}\n\
         detections: {} transitions, {raised} raised, classes [{}]\n",
        ts.windows,
        ts.metrics.len(),
        detections.len(),
        classes.join(", ")
    );
    // Every injected fault class is detected, and the regions add up to
    // the summary.
    let injected: BTreeSet<&str> = out
        .regions
        .iter()
        .flat_map(|r| r.alerts.iter().map(|a| a.class))
        .collect();
    let detected: BTreeSet<&str> = classes.iter().copied().collect();
    let region_downloads: u64 = out.regions.iter().map(|r| r.downloads).sum();
    let consistency = if !injected.is_subset(&detected) || injected.is_empty() {
        Err(format!(
            "injected fault classes {injected:?} not all detected ({detected:?})"
        ))
    } else if region_downloads != out.summary.downloads {
        Err(format!(
            "regions log {region_downloads} downloads, summary {}",
            out.summary.downloads
        ))
    } else {
        Ok(())
    };
    Month {
        sim_s,
        report_s,
        encode_s,
        replay_s,
        out,
        profiler: profiler.expect("the profiler rides the whole run"),
        text,
        raised,
        consistency,
    }
}

pub fn run(o: &Opts, m: &mut Metrics, tally: &mut Tally) {
    let at_reference_seed = o.seed == ScaledConfig::default().seed;
    let cfg = config(o.seed);
    let reference =
        || std::fs::read_to_string(REFERENCE).map_err(|e| format!("cannot read {REFERENCE}: {e}"));

    let months = if o.trace {
        1
    } else {
        crate::units(o.seconds, MONTH_S, 1)
    };
    let mut plain: Vec<Month> = Vec::new();
    for _ in 0..months {
        let month = run_month(&cfg, true, false);
        let mut outcome = month.consistency.clone();
        if at_reference_seed {
            outcome = outcome.and_then(|()| {
                let want = unprofiled_scale_lines(&reference()?);
                same_text(REFERENCE, &month.text, &want)
            });
        }
        if let Some(first) = plain.first() {
            outcome = outcome.and_then(|()| same_text("repeated month", &month.text, &first.text));
        }
        tally.record(outcome);
        record_end_to_end(m, &month);
        plain.push(month);
    }
    if !o.trace {
        return;
    }

    let traced = run_month(&cfg, true, true);
    let oracle = run_month(&cfg, false, true);
    let text = traced.profiled_text();
    let mut outcome = traced.consistency.clone();
    if at_reference_seed {
        outcome = outcome.and_then(|()| same_as_file(&text, REFERENCE));
    }
    outcome = outcome
        .and_then(|()| same_text("traced vs plain", &traced.text, &plain[0].text))
        .and_then(|()| same_text("oracle vs parallel", &oracle.profiled_text(), &text));
    tally.record(outcome);
    tally.record(oracle.consistency.clone());

    let timings = traced.profiler.timings();
    let n = timings.n_shards();
    let ns = |v: u64| v as f64 / 1e9;
    m.set(
        "shard.busy_s",
        ns((0..n).map(|k| timings.busy_total_ns(k)).sum()),
    );
    m.set(
        "shard.wait_s",
        ns((0..n).map(|k| timings.wait_total_ns(k)).sum()),
    );
    m.set("shard.merge_s", ns(timings.merge_total_ns()));
    m.set(
        "shard.wall_critical_path_s",
        ns(timings.wall_critical_path_ns()),
    );
    let stats = traced.profiler.exec().stats();
    m.set("shard.events", traced.out.events as f64);
    m.set("shard.windows", traced.out.windows as f64);
    m.set("shard.cross_messages", traced.out.cross_messages as f64);
    m.set(
        "shard.worker_spawns",
        stats
            .per_shard
            .iter()
            .map(|s| s.windows_occupied)
            .sum::<u64>() as f64,
    );
    m.set("shard.skew", stats.skew());
    m.set("shard.speedup_ceiling", stats.speedup_ceiling());
    m.set("shard.realized_speedup", oracle.sim_s / traced.sim_s);
    m.set("scaled.downloads", traced.out.summary.downloads as f64);
    m.set("scaled.report_s", traced.report_s);
    m.set("timeseries.encode_s", traced.encode_s);
    m.set("alerts.replay_s", traced.replay_s);
    m.set("alerts.raised", traced.raised as f64);
    m.set(
        "trace.overhead_pct",
        crate::overhead_pct(&[traced.run_s()], &[plain[0].run_s()]),
    );
}

fn record_end_to_end(m: &mut Metrics, month: &Month) {
    let run_s = month.run_s();
    m.sample("run_s", run_s);
    m.sample("events_per_s", month.out.events as f64 / month.sim_s);
    let bytes: u64 = month
        .out
        .regions
        .iter()
        .map(|r| r.bytes_peers + r.bytes_infra)
        .sum();
    m.sample("goodput_mib_s", bytes as f64 / (1 << 20) as f64 / run_s);
    // Window-step latency: the host time from one window's start to the
    // next, over every window of the month.
    let starts: Vec<u64> = month
        .profiler
        .timings()
        .windows()
        .iter()
        .map(|w| w.start_ns)
        .collect();
    let steps: Vec<f64> = starts
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / 1e6)
        .collect();
    // Set-up: the engine seeds lazily, so its start-up is the month's
    // first window, in which every shard seeds day 0's logins and first
    // touches its state.
    m.sample("setup_s", steps[0] / 1e3);
    let (p50, p90) = (tail_percentile(&steps, 0.5), tail_percentile(&steps, 0.9));
    m.sample("edge_download_p50_ms", p50);
    m.sample("edge_download_p90_ms", p90);
    m.sample("swarm_download_p50_ms", p50);
    m.sample("swarm_download_p90_ms", p90);
}
