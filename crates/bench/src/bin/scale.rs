//! `scale` — the million-peer sharded-runner bench and determinism gate.
//!
//! Runs [`netsession_hybrid::run_scaled`] at a configurable population and
//! prints the deterministic merged report — now followed by the shard
//! profiler's load-imbalance report — on **stdout** (byte-identical
//! run-to-run and parallel-vs-sequential — `scripts/check.sh` diffs the
//! two). Wall-clock and peak-RSS timings go to **stderr**, keeping stdout
//! replayable, and three sidecars land in `results/`:
//!
//! - `scale.metrics.json` — registry snapshot (incl. the idempotent
//!   `shard.*` counters), PR 1 convention;
//! - `scale.profile.json` — `netsession-shard-profile/1`: the
//!   deterministic imbalance profile plus a clearly separated volatile
//!   timing section (busy / barrier-wait / merge wall time);
//! - `scale.shardtrace.json` — Perfetto/Chrome timeline, one track per
//!   shard, slices named busy/wait/merge — plus virtual-time counter
//!   tracks for the merged time series;
//! - `scale.timeseries.json` — `netsession-timeseries/1`: the merged
//!   per-(metric, region) sim-hour series, the structured injected-fault
//!   log, and the `AlertEngine` detections replayed over the series.
//!
//! ```text
//! scale                        1M peers, 31 days, 16 sub-shards, parallel
//! scale --smoke                20k peers, 7 days, 2 shards (CI gate scale)
//! scale --sequential           run the sequential oracle instead
//! scale --chaos                inject FaultSchedule::scaled_campaign(days)
//! scale --no-timeseries        disable series sampling (stdout reverts to
//!                              the pre-telemetry byte format)
//! scale --peers N --days N --objects N --shards K --window-secs S --seed S
//! scale --profile-det-out F    also write ONLY the deterministic profile
//!                              JSON to F (the check.sh byte-diff target)
//! scale --timeseries-out F     also write the timeseries sidecar to F
//!                              (the check.sh byte-diff target)
//! scale --lint-profile F       validate a scale.profile.json and exit
//! scale --lint-timeseries F    validate a scale.timeseries.json and exit
//! ```
//!
//! Flag order never matters: explicit value flags override the `--smoke`
//! preset wherever they appear, and the effective config is validated at
//! parse time (`ScaledConfig::validate`) with an actionable error instead
//! of a deep panic. Shards are contiguous sub-region blocks, so `K` may
//! exceed the nine regions (up to `MAX_SHARDS`, and never above the
//! population).

use netsession_bench::runner::{timeseries_sidecar_json, Cli};
use netsession_core::time::SimDuration;
use netsession_hybrid::alerts::{detected_classes, replay_standard_alerts};
use netsession_hybrid::{run_scaled_profiled, FaultSchedule, ScaledAlert, ScaledConfig};
use netsession_logs::{ProfileDigest, SeriesDigest};
use netsession_obs::profile::{ImbalanceStats, ShardProfiler};
use netsession_obs::MetricsRegistry;
use std::time::Instant;

fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

const USAGE: &str = "\
usage: scale [--smoke] [--sequential | --parallel] [--chaos] [--no-timeseries]
             [--peers N] [--days N] [--objects N] [--shards K]
             [--window-secs S] [--seed S]
             [--profile-det-out FILE] [--timeseries-out FILE]
       scale --lint-profile FILE
       scale --lint-timeseries FILE

Default: 1M peers, 31 days, 16 sub-shards, parallel. --smoke: 20k peers,
7 days, 2 shards; explicit value flags override it wherever they appear.
";

/// Run a sidecar lint and exit: 0 when it passes, 1 when it fails.
fn lint(kind: &str, path: &str, result: Result<(), String>) -> ! {
    match result {
        Ok(()) => {
            println!("{kind} lint OK: {path}");
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("{kind} lint FAILED: {e}");
            std::process::exit(1)
        }
    }
}

fn main() {
    let mut cli = Cli::new(USAGE);
    // Overrides are collected first and applied after the base config is
    // chosen, so `--shards 16 --smoke` and `--smoke --shards 16` mean the
    // same thing (explicit flags always beat the smoke preset).
    let mut smoke = false;
    let mut parallel = true;
    let mut chaos = false;
    let mut timeseries = true;
    let mut det_out: Option<String> = None;
    let mut ts_out: Option<String> = None;
    let mut peers: Option<u64> = None;
    let mut objects: Option<u64> = None;
    let mut days: Option<u64> = None;
    let mut shards: Option<usize> = None;
    let mut window_secs: Option<u64> = None;
    let mut seed: Option<u64> = None;
    while let Some(arg) = cli.arg() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--parallel" => parallel = true,
            "--sequential" => parallel = false,
            "--peers" => peers = Some(cli.value(&arg)),
            "--objects" => objects = Some(cli.value(&arg)),
            "--days" => days = Some(cli.value(&arg)),
            "--shards" => shards = Some(cli.value(&arg)),
            "--window-secs" => window_secs = Some(cli.value(&arg)),
            "--seed" => seed = Some(cli.value(&arg)),
            "--chaos" => chaos = true,
            "--no-timeseries" => timeseries = false,
            "--profile-det-out" => det_out = Some(cli.value(&arg)),
            "--timeseries-out" => ts_out = Some(cli.value(&arg)),
            "--lint-timeseries" => {
                let path: String = cli.value(&arg);
                lint(
                    "timeseries",
                    &path,
                    netsession_bench::ts_lint::lint_timeseries(&path),
                )
            }
            "--lint-profile" => {
                let path: String = cli.value(&arg);
                lint(
                    "profile",
                    &path,
                    netsession_bench::profile_lint::lint_profile(&path),
                )
            }
            other => cli.fail(&format!("unknown argument {other}")),
        }
    }

    let mut cfg = if smoke {
        ScaledConfig::smoke()
    } else {
        ScaledConfig {
            peers: 1_000_000,
            objects: 20_000,
            days: 31,
            shards: 16,
            ..ScaledConfig::default()
        }
    };
    if let Some(v) = peers {
        cfg.peers = v;
    }
    if let Some(v) = objects {
        cfg.objects = v;
    }
    if let Some(v) = days {
        cfg.days = v;
    }
    if let Some(v) = shards {
        cfg.shards = v;
    }
    if let Some(v) = window_secs {
        cfg.window = SimDuration::from_secs(v);
    }
    if let Some(v) = seed {
        cfg.seed = v;
    }
    cfg.timeseries = timeseries;
    if chaos {
        cfg.faults = FaultSchedule::scaled_campaign(cfg.days);
    }
    // Validate the *effective* config here, where the error can name the
    // flag to fix — not as a panic deep inside the world constructor.
    if let Err(e) = cfg.validate() {
        eprintln!("scale: invalid configuration: {e}");
        std::process::exit(2);
    }

    eprintln!(
        "# scale: {} peers, {} days, {} shards, {}",
        cfg.peers,
        cfg.days,
        cfg.shards,
        if parallel { "parallel" } else { "sequential" }
    );
    let registry = MetricsRegistry::new();
    let profiler = ShardProfiler::new().with_sink(Box::new(ProfileDigest::new()));
    let t = Instant::now();
    let (out, profiler) = run_scaled_profiled(&cfg, parallel, Some(&registry), Some(profiler));
    let wall = t.elapsed().as_secs_f64();
    let profiler = profiler.expect("profiler rides the whole run");
    let stats = profiler.exec().stats();
    let stream = profiler.stream_fingerprint().expect("digest sink attached");

    // Deterministic stdout: merged report, then the shard profile, then
    // the time-series fingerprint and detections (sampling on only — with
    // `--no-timeseries` these lines vanish and stdout is byte-identical
    // to the pre-telemetry format). Every half is byte-identical
    // sequential-vs-parallel and run-to-run.
    print!("{}", out.report());
    print!(
        "{}",
        stats.render_report(&out.shard_labels, &out.shard_peers)
    );
    println!("  stream {stream}");
    let detections = out.timeseries.as_ref().map(replay_standard_alerts);
    if let (Some(ts), Some(dets)) = (&out.timeseries, &detections) {
        println!(
            "timeseries: windows={} metrics={} digest={}",
            ts.windows,
            ts.metrics.len(),
            SeriesDigest::fingerprint(ts)
        );
        let raised = dets.iter().filter(|d| d.event.raised).count();
        let classes = detected_classes(dets);
        println!(
            "detections: {} transitions, {} raised, classes [{}]",
            dets.len(),
            raised,
            classes.join(", ")
        );
    }

    let det_json = stats.to_json(&out.shard_labels, &out.shard_peers, Some(&stream));
    if let Some(path) = det_out {
        if let Err(e) = std::fs::write(&path, format!("{{\n  \"deterministic\": {det_json}\n}}\n"))
        {
            eprintln!("# profile det-out skipped: {e}");
        }
    }
    let ts_sidecar = match (&out.timeseries, &detections) {
        (Some(ts), Some(dets)) => {
            let alerts: Vec<ScaledAlert> = out
                .regions
                .iter()
                .flat_map(|r| r.alerts.iter().copied())
                .collect();
            let sidecar = timeseries_sidecar_json(ts, &alerts, dets);
            // Self-check the artifact before it lands anywhere: the same
            // lint check.sh runs on the committed copy.
            if let Err(e) = netsession_bench::ts_lint::lint_timeseries_text(&sidecar) {
                eprintln!("scale: fresh timeseries sidecar fails its own lint: {e}");
                std::process::exit(1);
            }
            Some(sidecar)
        }
        _ => None,
    };
    if let (Some(path), Some(sidecar)) = (&ts_out, &ts_sidecar) {
        if let Err(e) = std::fs::write(path, sidecar) {
            eprintln!("# timeseries-out skipped: {e}");
        }
    }

    // Sidecars (stderr-announced, stdout untouched).
    netsession_bench::runner::write_metrics_sidecar("scale", &registry);
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let timings = profiler.timings();
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut vol = String::new();
        {
            use std::fmt::Write;
            let _ = writeln!(vol, "{{");
            let _ = writeln!(
                vol,
                "    \"mode\": \"{}\",",
                if parallel { "parallel" } else { "sequential" }
            );
            let _ = writeln!(
                vol,
                "    \"cpus\": {},",
                std::thread::available_parallelism().map_or(0, |n| n.get())
            );
            let _ = writeln!(vol, "    \"wall_s\": {wall:.3},");
            let busy: Vec<String> = (0..timings.n_shards())
                .map(|k| format!("{:.1}", ms(timings.busy_total_ns(k))))
                .collect();
            let waitv: Vec<String> = (0..timings.n_shards())
                .map(|k| format!("{:.1}", ms(timings.wait_total_ns(k))))
                .collect();
            let _ = writeln!(vol, "    \"busy_ms\": [{}],", busy.join(", "));
            let _ = writeln!(vol, "    \"wait_ms\": [{}],", waitv.join(", "));
            let _ = writeln!(
                vol,
                "    \"merge_ms\": {:.1},",
                ms(timings.merge_total_ns())
            );
            let _ = writeln!(
                vol,
                "    \"wall_critical_path_ms\": {:.1},",
                ms(timings.wall_critical_path_ns())
            );
            let _ = writeln!(
                vol,
                "    \"wall_speedup_ceiling\": {:.3}",
                timings.wall_speedup_ceiling()
            );
            let _ = write!(vol, "  }}");
        }
        let profile = format!(
            "{{\n  \"schema\": \"netsession-shard-profile/1\",\n  \"deterministic\": {det_json},\n  \"volatile\": {vol}\n}}\n"
        );
        match std::fs::write(dir.join("scale.profile.json"), profile) {
            Ok(()) => eprintln!("# profile sidecar: results/scale.profile.json"),
            Err(e) => eprintln!("# profile sidecar skipped: {e}"),
        }
        // Per-shard bucket budget shrinks as shards grow so the export
        // stays under the 1 MiB trace budget at any (K, population).
        let buckets = (2048 / cfg.shards.max(1)).clamp(64, 512);
        let mut trace = profiler.timings().export_chrome_json(buckets);
        if let Some(ts) = &out.timeseries {
            // Counter tracks ride the same trace on their own pid (the
            // slice pids are 0..shards for workers plus one for the
            // barrier) with their own coalescing budget, sized so the
            // whole file stays within the 1 MiB lint at month scale.
            let ts_buckets = (1536 / ts.metrics.len().max(1)).clamp(32, 128);
            let counters = ts.chrome_counter_events(cfg.shards + 1, ts_buckets);
            if let Some(pos) = trace.rfind("\n]}") {
                trace.insert_str(pos, &counters);
            }
        }
        match std::fs::write(dir.join("scale.shardtrace.json"), trace) {
            Ok(()) => eprintln!("# shardtrace sidecar: results/scale.shardtrace.json"),
            Err(e) => eprintln!("# shardtrace sidecar skipped: {e}"),
        }
        if let Some(sidecar) = &ts_sidecar {
            match std::fs::write(dir.join("scale.timeseries.json"), sidecar) {
                Ok(()) => eprintln!("# timeseries sidecar: results/scale.timeseries.json"),
                Err(e) => eprintln!("# timeseries sidecar skipped: {e}"),
            }
        }
    }
    // Self-check the artifact we just wrote (cheap, catches drift early).
    let _ = ImbalanceStats::parse_json(&det_json).expect("deterministic profile round-trips");

    eprintln!(
        "# wall {:.1} s, {:.0} events/s, peak RSS {} KiB",
        wall,
        out.events as f64 / wall,
        peak_rss_kb().unwrap_or(0)
    );
}
