//! `tsreport` — deterministic operational report over a
//! `netsession-timeseries/1` sidecar, from either month engine
//! (`scale --chaos` writes `scale.timeseries.json`, `repro chaos` writes
//! `chaos.timeseries.json`).
//!
//! Answers the paper's temporal questions from the artifact alone, no
//! re-run needed:
//!
//! - the fleet diurnal curve (mean active peers per window of the day —
//!   the Fig. 2 shape, summed over regions whose local hours differ);
//! - per-region peak/trough windows of download starts;
//! - every injected fault joined to its `AlertEngine` detection with
//!   time-to-detection, plus the local dip vs the region's mean;
//! - the top-N anomalous windows of the fleet completion series.
//!
//! ```text
//! tsreport [path] [--top N]      default path results/scale.timeseries.json
//! ```
//!
//! Window labels follow the sidecar's own grid: `h186` on an hour grid,
//! `h186:30` on a finer one. Everything printed is a pure function of the
//! sidecar bytes, so the output is byte-deterministic and diffable in
//! gates. Input that is not a readable sidecar — malformed JSON, another
//! schema, a catalog missing a metric the report reads — exits 2 with a
//! one-line error before anything is printed.

use netsession_analytics::timeseries::{diurnal_profile, peak_trough, top_anomalies};
use netsession_bench::runner::Cli;
use netsession_hybrid::alerts::{first_detection, SeriesDetection};
use netsession_obs::{json, AlertEvent, MergedSeries};

const HOUR_US: u64 = 3_600_000_000;

struct Fault {
    class: String,
    at_hours: u64,
    window: usize,
    region: String,
    detail: u64,
}

/// Everything the report reads, extracted and checked before any output.
struct Sidecar {
    series: MergedSeries,
    /// Fleet-wide active peers per window.
    active: Vec<i64>,
    /// Download starts per region per window.
    starts: Vec<Vec<i64>>,
    /// Peer-served bytes per region per window.
    bytes_peers: Vec<Vec<i64>>,
    /// Fleet-wide completions per window.
    completed: Vec<i64>,
    faults: Vec<Fault>,
    detections: Vec<SeriesDetection>,
}

fn load(text: &str) -> Result<Sidecar, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some("netsession-timeseries/1") => {}
        other => return Err(format!("not a timeseries sidecar: schema {other:?}")),
    }
    let series = MergedSeries::from_value(doc.get("series").ok_or("missing series section")?)?;
    let metric = |name: &str| {
        series
            .metric(name)
            .ok_or(format!("series catalog is missing {name}"))
    };
    let active = metric("scaled.active_peers")?.global();
    let starts = metric("scaled.downloads_started")?.values.clone();
    let bytes_peers = metric("scaled.bytes_peers")?.values.clone();
    let completed = metric("scaled.downloads_completed")?.global();
    let get_arr = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    };
    let text_of = |v: &json::JsonValue, key: &str| {
        v.get(key)
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let faults = get_arr("alerts")
        .iter()
        .map(|a| Fault {
            class: text_of(a, "class"),
            at_hours: a.get("at_hours").and_then(|v| v.as_u64()).unwrap_or(0),
            window: a.get("window").and_then(|v| v.as_u64()).unwrap_or(0) as usize,
            region: text_of(a, "region"),
            detail: a.get("detail").and_then(|v| v.as_u64()).unwrap_or(0),
        })
        .collect();
    let detections = get_arr("detections")
        .iter()
        .map(|d| SeriesDetection {
            region: d.get("region").and_then(|v| v.as_str()).map(str::to_string),
            event: AlertEvent {
                at_us: d.get("at_us").and_then(|v| v.as_u64()).unwrap_or(0),
                rule: text_of(d, "rule"),
                raised: d.get("raised").and_then(|v| v.as_bool()).unwrap_or(false),
                message: text_of(d, "message"),
            },
        })
        .collect();
    Ok(Sidecar {
        series,
        active,
        starts,
        bytes_peers,
        completed,
        faults,
        detections,
    })
}

/// `h` plus the hour at which window `w` opens, zero-padded to `width`,
/// with the minute appended on a sub-hour grid (`h186` or `h186:30`).
fn window_label(w: usize, interval_us: u64, width: usize) -> String {
    let minutes = w as u64 * interval_us / 60_000_000;
    if interval_us.is_multiple_of(HOUR_US) {
        format!("h{:0width$}", minutes / 60)
    } else {
        format!("h{:0width$}:{:02}", minutes / 60, minutes % 60)
    }
}

const USAGE: &str =
    "usage: tsreport [path] [--top N]   (default path results/scale.timeseries.json)";

fn main() {
    let mut cli = Cli::new(USAGE);
    let mut path = "results/scale.timeseries.json".to_string();
    let mut top_n = 8usize;
    while let Some(arg) = cli.arg() {
        match arg.as_str() {
            "--top" => top_n = cli.value(&arg),
            flag if flag.starts_with('-') => cli.fail(&format!("unknown flag {flag}")),
            _ => path = arg,
        }
    }

    let loaded = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| load(&text));
    let Sidecar {
        series,
        active,
        starts,
        bytes_peers,
        completed,
        faults,
        detections,
    } = match loaded {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tsreport: {path}: {e}");
            std::process::exit(2);
        }
    };

    let interval = series.interval_us.max(1);
    let label = |w: usize| window_label(w, interval, 3);
    let (window_name, slot_name) = if interval == HOUR_US {
        ("sim hour".to_string(), "hour-of-day".to_string())
    } else {
        let min = interval / 60_000_000;
        (
            format!("{min} sim min"),
            format!("{min}-min slot of the day"),
        )
    };
    let windows_per_day = (86_400_000_000 / interval) as usize;
    println!(
        "timeseries report: {} windows x {} s, {} regions, {} metrics, {} faults, {} detections",
        series.windows,
        series.interval_us / 1_000_000,
        series.groups.len(),
        series.metrics.len(),
        faults.len(),
        detections.len()
    );

    // Fleet diurnal curve: mean active peers per window of the day (UTC
    // grid; regional local-time offsets smear the trough, exactly as the
    // paper's global curves do).
    let prof = diurnal_profile(&active, windows_per_day.max(1));
    let peak_slot = prof
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
        .map_or(0, |(s, _)| s);
    let top = prof.iter().cloned().fold(0.0f64, f64::max).max(1.0);
    println!("\ndiurnal curve (mean active peers per {slot_name}, UTC):");
    for (slot, &v) in prof.iter().enumerate() {
        let bar = "#".repeat(((v / top) * 40.0).round() as usize);
        println!(
            "  {} {v:>12.1} {bar}{}",
            window_label(slot, interval, 2),
            if slot == peak_slot { " <- peak" } else { "" }
        );
    }

    // Per-region peak/trough of download starts.
    println!("\nper-region download-start peak/trough (window = {window_name}):");
    for (g, region) in series.groups.iter().enumerate() {
        if let Some((peak, trough)) = peak_trough(&starts[g]) {
            println!(
                "  {region:>14}: peak {} @{}, trough {} @{}",
                peak.value,
                label(peak.window),
                trough.value,
                label(trough.window)
            );
        }
    }

    // Injected faults joined to their detections.
    if !faults.is_empty() {
        println!("\nfault detections (rule join, time-to-detection in minutes):");
        for a in &faults {
            let inject_us = a.at_hours * HOUR_US;
            let hit = first_detection(&detections, &a.class, Some(&a.region), inject_us);
            let g = series.groups.iter().position(|r| *r == a.region);
            let dip = g.map(|g| {
                let row = &bytes_peers[g];
                let mean = row.iter().map(|&v| v as f64).sum::<f64>() / row.len().max(1) as f64;
                let at = row.get(a.window).copied().unwrap_or(0) as f64;
                if mean > 0.0 {
                    100.0 * (at - mean) / mean
                } else {
                    0.0
                }
            });
            match hit {
                Some(d) => println!(
                    "  h{:03} {:>14} {:<11} detail={:<6} -> {} ({}) ttd {:>5.1} min, peer-bytes dip {:+.1}%",
                    a.at_hours,
                    a.region,
                    a.class,
                    a.detail,
                    d.event.rule,
                    d.region.as_deref().unwrap_or("fleet"),
                    (d.event.at_us - inject_us) as f64 / 60e6,
                    dip.unwrap_or(0.0),
                ),
                None => println!(
                    "  h{:03} {:>14} {:<11} detail={:<6} -> UNDETECTED",
                    a.at_hours, a.region, a.class, a.detail
                ),
            }
        }
    }

    // Most anomalous completion windows.
    println!("\ntop {top_n} anomalous windows (fleet downloads completed, |z|):");
    for a in top_anomalies(&completed, top_n) {
        println!("  {} value {:>10} z {:+.2}", label(a.window), a.value, a.z);
    }
}
