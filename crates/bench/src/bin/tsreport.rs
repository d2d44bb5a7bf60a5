//! `tsreport` — deterministic operational report over a
//! `netsession-timeseries/1` sidecar (`scale --chaos` output).
//!
//! Answers the paper's temporal questions from the artifact alone, no
//! re-run needed:
//!
//! - the fleet diurnal curve (mean active peers per hour-of-day — the
//!   Fig. 2 shape, summed over regions whose local hours differ);
//! - per-region peak/trough windows of download starts;
//! - every injected fault joined to its `AlertEngine` detection with
//!   time-to-detection, plus the local dip vs the region's mean;
//! - the top-N anomalous windows of the fleet completion series.
//!
//! ```text
//! tsreport [path] [--top N]      default path results/scale.timeseries.json
//! ```
//!
//! Everything printed is a pure function of the sidecar bytes, so the
//! output is byte-deterministic and diffable in gates.

use netsession_analytics::timeseries::{diurnal_profile, peak_trough, top_anomalies};
use netsession_bench::runner::Cli;
use netsession_hybrid::alerts::FAULT_CLASS_RULES;
use netsession_obs::{json, MergedSeries};

struct Alert {
    class: String,
    at_hours: u64,
    window: usize,
    region: String,
    detail: u64,
}

struct Detection {
    region: Option<String>,
    rule: String,
    raised: bool,
    at_us: u64,
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

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tsreport: {path}: {e}");
            std::process::exit(2);
        }
    };
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("netsession-timeseries/1"),
        "{path}: not a timeseries sidecar"
    );
    let series = MergedSeries::from_value(doc.get("series").expect("series section"))
        .unwrap_or_else(|e| panic!("{path}: {e}"));
    let get_arr = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    };
    let alerts: Vec<Alert> = get_arr("alerts")
        .iter()
        .map(|a| Alert {
            class: a
                .get("class")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string(),
            at_hours: a.get("at_hours").and_then(|v| v.as_u64()).unwrap_or(0),
            window: a.get("window").and_then(|v| v.as_u64()).unwrap_or(0) as usize,
            region: a
                .get("region")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string(),
            detail: a.get("detail").and_then(|v| v.as_u64()).unwrap_or(0),
        })
        .collect();
    let detections: Vec<Detection> = get_arr("detections")
        .iter()
        .map(|d| Detection {
            region: d.get("region").and_then(|v| v.as_str()).map(str::to_string),
            rule: d
                .get("rule")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string(),
            raised: d.get("raised").and_then(|v| v.as_bool()).unwrap_or(false),
            at_us: d.get("at_us").and_then(|v| v.as_u64()).unwrap_or(0),
        })
        .collect();

    let windows_per_day = (86_400_000_000 / series.interval_us.max(1)) as usize;
    println!(
        "timeseries report: {} windows x {} s, {} regions, {} metrics, {} faults, {} detections",
        series.windows,
        series.interval_us / 1_000_000,
        series.groups.len(),
        series.metrics.len(),
        alerts.len(),
        detections.len()
    );

    // Fleet diurnal curve: mean active peers per hour-of-day (UTC grid;
    // regional local-time offsets smear the trough, exactly as the
    // paper's global curves do).
    let active = series
        .metric("scaled.active_peers")
        .expect("active_peers in catalog")
        .global();
    let prof = diurnal_profile(&active, windows_per_day.max(1));
    let peak_slot = prof
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
        .map_or(0, |(s, _)| s);
    let top = prof.iter().cloned().fold(0.0f64, f64::max).max(1.0);
    println!("\ndiurnal curve (mean active peers per hour-of-day, UTC):");
    for (slot, &v) in prof.iter().enumerate() {
        let bar = "#".repeat(((v / top) * 40.0).round() as usize);
        println!(
            "  h{slot:02} {v:>12.1} {bar}{}",
            if slot == peak_slot { " <- peak" } else { "" }
        );
    }

    // Per-region peak/trough of download starts.
    let starts = series
        .metric("scaled.downloads_started")
        .expect("downloads_started in catalog");
    println!("\nper-region download-start peak/trough (window = sim hour):");
    for (g, label) in series.groups.iter().enumerate() {
        if let Some((peak, trough)) = peak_trough(&starts.values[g]) {
            println!(
                "  {label:>14}: peak {} @h{:03}, trough {} @h{:03}",
                peak.value, peak.window, trough.value, trough.window
            );
        }
    }

    // Injected faults joined to their detections.
    if !alerts.is_empty() {
        let bytes_peers = series
            .metric("scaled.bytes_peers")
            .expect("bytes_peers in catalog");
        println!("\nfault detections (rule join, time-to-detection in minutes):");
        for a in &alerts {
            let rule = FAULT_CLASS_RULES
                .iter()
                .find(|(c, _, _)| *c == a.class)
                .map(|(_, r, _)| *r)
                .unwrap_or("?");
            let inject_us = a.at_hours * 3_600_000_000;
            // Earliest raise of the paired rule at-or-after injection;
            // region-scoped detection preferred, fleet-wide accepted.
            let hit = detections
                .iter()
                .filter(|d| d.rule == rule && d.raised && d.at_us >= inject_us)
                .min_by_key(|d| (d.at_us, d.region.as_deref() != Some(a.region.as_str())));
            let g = series.groups.iter().position(|r| *r == a.region);
            let dip = g.map(|g| {
                let row = &bytes_peers.values[g];
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
                    d.rule,
                    d.region.as_deref().unwrap_or("fleet"),
                    (d.at_us - inject_us) as f64 / 60e6,
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
    let completed = series
        .metric("scaled.downloads_completed")
        .expect("downloads_completed in catalog")
        .global();
    println!("\ntop {top_n} anomalous windows (fleet downloads completed, |z|):");
    for a in top_anomalies(&completed, top_n) {
        println!("  h{:03} value {:>10} z {:+.2}", a.window, a.value, a.z);
    }
}
