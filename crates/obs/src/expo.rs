//! Prometheus-style text exposition of a [`RegistrySnapshot`], plus the
//! matching parser used by scrape clients (the live monitor server).
//!
//! The format follows the Prometheus text exposition conventions —
//! `# TYPE` comments, `{quantile="…"}` labels on summaries, `_sum` /
//! `_count` companions — with one deliberate deviation: metric names are
//! emitted **verbatim**, dots included (`hybrid.fault.cn_crashes`), so a
//! scrape round-trips to the exact registry names that alert rules and
//! the JSON snapshots use. A stock Prometheus server would need a
//! relabeling rule; our in-tree scraper does not.
//!
//! Summaries additionally expose `_min` / `_max` companions: the
//! histogram implementation tracks exact extremes, and scrape-side
//! rate/average math (`_sum` / `_count` deltas) plus a clamp to
//! `[min, max]` reproduces everything the JSON snapshot carries.

use crate::registry::{HistogramSnapshot, RegistrySnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render a snapshot in the text exposition format. Deterministic:
/// names are sorted (BTreeMap order) and values are integers.
pub fn render_prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::with_capacity(4096);
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(out, "# TYPE {name} summary");
        let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", h.p50);
        let _ = writeln!(out, "{name}{{quantile=\"0.9\"}} {}", h.p90);
        let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", h.p99);
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
        let _ = writeln!(out, "{name}_min {}", h.min);
        let _ = writeln!(out, "{name}_max {}", h.max);
    }
    out
}

/// Parse a text exposition back into a snapshot. Inverse of
/// [`render_prometheus`]: `parse_prometheus(&render_prometheus(s)) == s`.
pub fn parse_prometheus(text: &str) -> Result<RegistrySnapshot, String> {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, i64> = BTreeMap::new();
    let mut histograms: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
    // name -> declared kind ("counter" | "gauge" | "summary").
    let mut kinds: BTreeMap<String, &str> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or_else(|| bad(lineno, "TYPE without name"))?;
            let kind = match it.next() {
                Some("counter") => "counter",
                Some("gauge") => "gauge",
                Some("summary") => "summary",
                _ => return Err(bad(lineno, "unknown TYPE kind")),
            };
            kinds.insert(name.to_string(), kind);
            if kind == "summary" {
                histograms.entry(name.to_string()).or_default();
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or other comments.
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| bad(lineno, "sample without value"))?;
        let name_part = name_part.trim();
        let value_part = value_part.trim();

        // Quantile sample: `name{quantile="0.5"} v`.
        if let Some((base, labels)) = name_part.split_once('{') {
            let labels = labels
                .strip_suffix('}')
                .ok_or_else(|| bad(lineno, "unterminated label set"))?;
            let q = labels
                .strip_prefix("quantile=\"")
                .and_then(|l| l.strip_suffix('"'))
                .ok_or_else(|| bad(lineno, "expected a quantile label"))?;
            let v: u64 = value_part
                .parse()
                .map_err(|_| bad(lineno, "bad quantile value"))?;
            let h = histograms.entry(base.to_string()).or_default();
            match q {
                "0.5" => h.p50 = v,
                "0.9" => h.p90 = v,
                "0.99" => h.p99 = v,
                _ => return Err(bad(lineno, "unsupported quantile")),
            }
            continue;
        }

        // Summary companion: `name_sum` / `_count` / `_min` / `_max`,
        // recognized only when `name` was declared a summary.
        let mut consumed = false;
        for (suffix, set) in [("_sum", 0usize), ("_count", 1), ("_min", 2), ("_max", 3)] {
            let Some(base) = name_part.strip_suffix(suffix) else {
                continue;
            };
            if kinds.get(base).copied() != Some("summary") {
                continue;
            }
            let v: u64 = value_part
                .parse()
                .map_err(|_| bad(lineno, "bad summary value"))?;
            let h = histograms.entry(base.to_string()).or_default();
            match set {
                0 => h.sum = v,
                1 => h.count = v,
                2 => h.min = v,
                _ => h.max = v,
            }
            consumed = true;
            break;
        }
        if consumed {
            continue;
        }

        match kinds.get(name_part).copied() {
            Some("gauge") => {
                let v: i64 = value_part
                    .parse()
                    .map_err(|_| bad(lineno, "bad gauge value"))?;
                gauges.insert(name_part.to_string(), v);
            }
            // Undeclared samples default to counters: a scraper should
            // keep working against a producer that skips TYPE lines.
            Some("counter") | None => {
                let v: u64 = value_part
                    .parse()
                    .map_err(|_| bad(lineno, "bad counter value"))?;
                counters.insert(name_part.to_string(), v);
            }
            Some(_) => return Err(bad(lineno, "sample for summary without labels")),
        }
    }
    Ok(RegistrySnapshot {
        counters,
        gauges,
        histograms,
    })
}

fn bad(lineno: usize, msg: &str) -> String {
    format!("line {}: {msg}", lineno + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn round_trips_counters_gauges_histograms() {
        let reg = MetricsRegistry::new();
        reg.counter("edge.bytes_served").add(4096);
        reg.counter("hybrid.fault.cn_crashes").add(2);
        reg.gauge("sim.queue_depth").set(-3);
        let h = reg.histogram("peer.download_bytes");
        for v in [1_000u64, 2_000, 4_000, 1 << 20] {
            h.record(v);
        }
        let snap = reg.scrape();
        let text = render_prometheus(&snap);
        let parsed = parse_prometheus(&text).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn histogram_sum_and_count_survive_the_exposition() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        h.record(10);
        h.record(30);
        let text = render_prometheus(&reg.scrape());
        assert!(text.contains("h_sum 40"));
        assert!(text.contains("h_count 2"));
        assert!(text.contains("h_min 10"));
        assert!(text.contains("h_max 30"));
        let parsed = parse_prometheus(&text).unwrap();
        let hs = parsed.histograms.get("h").unwrap();
        assert_eq!((hs.sum, hs.count, hs.min, hs.max), (40, 2, 10, 30));
        assert_eq!(hs.p50, h.p50());
    }

    #[test]
    fn exposition_is_deterministic_and_sorted() {
        let build = || {
            let reg = MetricsRegistry::new();
            reg.counter("b.second").incr();
            reg.counter("a.first").incr();
            reg.gauge("z").set(1);
            render_prometheus(&reg.scrape())
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.find("a.first").unwrap() < a.find("b.second").unwrap());
    }

    #[test]
    fn events_dropped_counter_is_exposed() {
        let reg = MetricsRegistry::new();
        for t in 0..=crate::EVENT_CAPACITY as u64 {
            reg.record_event(t, "c", "k", "");
        }
        let text = render_prometheus(&reg.scrape());
        assert!(text.contains("obs.events.dropped 1"));
    }

    #[test]
    fn untyped_samples_parse_as_counters() {
        let parsed = parse_prometheus("x 7\n").unwrap();
        assert_eq!(parsed.counter("x"), 7);
    }

    #[test]
    fn garbage_is_rejected_with_line_numbers() {
        assert!(parse_prometheus("x\n").unwrap_err().contains("line 1"));
        assert!(parse_prometheus("# TYPE x histogram\n").is_err());
        assert!(parse_prometheus("# TYPE g gauge\ng notanumber\n").is_err());
    }
}
