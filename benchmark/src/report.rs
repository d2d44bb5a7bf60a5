//! Metric catalog and the result line.
//!
//! Every workload reports every metric of the mode it runs in, so the
//! result line always has the same keys. End-to-end metrics are measured
//! on every workload; per-layer metrics read 0 on a workload where their
//! layer does no work (the shard runner on flow_month, FlowNet on
//! sharded_month, the sockets on both simulators).

use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// End-to-end metrics the workload process measures itself. `cpu_s` and
/// `peak_rss_mib` are added by `run.py`, which owns the process. Both
/// catalogs mirror `BENCHMARK.json` (checked by a test).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("edge_download_p50_ms", "ms"),
    ("edge_download_p90_ms", "ms"),
    ("swarm_download_p50_ms", "ms"),
    ("swarm_download_p90_ms", "ms"),
    ("goodput_mib_s", "MiB/s"),
];

/// Per-layer metrics of the traced run, grouped by layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    // hybrid::sim (flow_month)
    ("sim.events", "count"),
    ("hybrid.online_s", "s"),
    ("hybrid.offline_s", "s"),
    ("hybrid.arrival_s", "s"),
    ("hybrid.tick_s", "s"),
    ("hybrid.loop_other_s", "s"),
    ("hybrid.output_drop_s", "s"),
    // sim::flownet
    ("flownet.recomputes", "count"),
    ("flownet.flows_recomputed", "count"),
    ("flownet.flows_per_recompute", "count"),
    // control / nat / peer / edge
    ("control.peer_queries", "count"),
    ("control.peers_per_query", "count"),
    ("control.empty_selection_pct", "%"),
    ("control.logins", "count"),
    ("nat.traversal_ok_pct", "%"),
    ("peer.edge_fallbacks", "count"),
    ("edge.auth_grants", "count"),
    // analytics / obs
    ("analytics.report_s", "s"),
    ("obs.export_s", "s"),
    ("obs.trace_bytes", "B"),
    // sim::shard / hybrid::scaled (sharded_month)
    ("shard.busy_s", "s"),
    ("shard.wait_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.wall_critical_path_s", "s"),
    ("shard.events", "count"),
    ("shard.windows", "count"),
    ("shard.cross_messages", "count"),
    ("shard.worker_spawns", "count"),
    ("shard.skew", "ratio"),
    ("shard.speedup_ceiling", "ratio"),
    ("shard.realized_speedup", "ratio"),
    ("scaled.downloads", "count"),
    ("scaled.report_s", "s"),
    // obs::timeseries / hybrid::alerts
    ("timeseries.encode_s", "s"),
    ("alerts.replay_s", "s"),
    ("alerts.raised", "count"),
    // net / edge / core (live_fleet)
    ("live.join_ms", "ms"),
    ("net.edge_connections_per_download", "count"),
    ("net.swarm_connections_per_download", "count"),
    ("net.control_msgs_per_download", "count"),
    ("net.query_timeouts", "count"),
    ("codec.piece_roundtrip_ns", "ns"),
    ("codec.query_roundtrip_ns", "ns"),
    ("hash.sha256_piece_mib_s", "MiB/s"),
    ("live.swarm_edge_fallback_pct", "%"),
    ("live.peer_bytes_share", "ratio"),
    ("live.threads", "count"),
    ("http.admin_scrape_ms", "ms"),
    ("hash.sha256_token_ns", "ns"),
    // the benchmark's own tracing
    ("trace.overhead_pct", "%"),
];

/// Samples collected by one workload run, keyed by metric name.
#[derive(Default)]
pub struct Metrics {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Metrics {
    /// Append one sample; the reported value is the median of all samples.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Record a metric that is measured once per run.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.samples.insert(name, vec![v]);
    }

    /// The result line: `correct`, `attempted`, `failed` and one entry per
    /// metric of `catalog` with its median, quartiles and sample count.
    /// Metrics the run did not record read 0.
    pub fn to_json(
        &self,
        catalog: &[(&'static str, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let xs = self.samples.get(name).map_or(&[][..], Vec::as_slice);
            let (q1, q3) = quartiles(xs);
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                num(median(xs)),
                num(q1),
                num(q3),
                xs.len()
            ));
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let (e2e, per_layer) = spec
            .split_once("\"per_layer\"")
            .expect("BENCHMARK.json lists per_layer metrics");
        let e2e = &e2e[e2e.find("\"end_to_end\"").expect("end_to_end metrics")..];
        let entry = |name: &str, unit: &str| format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        for (name, unit) in END_TO_END
            .iter()
            .chain(&[("cpu_s", "s"), ("peak_rss_mib", "MiB")])
        {
            assert!(
                e2e.contains(&entry(name, unit)),
                "{name} missing from end_to_end"
            );
        }
        for (name, unit) in PER_LAYER {
            assert!(
                per_layer.contains(&entry(name, unit)),
                "{name} missing from per_layer"
            );
        }
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len() + 2);
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn result_line_reports_medians_and_zero_for_unrecorded() {
        let mut m = Metrics::default();
        for v in [3.0, 1.0, 2.0] {
            m.sample("run_s", v);
        }
        m.set("setup_s", 0.25);
        let line = m.to_json(&END_TO_END[..3], true, 3, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains(
            "\"run_s\": {\"value\": 2, \"unit\": \"s\", \"q1\": 1, \"q3\": 3, \"n\": 3}"
        ));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25,"));
        assert!(line.contains("\"events_per_s\": {\"value\": 0, \"unit\": \"1/s\""));
    }
}
