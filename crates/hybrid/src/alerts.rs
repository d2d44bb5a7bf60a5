//! The §3.8 alert policy for the simulated deployment.
//!
//! One declarative rule set, evaluated two ways: both month engines
//! record a windowed [`MergedSeries`] and replay the rules over it in
//! *virtual* time (so a chaos campaign reports deterministic
//! time-to-detection numbers), and the live `monitor_server` runs the
//! same [`AlertEngine`] machinery over wall-clock scrapes. Rules watch
//! the `hybrid.fault.*` counters the fault-injection subsystem
//! maintains; every counter is either covered by a rule here or listed
//! in [`ALLOWLIST`] with a reason — `scripts/check.sh` greps the source
//! to keep that exhaustive.
//!
//! Rule taxonomy:
//!
//! - **Fault-class rules** (one per injectable [`FaultKind`]): fire on
//!   any injection of that class within the trailing hour. These are what
//!   the chaos bench's time-to-detection table is measured against.
//! - **Symptom rules**: fire on the *observable damage* — mass control
//!   disconnects, cut backstop flows, degraded edge-only downloads —
//!   so an alert still raises when the cause counter is missing.
//!
//! A fault-free run never moves any `hybrid.fault.*` counter, so the
//! zero-fault baseline is structurally incapable of false positives.
//!
//! [`FaultKind`]: crate::config::FaultKind
//! [`AlertEngine`]: netsession_obs::AlertEngine

use netsession_obs::{AlertEvent, AlertRule, MergedSeries, RuleKind};

/// Observation window for every rate rule: one trailing hour of virtual
/// (or wall) time. Detection latency is bounded by the series window the
/// rules are replayed over, not by this window; the window only controls
/// how long an alert stays raised after the burst ends.
pub const RULE_WINDOW_US: u64 = 3_600_000_000;

/// Fault-class rule names, paired with the chaos campaign class each one
/// detects: `(class label, rule name, watched counter)`.
pub const FAULT_CLASS_RULES: [(&str, &str, &str); 4] = [
    ("cn_crash", "control-crash", "hybrid.fault.cn_crashes"),
    ("dn_wipe", "directory-wipe", "hybrid.fault.dn_wipes"),
    ("edge_outage", "edge-outage", "hybrid.fault.edge_outages"),
    ("churn_burst", "churn-burst", "hybrid.fault.churn_bursts"),
];

/// Symptom rules: `(rule name, watched counter)`.
pub const SYMPTOM_RULES: [(&str, &str); 5] = [
    ("fault-injected", "hybrid.fault.injected"),
    ("mass-disconnect", "hybrid.fault.peers_disconnected"),
    ("churn-offline", "hybrid.fault.churn_offline"),
    ("backstop-cut", "hybrid.fault.edge_flows_cut"),
    ("degraded-downloads", "hybrid.fault.edge_only_downloads"),
];

/// `hybrid.fault.*` counters deliberately *without* an alert rule: they
/// count the recovery machinery doing its job (readmission pacing,
/// RE-ADD fate-sharing, backstop re-attachment). Alerting on recovery
/// would page on the cure, not the disease.
pub const ALLOWLIST: [&str; 5] = [
    "hybrid.fault.readmissions",
    "hybrid.fault.reregistered_versions",
    "hybrid.fault.readds",
    "hybrid.fault.readd_versions",
    "hybrid.fault.edge_flows_restored",
];

/// The standard rule set the driver evaluates over virtual time. Every
/// rule is `RateAbove {{ delta: 1 }}` over [`RULE_WINDOW_US`]: a single
/// counter increment within the trailing hour raises, and the alert
/// clears one window after the activity stops.
pub fn standard_rules() -> Vec<AlertRule> {
    FAULT_CLASS_RULES
        .iter()
        .map(|(_, rule, metric)| (*rule, *metric))
        .chain(SYMPTOM_RULES)
        .map(|(rule, metric)| {
            AlertRule::new(
                rule,
                metric,
                RuleKind::RateAbove { delta: 1 },
                RULE_WINDOW_US,
            )
        })
        .collect()
}

/// One alert transition from replaying the standard rules over a merged
/// time series. `region` is `None` for the fleet-wide pass (all regions
/// summed) and the region label otherwise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesDetection {
    /// Region the engine was scoped to, `None` = fleet-wide.
    pub region: Option<String>,
    /// The raise/clear transition, timestamped in virtual micros (the
    /// close of the window whose observation transitioned the rule).
    pub event: AlertEvent,
}

/// Replay [`standard_rules`] over a merged time series in virtual time:
/// one fleet-wide engine over the region-summed series, then one engine
/// per region. Counter windows are re-accumulated into the monotone
/// cumulative values the [`netsession_obs::AlertEngine`] expects, so its
/// reset/rate semantics match the live scrape path exactly. Output is
/// deterministic: fleet-wide first, then regions in series order, each
/// engine's log in time order.
pub fn replay_standard_alerts(series: &MergedSeries) -> Vec<SeriesDetection> {
    let mut out = Vec::new();
    for event in series.replay(standard_rules(), None) {
        out.push(SeriesDetection {
            region: None,
            event,
        });
    }
    for (g, label) in series.groups.iter().enumerate() {
        for event in series.replay(standard_rules(), Some(g)) {
            out.push(SeriesDetection {
                region: Some(label.clone()),
                event,
            });
        }
    }
    out
}

/// The detection of one injected fault: the earliest raise of its class's
/// rule ([`FAULT_CLASS_RULES`]) at or after the injection instant. Among
/// raises at the same instant, one scoped to `region` wins; otherwise the
/// log order of [`replay_standard_alerts`] (fleet-wide first) breaks the
/// tie. `None` for an unknown class or a fault that was never detected.
pub fn first_detection<'a>(
    detections: &'a [SeriesDetection],
    class: &str,
    region: Option<&str>,
    injected_us: u64,
) -> Option<&'a SeriesDetection> {
    let (_, rule, _) = FAULT_CLASS_RULES.iter().find(|(c, _, _)| *c == class)?;
    detections
        .iter()
        .filter(|d| d.event.raised && d.event.rule == *rule && d.event.at_us >= injected_us)
        .min_by_key(|d| (d.event.at_us, d.region.as_deref() != region))
}

/// Which fault classes a detection log raised, joined through
/// [`FAULT_CLASS_RULES`]: returns the class labels (in rule-table order)
/// whose class rule raised at least once anywhere. The scaled acceptance
/// gate asserts this covers all four classes.
pub fn detected_classes(detections: &[SeriesDetection]) -> Vec<&'static str> {
    FAULT_CLASS_RULES
        .iter()
        .filter(|(_, rule, _)| {
            detections
                .iter()
                .any(|d| d.event.raised && d.event.rule == *rule)
        })
        .map(|(class, _, _)| *class)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultKind;
    use std::collections::BTreeSet;

    #[test]
    fn rules_are_well_formed_and_disjoint_from_the_allowlist() {
        let rules = standard_rules();
        assert_eq!(rules.len(), FAULT_CLASS_RULES.len() + SYMPTOM_RULES.len());
        let mut names = BTreeSet::new();
        let mut metrics = BTreeSet::new();
        for r in &rules {
            assert!(names.insert(r.name.clone()), "duplicate rule {}", r.name);
            assert!(
                metrics.insert(r.metric.clone()),
                "two rules watch {}",
                r.metric
            );
            assert!(r.metric.starts_with("hybrid.fault."), "{}", r.metric);
            assert!(r.window_us > 0);
        }
        for allowed in ALLOWLIST {
            assert!(
                !metrics.contains(allowed),
                "{allowed} is both ruled and allowlisted"
            );
        }
    }

    fn raise(region: Option<&str>, rule: &str, at_us: u64) -> SeriesDetection {
        SeriesDetection {
            region: region.map(str::to_string),
            event: AlertEvent {
                at_us,
                rule: rule.to_string(),
                raised: true,
                message: String::new(),
            },
        }
    }

    #[test]
    fn first_detection_is_the_earliest_raise_at_or_after_injection() {
        let mut clear = raise(None, "control-crash", 50);
        clear.event.raised = false;
        let log = vec![
            raise(None, "control-crash", 10), // before the injection
            clear,
            raise(None, "directory-wipe", 60), // another class
            raise(None, "control-crash", 90),
            raise(Some("Europe"), "control-crash", 90),
            raise(Some("India"), "control-crash", 70),
        ];
        let at = |region, injected| {
            let d = first_detection(&log, "cn_crash", region, injected).unwrap();
            (d.region.clone(), d.event.at_us)
        };
        // Earliest wins over scope: India's raise precedes the fleet's.
        assert_eq!(at(Some("Europe"), 20), (Some("India".to_string()), 70));
        // At a tie the requested scope wins, else fleet-wide (log order).
        assert_eq!(at(Some("Europe"), 80), (Some("Europe".to_string()), 90));
        assert_eq!(at(None, 80), (None, 90));
        assert_eq!(at(Some("Africa"), 80), (None, 90));
        // A raise exactly at the injection instant counts.
        assert_eq!(at(None, 10), (None, 10));
        assert!(first_detection(&log, "cn_crash", None, 91).is_none());
        assert!(first_detection(&log, "no_such_class", None, 0).is_none());
    }

    #[test]
    fn class_rules_cover_every_injectable_fault_kind() {
        // One rule per FaultKind variant; the chaos bench joins the TTD
        // table on these labels.
        let classes: BTreeSet<&str> = FAULT_CLASS_RULES.iter().map(|(c, _, _)| *c).collect();
        for kind in [
            FaultKind::CnCrash { region: 0 },
            FaultKind::DnWipe { region: 0 },
            FaultKind::EdgeOutage { region: 0, secs: 1 },
            FaultKind::ChurnBurst { fraction: 0.5 },
        ] {
            assert!(
                classes.contains(kind.class()),
                "no detection rule for {kind:?}"
            );
        }
    }
}
