//! The named-instrument registry and JSON snapshot exporter.

use crate::events::{Event, EventRing};
use crate::instruments::{Counter, Gauge, Histogram};
use crate::json::{push_key, push_str_literal};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Name under which the event ring's eviction count surfaces in
/// snapshots and scrapes. The ring drops its oldest entries silently
/// when full; this synthetic counter makes the loss observable (and
/// alertable) instead of invisible.
pub const EVENTS_DROPPED_COUNTER: &str = "obs.events.dropped";

/// Point-in-time values of one histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistogramSnapshot {
    fn of(h: &Histogram) -> HistogramSnapshot {
        let (p50, p90, p99) = h.quantiles3(0.50, 0.90, 0.99);
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            p50,
            p90,
            p99,
        }
    }
}

/// A point-in-time copy of the registry's deterministic instruments:
/// plain values, detached from the live atomics. This is the unit the
/// text exposition renders, scrapers ship across the network, and the
/// [`crate::AlertEngine`] evaluates rules against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter values by name (includes [`EVENTS_DROPPED_COUNTER`]).
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Counter value, 0 when the counter does not exist.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge level, 0 when the gauge does not exist.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Merge `other` into this snapshot the way a fleet aggregator
    /// wants it: counters and gauges add, histogram counts and sums
    /// add, min/max widen, and quantiles keep the pessimistic (larger)
    /// estimate.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            let e = self.histograms.entry(k.clone()).or_default();
            let min = if e.count == 0 {
                h.min
            } else if h.count == 0 {
                e.min
            } else {
                e.min.min(h.min)
            };
            e.count += h.count;
            e.sum += h.sum;
            e.min = min;
            e.max = e.max.max(h.max);
            e.p50 = e.p50.max(h.p50);
            e.p90 = e.p90.max(h.p90);
            e.p99 = e.p99.max(h.p99);
        }
    }
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    // Wall-clock-dependent instruments: excluded from the deterministic
    // snapshot, present only in `full_snapshot_json`.
    volatile_counters: Mutex<BTreeMap<String, Counter>>,
    volatile_histograms: Mutex<BTreeMap<String, Histogram>>,
    events: EventRing,
}

/// A registry of named instruments plus a structured-event ring.
///
/// Cloning is cheap and shares the underlying store, so one registry can
/// be threaded through every layer of a simulation or live deployment.
/// Requesting an instrument name twice returns handles to the same
/// underlying atomic.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.inner.counters.lock().unwrap().len())
            .field("gauges", &self.inner.gauges.lock().unwrap().len())
            .field("histograms", &self.inner.histograms.lock().unwrap().len())
            .field("events", &self.inner.events.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .counters
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .gauges
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .histograms
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create a counter whose value depends on wall-clock timing
    /// (kept out of the deterministic snapshot).
    pub fn volatile_counter(&self, name: &str) -> Counter {
        self.inner
            .volatile_counters
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create a histogram of wall-clock measurements (kept out of
    /// the deterministic snapshot).
    pub fn volatile_histogram(&self, name: &str) -> Histogram {
        self.inner
            .volatile_histograms
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The shared event ring.
    pub fn events(&self) -> EventRing {
        self.inner.events.clone()
    }

    /// Record one structured event.
    pub fn record_event(&self, t: u64, component: &str, kind: &str, detail: impl Into<String>) {
        self.inner.events.push(Event {
            t,
            component: component.to_string(),
            kind: kind.to_string(),
            detail: detail.into(),
        });
    }

    /// A point-in-time copy of the deterministic instruments (counters,
    /// gauges, histogram summaries) as plain values. The event-ring
    /// eviction count is included as the [`EVENTS_DROPPED_COUNTER`]
    /// counter. Volatile (wall-clock) instruments are excluded, so the
    /// scrape of a same-seed deterministic run is itself deterministic.
    pub fn scrape(&self) -> RegistrySnapshot {
        let mut counters: BTreeMap<String, u64> = self
            .inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        *counters
            .entry(EVENTS_DROPPED_COUNTER.to_string())
            .or_insert(0) += self.inner.events.dropped();
        RegistrySnapshot {
            counters,
            gauges: self
                .inner
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, h)| (k.clone(), HistogramSnapshot::of(h)))
                .collect(),
        }
    }

    /// Deterministic JSON snapshot: counters, gauges, histograms (with
    /// quantile estimates), and the buffered events. Two same-seed runs
    /// of a deterministic program produce byte-identical output here.
    pub fn snapshot_json(&self) -> String {
        self.render(false)
    }

    /// Full JSON snapshot including the volatile (wall-clock) section.
    pub fn full_snapshot_json(&self) -> String {
        self.render(true)
    }

    fn render(&self, include_volatile: bool) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");

        push_key(&mut out, 2, "counters");
        {
            // The event ring's eviction count rides along as a synthetic
            // counter so snapshots always reveal when events were lost.
            let counters = self.inner.counters.lock().unwrap();
            let mut values: BTreeMap<&str, u64> = counters
                .iter()
                .map(|(k, c)| (k.as_str(), c.get()))
                .collect();
            *values.entry(EVENTS_DROPPED_COUNTER).or_insert(0) += self.inner.events.dropped();
            render_map(&mut out, 2, values.iter(), |out, v| {
                out.push_str(&v.to_string())
            });
        }
        out.push_str(",\n");

        push_key(&mut out, 2, "gauges");
        {
            let gauges = self.inner.gauges.lock().unwrap();
            render_map(&mut out, 2, gauges.iter(), |out, g| {
                out.push_str(&g.get().to_string())
            });
        }
        out.push_str(",\n");

        push_key(&mut out, 2, "histograms");
        render_histograms(&mut out, 2, &self.inner.histograms.lock().unwrap());
        out.push_str(",\n");

        push_key(&mut out, 2, "events");
        self.render_events(&mut out);

        if include_volatile {
            out.push_str(",\n");
            push_key(&mut out, 2, "volatile");
            out.push_str("{\n");
            push_key(&mut out, 4, "counters");
            render_counters(&mut out, 4, &self.inner.volatile_counters.lock().unwrap());
            out.push_str(",\n");
            push_key(&mut out, 4, "histograms");
            render_histograms(&mut out, 4, &self.inner.volatile_histograms.lock().unwrap());
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }

    fn render_events(&self, out: &mut String) {
        let events = self.inner.events.events();
        if events.is_empty() {
            out.push_str("[]");
            return;
        }
        out.push_str("[\n");
        for (i, e) in events.iter().enumerate() {
            out.push_str("    { \"t\": ");
            out.push_str(&e.t.to_string());
            out.push_str(", \"component\": ");
            push_str_literal(out, &e.component);
            out.push_str(", \"kind\": ");
            push_str_literal(out, &e.kind);
            out.push_str(", \"detail\": ");
            push_str_literal(out, &e.detail);
            out.push_str(" }");
            if i + 1 < events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]");
    }
}

fn render_counters(out: &mut String, indent: usize, counters: &BTreeMap<String, Counter>) {
    render_map(out, indent, counters.iter(), |out, c| {
        out.push_str(&c.get().to_string())
    });
}

fn render_histograms(out: &mut String, indent: usize, histograms: &BTreeMap<String, Histogram>) {
    render_map(out, indent, histograms.iter(), |out, h| {
        out.push_str(&format!(
            "{{ \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {} }}",
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.p50(),
            h.p90(),
            h.p99()
        ))
    });
}

fn render_map<'a, K: AsRef<str>, V: 'a>(
    out: &mut String,
    indent: usize,
    entries: impl ExactSizeIterator<Item = (K, &'a V)>,
    mut value: impl FnMut(&mut String, &V),
) {
    if entries.len() == 0 {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    let len = entries.len();
    for (i, (k, v)) in entries.enumerate() {
        push_key(out, indent + 2, k.as_ref());
        value(out, v);
        if i + 1 < len {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&" ".repeat(indent));
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_instrument() {
        let reg = MetricsRegistry::new();
        reg.counter("x").add(3);
        reg.counter("x").add(4);
        assert_eq!(reg.counter("x").get(), 7);
    }

    #[test]
    fn snapshot_is_deterministic_and_ordered() {
        let build = || {
            let reg = MetricsRegistry::new();
            reg.counter("b.second").add(2);
            reg.counter("a.first").add(1);
            reg.gauge("depth").set(-4);
            reg.histogram("h").record(100);
            reg.record_event(1, "comp", "kind", "detail with \"quotes\"");
            reg
        };
        let a = build().snapshot_json();
        let b = build().snapshot_json();
        assert_eq!(a, b);
        // BTreeMap ordering: a.first renders before b.second.
        assert!(a.find("a.first").unwrap() < a.find("b.second").unwrap());
    }

    #[test]
    fn volatile_section_only_in_full_snapshot() {
        let reg = MetricsRegistry::new();
        reg.counter("det").incr();
        reg.volatile_histogram("timing_ns").record(12345);
        let det = reg.snapshot_json();
        assert!(!det.contains("timing_ns"));
        assert!(!det.contains("volatile"));
        let full = reg.full_snapshot_json();
        assert!(full.contains("timing_ns"));
        assert!(full.contains("\"volatile\""));
    }

    #[test]
    fn empty_registry_renders_valid_shape() {
        let json = MetricsRegistry::new().snapshot_json();
        // Even an empty registry reports the (zero) event-drop count.
        assert!(json.contains("\"obs.events.dropped\": 0"));
        assert!(json.contains("\"events\": []"));
    }

    #[test]
    fn event_ring_drops_surface_in_snapshots() {
        let reg = MetricsRegistry::new();
        for t in 0..crate::EVENT_CAPACITY as u64 + 3 {
            reg.record_event(t, "comp", "tick", "");
        }
        // 3 pushed past a full ring: 3 evicted.
        assert!(reg.snapshot_json().contains("\"obs.events.dropped\": 3"));
        assert!(reg
            .full_snapshot_json()
            .contains("\"obs.events.dropped\": 3"));
        assert_eq!(reg.scrape().counter(EVENTS_DROPPED_COUNTER), 3);
    }

    #[test]
    fn scrape_copies_instrument_values() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(7);
        reg.gauge("g").set(-4);
        let h = reg.histogram("h");
        h.record(10);
        h.record(30);
        reg.volatile_counter("wall").incr();
        let snap = reg.scrape();
        assert_eq!(snap.counter("c"), 7);
        assert_eq!(snap.gauge("g"), -4);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("missing"), 0);
        let hs = snap.histograms.get("h").unwrap();
        assert_eq!(hs.count, 2);
        assert_eq!(hs.sum, 40);
        assert_eq!(hs.min, 10);
        assert_eq!(hs.max, 30);
        assert!(hs.p50 <= hs.p99);
        // Volatile instruments stay out of the deterministic scrape.
        assert_eq!(snap.counter("wall"), 0);
    }

    #[test]
    fn snapshot_merge_aggregates() {
        let a = MetricsRegistry::new();
        a.counter("c").add(2);
        a.gauge("g").set(1);
        a.histogram("h").record(4);
        let b = MetricsRegistry::new();
        b.counter("c").add(3);
        b.gauge("g").set(5);
        b.histogram("h").record(100);
        let mut fleet = a.scrape();
        fleet.merge(&b.scrape());
        assert_eq!(fleet.counter("c"), 5);
        assert_eq!(fleet.gauge("g"), 6);
        let h = fleet.histograms.get("h").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 104, 4, 100));
    }
}
