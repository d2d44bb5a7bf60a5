//! # netsession-obs
//!
//! Observability substrate for the NetSession reproduction: the paper is a
//! *measurement study* (4.15 billion log entries behind its tables and
//! figures), so every layer of this codebase — the discrete-event kernel,
//! the flow network, the control plane, the edge tier, the peers, and the
//! live socket runtime — reports into the instruments defined here.
//!
//! The crate is dependency-free and fully offline-friendly. It offers:
//!
//! - [`MetricsRegistry`]: a named registry of atomic [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed [`Histogram`]s with p50/p90/p99
//!   quantile queries;
//! - a bounded structured-event ring ([`Event`], via
//!   [`MetricsRegistry::record_event`]);
//! - a deterministic JSON snapshot exporter
//!   ([`MetricsRegistry::snapshot_json`]);
//! - a causal trace layer ([`TraceSink`]: [`TraceId`]/[`SpanId`] spans
//!   with parent links and typed attributes, deterministic 1-in-N trace
//!   sampling, and a Chrome-trace/Perfetto JSON exporter) for
//!   per-download lifecycle stories;
//! - a minimal JSON reader ([`json::parse`]) so tools can load those
//!   artifacts back without external crates;
//! - a Prometheus-style text exposition ([`render_prometheus`]) with a
//!   matching scrape-side parser ([`parse_prometheus`]), both operating
//!   on plain-value [`RegistrySnapshot`]s;
//! - a deterministic [`AlertEngine`]: declarative threshold /
//!   rate-of-change / absence rules evaluated against a stream of
//!   snapshots, usable over virtual sim time and live wall time alike.
//!
//! ## Passive by construction
//!
//! Instrument handles are cheap `Arc`s around atomics. Components hold
//! *detached* handles by default — recording into a detached instrument
//! is a few atomic ops and observes nothing — and the same component can
//! be attached to a registry when a caller wants telemetry. Nothing in
//! the instrumented code paths branches on whether metrics are attached,
//! so a same-seed simulation produces byte-identical experiment output
//! with metrics on or off.
//!
//! ## Determinism and the volatile section
//!
//! Wall-clock measurements (e.g. per-event handling time) can never be
//! identical across runs. Such instruments must be registered through the
//! `volatile_*` constructors: they are excluded from
//! [`MetricsRegistry::snapshot_json`] (which two same-seed runs must
//! reproduce byte-for-byte) and appear only in
//! [`MetricsRegistry::full_snapshot_json`].
//!
//! ## Example
//!
//! ```
//! use netsession_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let served = reg.counter("edge.bytes_served");
//! let depth = reg.gauge("sim.queue_depth");
//! let sizes = reg.histogram("peer.download_bytes");
//!
//! served.add(4096);
//! depth.set(3);
//! for size in [1_000u64, 2_000, 4_000, 1 << 20] {
//!     sizes.record(size);
//! }
//!
//! assert_eq!(served.get(), 4096);
//! assert_eq!(sizes.count(), 4);
//! assert!(sizes.p50() <= sizes.p99());
//!
//! reg.record_event(7, "edge", "grant", "guid=42");
//! let json = reg.snapshot_json();
//! assert!(json.contains("\"edge.bytes_served\": 4096"));
//! assert!(json.contains("\"kind\": \"grant\""));
//! // Deterministic: snapshotting again yields the same bytes.
//! assert_eq!(json, reg.snapshot_json());
//! ```
//!
//! Detached use (what library code does by default):
//!
//! ```
//! use netsession_obs::Counter;
//!
//! let c = Counter::detached();
//! c.incr(); // harmless: counts into an Arc nobody snapshots
//! assert_eq!(c.get(), 1);
//! ```

mod alert;
mod events;
pub mod expo;
mod instruments;
pub mod json;
pub mod profile;
mod registry;
pub mod timeseries;
mod trace;

pub use alert::{AlertEngine, AlertEvent, AlertRule, RuleKind};
pub use events::{Event, EventRing, EVENT_CAPACITY};
pub use expo::{parse_prometheus, render_prometheus};
pub use instruments::{Counter, Gauge, Histogram};
pub use profile::{
    ExecProfile, ImbalanceStats, ProfileSink, ShardExec, ShardProfiler, ShardTimings, WindowRecord,
    WindowTiming,
};
pub use registry::{HistogramSnapshot, MetricsRegistry, RegistrySnapshot, EVENTS_DROPPED_COUNTER};
pub use timeseries::{
    merge_shards, MergedMetric, MergedSeries, SeriesKind, SeriesSpec, ShardSeries,
};
pub use trace::{AttrValue, Span, SpanId, TraceCtx, TraceId, TraceSink};
