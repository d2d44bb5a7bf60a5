//! The hybrid-CDN month simulation.
//!
//! Drives the NetSession system over one synthetic month: peers come online
//! on their diurnal schedules and log into the control plane; requests
//! arrive per the workload; each download opens an always-on edge flow plus
//! swarm flows from control-plane-selected peers; the fluid network model
//! assigns max-min fair rates; users pause/abandon per the behaviour model;
//! completed objects enter peer caches and are registered with the DNs,
//! which is how swarms grow. The run emits a [`TraceDataset`] — the same
//! log shapes the paper's measurement study consumed.
//!
//! Fluid-model mechanics: request arrivals, peer offline events, and a
//! coarse tick (default 20 s) are the only points where the flow set
//! changes; bytes advance linearly between those points, and completion
//! times are interpolated exactly within the advance step, so per-download
//! speeds (Fig 4) are not quantized by the tick. Every handler refreshes
//! rates through [`FlowNet::recompute_dirty`], so only the swarm
//! components actually touched by an event are re-filled.

use crate::config::{FaultKind, ScenarioConfig};
use crate::identity::IdentityState;
use crate::setup::Scenario;
use netsession_control::directory::PeerRecord;
use netsession_control::selection::Querier;
use netsession_core::fxhash::FxHashMap;
use netsession_core::id::{Guid, ObjectId, VersionId};
use netsession_core::msg::{AuthToken, PeerAddr};
use netsession_core::rng::DetRng;
use netsession_core::time::{SimDuration, SimTime, TRACE_MONTH};
use netsession_core::units::{Bandwidth, ByteCount};
use netsession_logs::geodb::GeoInfoRef;
use netsession_logs::records::{DownloadOutcome, DownloadRecord, LoginRecord, TransferRecord};
use netsession_logs::TraceDataset;
use netsession_nat::matrix::{connectivity, Connectivity};
use netsession_obs::timeseries::{merge_shards, MergedSeries, SeriesSpec, ShardSeries};
use netsession_obs::{
    AlertEvent, Counter, Histogram, MetricsRegistry, SpanId, TraceCtx, TraceSink,
};
use netsession_sim::engine::EventQueue;
use netsession_sim::flownet::{FlowId, FlowNet, NodeId};
use netsession_sim::queue::{BinaryHeapSched, EventSched, TimingWheel};
use netsession_world::behaviour::UserModel;
use netsession_world::cloning::AnomalyPlan;
use netsession_world::geo::{region_of, Region, WORLD_COUNTRIES};
use netsession_world::mobility::{MobilityConfig, MobilityPlan};

/// Tick granularity for the fluid model.
const TICK: SimDuration = SimDuration::from_secs(20);
/// Grace period after the month during which in-flight downloads may
/// finish before being cut off.
const TAIL: SimDuration = SimDuration::from_days(2);
/// Connection-success probabilities by traversal kind.
const P_DIRECT: f64 = 0.97;
const P_PUNCH: f64 = 0.85;
/// Time-series window: half a simulated hour. It must stay shorter than
/// the alert rules' one-hour window: faults are injected on the hour, so
/// on an hour grid every detection would land exactly one hour late.
pub const FLOW_TS_INTERVAL_US: u64 = 1_800_000_000;

// Metric indices into [`FLOW_TS_METRICS`], used by the recording sites.
const TS_DL_STARTED: usize = 0;
const TS_DL_COMPLETED: usize = 1;
const TS_BYTES_PEERS: usize = 2;
const TS_ACTIVE: usize = 3;
const TS_CN_CRASHES: usize = 4;
const TS_DN_WIPES: usize = 5;
const TS_EDGE_OUTAGES: usize = 6;
const TS_CHURN_BURSTS: usize = 7;
const TS_CHURN_OFFLINE: usize = 8;
const TS_EDGE_ONLY: usize = 9;
const TS_INJECTED: usize = 10;
const TS_PEERS_DISCONNECTED: usize = 11;
const TS_EDGE_FLOWS_CUT: usize = 12;

/// The per-flow engine's time-series catalog, grouped by region (the one
/// a peer is logged into, or the one a fault hits): the four workload
/// metrics `tsreport` reads and the nine counters
/// [`crate::alerts::standard_rules`] watch. Names and
/// kinds shared with [`crate::scaled::TS_METRICS`] are spelled alike, so
/// rules, lint and report join on either engine's series.
pub const FLOW_TS_METRICS: &[SeriesSpec] = &[
    SeriesSpec::counter("scaled.downloads_started"),
    SeriesSpec::counter("scaled.downloads_completed"),
    SeriesSpec::counter("scaled.bytes_peers"),
    SeriesSpec::level("scaled.active_peers"),
    SeriesSpec::counter("hybrid.fault.cn_crashes"),
    SeriesSpec::counter("hybrid.fault.dn_wipes"),
    SeriesSpec::counter("hybrid.fault.edge_outages"),
    SeriesSpec::counter("hybrid.fault.churn_bursts"),
    SeriesSpec::counter("hybrid.fault.churn_offline"),
    SeriesSpec::counter("hybrid.fault.edge_only_downloads"),
    SeriesSpec::counter("hybrid.fault.injected"),
    SeriesSpec::counter("hybrid.fault.peers_disconnected"),
    SeriesSpec::counter("hybrid.fault.edge_flows_cut"),
];

#[derive(Clone, Debug)]
enum Event {
    Online(u32),
    Offline(u32),
    Arrival(u32),
    Tick,
    /// §3.8: a fleet-wide CN/DN software-update restart.
    ControlRestart,
    /// A scheduled infrastructure fault (index into `faults.events`).
    Fault(u32),
    /// Paced control-plane readmission of a dropped peer (§3.8: the
    /// reconnect limiter spreads the herd; until this fires the peer is
    /// control-disconnected and its downloads run edge-only).
    Readmit(u32),
    /// Paced RE-ADD response after a DN soft-state wipe: the peer
    /// re-registers its cached content (fate-sharing).
    ReAdd(u32),
    /// End of a region's edge outage: backstop flows re-attach.
    EdgeRecover(u32),
}

struct SourceFlow {
    peer: u32,
    flow: FlowId,
    bytes: f64,
    /// Open `peer_transfer` span, ended when the source detaches.
    span: SpanId,
}

struct Dl {
    peer: u32,
    object: ObjectId,
    version: VersionId,
    size: f64,
    p2p: bool,
    cap: Option<u32>,
    started: SimTime,
    token: AuthToken,
    edge_flow: Option<FlowId>,
    edge_bytes: f64,
    sources: Vec<SourceFlow>,
    /// Bytes from sources that already disconnected: (peer, bytes).
    finished_sources: Vec<(u32, f64)>,
    initial_peers: u32,
    abort_at: Option<SimTime>,
    env_fail_at_bytes: Option<f64>,
    sys_fail_at_bytes: Option<f64>,
    requeries: u32,
    region: u32,
    finished: Option<(SimTime, DownloadOutcome)>,
    /// Trace context whose span is this download's root span (the null
    /// context for unsampled downloads — every recording through it
    /// no-ops).
    ctx: TraceCtx,
    /// Open `edge_backstop` span, ended when the edge flow tears down.
    edge_span: SpanId,
}

impl Dl {
    /// Total bytes fetched so far across the edge flow, live sources, and
    /// already-detached sources. The hot loop computes this inline (fused
    /// with the rate pass); tests use this reference form.
    #[cfg(test)]
    fn done_bytes(&self) -> f64 {
        self.edge_bytes
            + self.sources.iter().map(|s| s.bytes).sum::<f64>()
            + self.finished_sources.iter().map(|(_, b)| b).sum::<f64>()
    }
}

/// Runtime peer state, struct-of-arrays: one parallel vector per field,
/// indexed by peer id. The hot loops (churn sweeps, source-availability
/// probes in `connect_sources`, offline upload teardown) each touch one or
/// two fields across many peers; packing those fields contiguously keeps
/// them cache-dense instead of striding over ~200-byte rows, and the
/// disjoint field borrows fall out of the borrow checker for free.
struct PeerTable {
    node: Vec<NodeId>,
    online: Vec<bool>,
    /// Control connection up. Tracks `online` except between a CN crash
    /// and the paced readmission: the machine is on (data plane works,
    /// cached copies still serve uploads) but it cannot query for peers
    /// or register content, so new downloads degrade to edge-only (§3.8).
    control_connected: Vec<bool>,
    uploads_enabled: Vec<bool>,
    pending_pref_changes: Vec<Vec<(SimTime, bool)>>,
    /// Complete cached versions and their expiry.
    cached: Vec<FxHashMap<ObjectId, (VersionId, SimTime)>>,
    identity: Vec<IdentityState>,
    mobility: Vec<MobilityPlan>,
    /// Current login site (index into mobility plan).
    site: Vec<usize>,
    active_uploads: Vec<u32>,
    active_download: Vec<Option<usize>>,
    logged_region: Vec<u32>,
}

impl PeerTable {
    fn with_capacity(n: usize) -> Self {
        PeerTable {
            node: Vec::with_capacity(n),
            online: Vec::with_capacity(n),
            control_connected: Vec::with_capacity(n),
            uploads_enabled: Vec::with_capacity(n),
            pending_pref_changes: Vec::with_capacity(n),
            cached: Vec::with_capacity(n),
            identity: Vec::with_capacity(n),
            mobility: Vec::with_capacity(n),
            site: Vec::with_capacity(n),
            active_uploads: Vec::with_capacity(n),
            active_download: Vec::with_capacity(n),
            logged_region: Vec::with_capacity(n),
        }
    }

    /// Append one peer row (offline, nothing cached, no activity).
    fn push(
        &mut self,
        node: NodeId,
        uploads_enabled: bool,
        pending_pref_changes: Vec<(SimTime, bool)>,
        identity: IdentityState,
        mobility: MobilityPlan,
    ) {
        self.node.push(node);
        self.online.push(false);
        self.control_connected.push(false);
        self.uploads_enabled.push(uploads_enabled);
        self.pending_pref_changes.push(pending_pref_changes);
        self.cached.push(FxHashMap::default());
        self.identity.push(identity);
        self.mobility.push(mobility);
        self.site.push(0);
        self.active_uploads.push(0);
        self.active_download.push(None);
        self.logged_region.push(0);
    }

    fn len(&self) -> usize {
        self.node.len()
    }
}

/// Aggregate run statistics (sanity numbers next to the dataset).
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Downloads completed.
    pub completed: u64,
    /// Abandoned by the user.
    pub abandoned: u64,
    /// Failed, system-related.
    pub failed_system: u64,
    /// Failed, other causes.
    pub failed_env: u64,
    /// Never finished by the cutoff.
    pub cut_off: u64,
    /// Total p2p content bytes moved.
    pub p2p_bytes: u64,
    /// Total edge content bytes moved.
    pub edge_bytes: u64,
    /// Peer connection attempts that failed traversal.
    pub punch_failures: u64,
    /// Re-queries issued (§3.7's "additional queries").
    pub requeries: u64,
    /// Logins processed.
    pub logins: u64,
}

/// Result of a run.
pub struct SimOutput {
    /// The production-style logs.
    pub dataset: TraceDataset,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// The scenario in its end-of-month state (population, catalog, AS
    /// universe, control plane) — several analyses join against it.
    pub scenario: Scenario,
    /// Telemetry recorded during the run (deterministic counters and
    /// histograms, the event ring, and wall-clock timings in the volatile
    /// section).
    pub metrics: MetricsRegistry,
    /// Download-lifecycle spans sampled during the run (1-in-N per
    /// `ScenarioConfig::obs.trace_sample_every`), exportable as
    /// Chrome-trace/Perfetto JSON. Deterministic: all timestamps are
    /// virtual sim time and IDs come from a monotone counter.
    pub trace: TraceSink,
    /// Raise/clear transitions of [`crate::alerts::standard_rules`],
    /// replayed fleet-wide over [`SimOutput::timeseries`]. Deterministic:
    /// timestamps are window closes in virtual time, and a fault-free run
    /// produces an empty log (its fault counters never move).
    pub alerts: Vec<AlertEvent>,
    /// Per-(metric, region) series of [`FLOW_TS_METRICS`] on the
    /// [`FLOW_TS_INTERVAL_US`] grid, spanning the month and its tail up to
    /// and including the cutoff instant.
    pub timeseries: MergedSeries,
}

/// The simulation driver.
pub struct HybridSim {
    scenario: Scenario,
    rng: DetRng,
    user_model: UserModel,
    metrics: MetricsRegistry,
    trace: TraceSink,
    /// Windowed telemetry, recorded at event time next to the registry
    /// increments it mirrors.
    series: ShardSeries,
}

impl HybridSim {
    /// Create from a built scenario. The trace sampling rate comes from
    /// the scenario's `obs` section.
    pub fn new(scenario: Scenario) -> Self {
        let rng = DetRng::seeded(scenario.config.seed ^ 0x73696d);
        let metrics = MetricsRegistry::new();
        let trace = TraceSink::new(scenario.config.obs.trace_sample_every);
        HybridSim {
            scenario,
            rng,
            user_model: UserModel::default(),
            metrics,
            trace,
            series: ShardSeries::new(FLOW_TS_METRICS, Region::ALL.len(), FLOW_TS_INTERVAL_US),
        }
    }

    /// Record the run's telemetry into `registry` instead of the sim's own
    /// private registry. Instrumentation is strictly passive — attaching a
    /// registry never changes simulated behaviour or the produced dataset.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = registry.clone();
        self
    }

    /// Convenience: build and run a config.
    pub fn run_config(config: ScenarioConfig) -> SimOutput {
        HybridSim::new(Scenario::build(config)).run()
    }

    /// Build and run a config, recording telemetry into a caller-supplied
    /// registry. Lets multi-run experiments (sweeps, ablations) accumulate
    /// metrics from every run into one sidecar.
    pub fn run_config_with(config: ScenarioConfig, registry: &MetricsRegistry) -> SimOutput {
        HybridSim::new(Scenario::build(config))
            .with_metrics(registry)
            .run()
    }

    /// Run the month and produce the trace.
    pub fn run(self) -> SimOutput {
        self.run_with_sched::<TimingWheel<Event>>()
    }

    /// Run on the binary-heap oracle queue instead of the default timing
    /// wheel. The output must be bit-identical to [`HybridSim::run`] — the
    /// A/B macro benchmark asserts exactly that while timing both backends.
    pub fn run_with_oracle_queue(self) -> SimOutput {
        self.run_with_sched::<BinaryHeapSched<Event>>()
    }

    /// The event loop, generic over the queue storage backend. The backend
    /// affects wall-clock only: every implementation of [`EventSched`] pops
    /// in the same deterministic `(time, seq)` order.
    fn run_with_sched<S: EventSched<Event> + Default>(mut self) -> SimOutput {
        let n_peers = self.scenario.population.len();
        let metrics = self.metrics.clone();
        let trace = self.trace.clone();
        trace.attach_metrics(&metrics);
        self.scenario.plane.attach_metrics(&metrics);
        for edge in &mut self.scenario.edges {
            edge.attach_metrics(&metrics);
        }
        let mut net = FlowNet::new().with_metrics(&metrics).with_trace(&trace);
        let mut queue: EventQueue<Event, S> = EventQueue::new().with_metrics(&metrics);
        let mut dataset = TraceDataset::default();
        let mut stats = RunStats::default();

        // --- Static per-peer runtime state.
        let mob_cfg = MobilityConfig::default();
        let anomaly_plan = AnomalyPlan::default();
        let mut id_rng = self.rng.split(1);
        let mut mob_rng = self.rng.split(2);
        let mut sched_rng = self.rng.split(3);
        let mut beh_rng = self.rng.split(4);
        let mut run_rng = self.rng.split(5);
        // Seeded independently (not split from the parent) so that runs
        // without a fault schedule keep byte-identical streams with
        // pre-fault-injection builds.
        let mut churn_rng = DetRng::seeded(self.scenario.config.seed ^ 0x4348_5552_4e21);

        // Clone groups share a master image.
        let mut masters: FxHashMap<u32, netsession_world::cloning::InstallationState> =
            FxHashMap::default();
        let mut peers = PeerTable::with_capacity(n_peers);
        for spec in &self.scenario.population.peers {
            let up_frac = self.scenario.config.transfer.upload_rate_fraction;
            let node = net.add_node(
                Bandwidth::from_bytes_per_sec(spec.up.bytes_per_sec() * up_frac),
                spec.down,
            );
            let identity = match spec.clone_group {
                Some(g) => {
                    let master = masters
                        .entry(g)
                        .or_insert_with(|| IdentityState::master_image(3, &mut id_rng))
                        .clone();
                    IdentityState::cloned_from(&master)
                }
                None => match anomaly_plan.sample(&mut id_rng) {
                    netsession_world::cloning::AnomalyKind::None => IdentityState::normal(),
                    kind => IdentityState::with_anomaly(kind, 2 + id_rng.index(6) as u64),
                },
            };
            let mobility = MobilityPlan::generate(
                spec,
                &self.scenario.population.as_model,
                &mob_cfg,
                &mut mob_rng,
            );
            // Table-3 setting changes, scheduled at random trace times.
            let changes = self
                .user_model
                .sample_setting_changes(spec.uploads_enabled, &mut beh_rng);
            let mut pending = Vec::new();
            let mut setting = spec.uploads_enabled;
            for _ in 0..changes {
                setting = !setting;
                pending.push((
                    SimTime((beh_rng.f64() * TRACE_MONTH.as_micros() as f64) as u64),
                    setting,
                ));
            }
            pending.sort_by_key(|(t, _)| *t);
            peers.push(node, spec.uploads_enabled, pending, identity, mobility);
        }

        // --- Pre-seed: history before the trace month left copies of
        // popular p2p objects on upload-enabled peers.
        {
            let mut seed_rng = self.rng.split(6);
            let total_pop: f64 = self
                .scenario
                .catalog
                .objects()
                .iter()
                .map(|o| o.popularity)
                .sum();
            let downloads = self.scenario.config.workload.downloads as f64;
            let enabled: Vec<u32> = self
                .scenario
                .population
                .peers
                .iter()
                .filter(|p| p.uploads_enabled)
                .map(|p| p.index.0)
                .collect();
            if !enabled.is_empty() {
                for obj in self.scenario.catalog.objects() {
                    if !obj.policy.p2p_enabled {
                        continue;
                    }
                    let expected = obj.popularity / total_pop * downloads;
                    let copies = ((expected * 1.2) as usize).clamp(30, 150);
                    for _ in 0..copies {
                        let p = enabled[seed_rng.index(enabled.len())];
                        let expiry = SimTime::ZERO
                            + SimDuration::from_hours(
                                self.scenario.config.transfer.cache_ttl_hours as u64,
                            );
                        peers.cached[p as usize].insert(obj.id, (obj.version(), expiry));
                    }
                }
            }
        }

        // --- Schedule logins: per peer, per day, with daily_login_prob.
        let days = TRACE_MONTH.as_micros() / 86_400_000_000;
        for (i, spec) in self.scenario.population.peers.iter().enumerate() {
            for day in 0..days {
                if !sched_rng.chance(self.scenario.config.daily_login_prob) {
                    continue;
                }
                let start_local = spec.online_start_hour + sched_rng.range_f64(-0.5, 0.5);
                let len = spec.online_hours * self.scenario.config.session_mode_factor;
                let start_gmt = (start_local - spec.tz_offset as f64).rem_euclid(24.0);
                let online_at = SimTime::ZERO
                    + SimDuration::from_days(day)
                    + SimDuration::from_secs_f64(start_gmt * 3600.0);
                let offline_at = online_at + SimDuration::from_secs_f64(len.max(0.25) * 3600.0);
                queue.schedule(online_at, Event::Online(i as u32));
                queue.schedule(offline_at, Event::Offline(i as u32));
            }
        }

        // --- Schedule request arrivals.
        for (i, req) in self.scenario.workload.requests.iter().enumerate() {
            queue.schedule(req.at, Event::Arrival(i as u32));
        }

        // --- Optional §3.8 control-plane restart.
        if let Some(day) = self.scenario.config.control_restart_day {
            queue.schedule(
                SimTime::ZERO + SimDuration::from_days(day) + SimDuration::from_hours(3),
                Event::ControlRestart,
            );
        }

        // --- Scheduled infrastructure faults (§3.8 chaos campaign).
        for (i, f) in self.scenario.config.faults.events.iter().enumerate() {
            queue.schedule(
                SimTime::ZERO + SimDuration::from_hours(f.at_hours),
                Event::Fault(i as u32),
            );
        }

        // --- Edge nodes per region.
        let edge_nodes: Vec<NodeId> = (0..self.scenario.plane.regions())
            .map(|_| net.add_infinite_node())
            .collect();

        // --- Main loop state.
        let mut guid_owner: FxHashMap<Guid, u32> = FxHashMap::default();
        let mut dls: Vec<Dl> = Vec::new();
        let mut active: Vec<usize> = Vec::new();
        let mut last_advance = SimTime::ZERO;
        // Shared per-source rate cache for `advance` (see there).
        let mut adv_rates: Vec<f64> = Vec::new();
        let mut tick_scheduled = false;
        let cutoff = SimTime::ZERO + TRACE_MONTH + TAIL;
        // Regions whose edge servers are currently dark (EdgeOutage).
        let mut edge_down = vec![false; self.scenario.plane.regions() as usize];

        // Per-event-type instruments, pre-created so the hot loop does no
        // name lookups. Wall-clock timings go to the volatile section (they
        // differ run-to-run and must not pollute the deterministic snapshot).
        let ev_counters = [
            metrics.counter("hybrid.ev_online"),
            metrics.counter("hybrid.ev_offline"),
            metrics.counter("hybrid.ev_arrival"),
            metrics.counter("hybrid.ev_tick"),
            metrics.counter("hybrid.ev_control_restart"),
            metrics.counter("hybrid.ev_fault"),
            metrics.counter("hybrid.ev_readmit"),
            metrics.counter("hybrid.ev_readd"),
            metrics.counter("hybrid.ev_edge_recover"),
        ];
        let hot = HotInstruments::from(&metrics);
        let ev_timings = [
            metrics.volatile_histogram("hybrid.ev_online_ns"),
            metrics.volatile_histogram("hybrid.ev_offline_ns"),
            metrics.volatile_histogram("hybrid.ev_arrival_ns"),
            metrics.volatile_histogram("hybrid.ev_tick_ns"),
            metrics.volatile_histogram("hybrid.ev_control_restart_ns"),
            metrics.volatile_histogram("hybrid.ev_fault_ns"),
            metrics.volatile_histogram("hybrid.ev_readmit_ns"),
            metrics.volatile_histogram("hybrid.ev_readd_ns"),
            metrics.volatile_histogram("hybrid.ev_edge_recover_ns"),
        ];

        while let Some((t, event)) = queue.pop() {
            if t > cutoff {
                break;
            }
            let ev_kind = match &event {
                Event::Online(_) => 0,
                Event::Offline(_) => 1,
                Event::Arrival(_) => 2,
                Event::Tick => 3,
                Event::ControlRestart => 4,
                Event::Fault(_) => 5,
                Event::Readmit(_) => 6,
                Event::ReAdd(_) => 7,
                Event::EdgeRecover(_) => 8,
            };
            ev_counters[ev_kind].incr();
            let ev_started = std::time::Instant::now();
            match event {
                Event::Online(p) => {
                    self.login(
                        p,
                        t,
                        &mut peers,
                        &mut guid_owner,
                        &mut dataset,
                        &mut stats,
                        &mut run_rng,
                    );
                }
                Event::Offline(p) => {
                    advance(&mut dls, &active, &net, last_advance, t, &mut adv_rates);
                    last_advance = t;
                    self.peer_offline(p, t, &mut peers, &mut net, &mut dls, &active);
                    process_finished(
                        &mut dls,
                        &mut active,
                        &mut peers,
                        &mut net,
                        &mut self.scenario,
                        &mut dataset,
                        &mut stats,
                        &hot,
                        &trace,
                        &mut self.series,
                        t,
                    );
                    net.recompute_dirty();
                }
                Event::Arrival(i) => {
                    advance(&mut dls, &active, &net, last_advance, t, &mut adv_rates);
                    last_advance = t;
                    self.start_download(
                        i as usize,
                        t,
                        &mut peers,
                        &mut guid_owner,
                        &mut net,
                        &edge_nodes,
                        &edge_down,
                        &mut dls,
                        &mut active,
                        &mut dataset,
                        &mut stats,
                        &hot,
                        &mut run_rng,
                    );
                    process_finished(
                        &mut dls,
                        &mut active,
                        &mut peers,
                        &mut net,
                        &mut self.scenario,
                        &mut dataset,
                        &mut stats,
                        &hot,
                        &trace,
                        &mut self.series,
                        t,
                    );
                    net.recompute_dirty();
                    if !tick_scheduled && !active.is_empty() {
                        queue.schedule(t + TICK, Event::Tick);
                        tick_scheduled = true;
                    }
                }
                Event::ControlRestart => {
                    metrics.record_event(
                        t.as_micros(),
                        "hybrid",
                        "control_restart",
                        "fleet-wide CN/DN restart: connections dropped, DN soft \
                         state wiped, paced readmission + RE-ADD recovery",
                    );
                    // §3.8: every CN and DN restarts "in a short timeframe".
                    // Connections drop, DN soft state is wiped, and the
                    // whole fleet reconnects through the rate limiter — the
                    // paced readmission re-registers each peer's cache
                    // (fate-sharing), repopulating the directories. Until a
                    // peer's Readmit fires its downloads run edge-only.
                    let fctx = trace.start_trace_always("control_restart", "fault", t.as_micros());
                    let mut dropped = 0u64;
                    let mut last = t;
                    for region in 0..self.scenario.plane.regions() {
                        let _ = self.scenario.plane.fail_dn(region);
                        let mut region_dropped = 0;
                        for (guid, at) in self.scenario.plane.fail_cn(region, t) {
                            let Some(&p) = guid_owner.get(&guid) else {
                                continue;
                            };
                            if !peers.online[p as usize] {
                                continue;
                            }
                            peers.control_connected[p as usize] = false;
                            queue.schedule(at, Event::Readmit(p));
                            region_dropped += 1;
                            last = last.max(at);
                        }
                        self.series.add(
                            TS_PEERS_DISCONNECTED,
                            region as usize,
                            t.as_micros(),
                            region_dropped as i64,
                        );
                        dropped += region_dropped;
                    }
                    metrics
                        .counter("hybrid.fault.peers_disconnected")
                        .add(dropped);
                    trace.add_attr(fctx.span, "dropped", dropped);
                    // The span covers the paced reconnect wave.
                    trace.end_span(fctx.span, last.as_micros());
                }
                Event::Fault(i) => {
                    // Faults mutate the flow set; settle transfers first.
                    advance(&mut dls, &active, &net, last_advance, t, &mut adv_rates);
                    last_advance = t;
                    let fault = self.scenario.config.faults.events[i as usize];
                    let t_us = t.as_micros();
                    // A fleet-wide burst has no region: its cause counters
                    // go to the first group, so every series total still
                    // equals its registry counter.
                    let group = fault.kind.region().unwrap_or(0) as usize;
                    metrics.counter("hybrid.fault.injected").incr();
                    self.series.add(TS_INJECTED, group, t_us, 1);
                    metrics.record_event(t_us, "hybrid", "fault", format!("{:?}", fault.kind));
                    match fault.kind {
                        FaultKind::CnCrash { region } => {
                            metrics.counter("hybrid.fault.cn_crashes").incr();
                            self.series.add(TS_CN_CRASHES, group, t_us, 1);
                            let fctx =
                                trace.start_trace_always("fault_cn_crash", "fault", t.as_micros());
                            trace.add_attr(fctx.span, "region", region as u64);
                            let mut dropped = 0u64;
                            let mut last = t;
                            for (guid, at) in self.scenario.plane.fail_cn(region, t) {
                                let Some(&p) = guid_owner.get(&guid) else {
                                    continue;
                                };
                                if !peers.online[p as usize] {
                                    continue;
                                }
                                peers.control_connected[p as usize] = false;
                                queue.schedule(at, Event::Readmit(p));
                                dropped += 1;
                                last = last.max(at);
                            }
                            metrics
                                .counter("hybrid.fault.peers_disconnected")
                                .add(dropped);
                            self.series
                                .add(TS_PEERS_DISCONNECTED, group, t_us, dropped as i64);
                            trace.add_attr(fctx.span, "dropped", dropped);
                            // Span covers the paced reconnect wave (§3.8
                            // "smooth recovery").
                            trace.end_span(fctx.span, last.as_micros());
                        }
                        FaultKind::DnWipe { region } => {
                            metrics.counter("hybrid.fault.dn_wipes").incr();
                            self.series.add(TS_DN_WIPES, group, t_us, 1);
                            let fctx =
                                trace.start_trace_always("fault_dn_wipe", "fault", t.as_micros());
                            trace.add_attr(fctx.span, "region", region as u64);
                            let mut asked = 0u64;
                            let mut last = t;
                            for guid in self.scenario.plane.fail_dn(region) {
                                let Some(&p) = guid_owner.get(&guid) else {
                                    continue;
                                };
                                if !peers.online[p as usize] || !peers.uploads_enabled[p as usize] {
                                    continue;
                                }
                                let at = self.scenario.plane.pace_recovery(t);
                                queue.schedule(at, Event::ReAdd(p));
                                asked += 1;
                                last = last.max(at);
                            }
                            trace.add_attr(fctx.span, "readds_requested", asked);
                            trace.end_span(fctx.span, last.as_micros());
                        }
                        FaultKind::EdgeOutage { region, secs } => {
                            metrics.counter("hybrid.fault.edge_outages").incr();
                            self.series.add(TS_EDGE_OUTAGES, group, t_us, 1);
                            let fctx = trace.start_trace_always(
                                "fault_edge_outage",
                                "fault",
                                t.as_micros(),
                            );
                            trace.add_attr(fctx.span, "region", region as u64);
                            trace.add_attr(fctx.span, "secs", secs);
                            edge_down[region as usize] = true;
                            let mut cut = 0u64;
                            for id in &active {
                                let dl = &mut dls[*id];
                                if dl.region != region || dl.finished.is_some() {
                                    continue;
                                }
                                if let Some(f) = dl.edge_flow.take() {
                                    net.set_trace_scope(dl.ctx, t.as_micros());
                                    net.remove_flow(f);
                                    net.clear_trace_scope();
                                    if dl.edge_span != SpanId::NONE {
                                        trace.add_attr(
                                            dl.edge_span,
                                            "bytes_at_cut",
                                            dl.edge_bytes as u64,
                                        );
                                        trace.add_attr(dl.edge_span, "end_reason", "edge_outage");
                                        trace.end_span(dl.edge_span, t.as_micros());
                                        dl.edge_span = SpanId::NONE;
                                    }
                                    cut += 1;
                                }
                            }
                            metrics.counter("hybrid.fault.edge_flows_cut").add(cut);
                            self.series.add(TS_EDGE_FLOWS_CUT, group, t_us, cut as i64);
                            trace.add_attr(fctx.span, "flows_cut", cut);
                            let until = t + SimDuration::from_secs(secs);
                            trace.end_span(fctx.span, until.as_micros());
                            queue.schedule(until, Event::EdgeRecover(region));
                        }
                        FaultKind::ChurnBurst { fraction } => {
                            metrics.counter("hybrid.fault.churn_bursts").incr();
                            self.series.add(TS_CHURN_BURSTS, group, t_us, 1);
                            let fctx = trace.start_trace_always(
                                "fault_churn_burst",
                                "fault",
                                t.as_micros(),
                            );
                            let mut gone = 0u64;
                            for p in 0..peers.len() as u32 {
                                if !peers.online[p as usize]
                                    || peers.active_download[p as usize].is_some()
                                {
                                    continue;
                                }
                                if !churn_rng.chance(fraction) {
                                    continue;
                                }
                                self.peer_offline(p, t, &mut peers, &mut net, &mut dls, &active);
                                let region = peers.logged_region[p as usize] as usize;
                                self.series.add(TS_CHURN_OFFLINE, region, t_us, 1);
                                gone += 1;
                            }
                            metrics.counter("hybrid.fault.churn_offline").add(gone);
                            trace.add_attr(fctx.span, "peers_offline", gone);
                            trace.end_span(fctx.span, t.as_micros());
                        }
                    }
                    process_finished(
                        &mut dls,
                        &mut active,
                        &mut peers,
                        &mut net,
                        &mut self.scenario,
                        &mut dataset,
                        &mut stats,
                        &hot,
                        &trace,
                        &mut self.series,
                        t,
                    );
                    net.recompute_dirty();
                }
                Event::Readmit(p) => {
                    self.control_readmit(p, t, &mut peers);
                }
                Event::ReAdd(p) => {
                    self.control_readd(p, t, &peers);
                }
                Event::EdgeRecover(region) => {
                    advance(&mut dls, &active, &net, last_advance, t, &mut adv_rates);
                    last_advance = t;
                    edge_down[region as usize] = false;
                    let mut restored = 0u64;
                    if self.scenario.config.edge_backstop {
                        for id in &active {
                            let dl = &mut dls[*id];
                            if dl.region != region
                                || dl.finished.is_some()
                                || dl.edge_flow.is_some()
                            {
                                continue;
                            }
                            let downlink = self.scenario.population.peers[dl.peer as usize].down;
                            net.set_trace_scope(dl.ctx, t.as_micros());
                            dl.edge_flow = Some(net.add_flow(
                                edge_nodes[region as usize],
                                peers.node[dl.peer as usize],
                                None,
                            ));
                            net.clear_trace_scope();
                            dl.edge_span =
                                trace.span(dl.ctx, "edge_backstop", "edge", t.as_micros());
                            trace.add_attr(dl.edge_span, "restored", true);
                            update_edge_ceil(dl, downlink, &mut net);
                            restored += 1;
                        }
                    }
                    metrics
                        .counter("hybrid.fault.edge_flows_restored")
                        .add(restored);
                    metrics.record_event(
                        t.as_micros(),
                        "hybrid",
                        "edge_recover",
                        format!("region {region}: {restored} backstop flows re-attached"),
                    );
                    net.recompute_dirty();
                }
                Event::Tick => {
                    advance(&mut dls, &active, &net, last_advance, t, &mut adv_rates);
                    last_advance = t;
                    process_finished(
                        &mut dls,
                        &mut active,
                        &mut peers,
                        &mut net,
                        &mut self.scenario,
                        &mut dataset,
                        &mut stats,
                        &hot,
                        &trace,
                        &mut self.series,
                        t,
                    );
                    self.requery(
                        t,
                        &mut peers,
                        &guid_owner,
                        &mut net,
                        &mut dls,
                        &active,
                        &mut stats,
                        &hot,
                        &mut run_rng,
                    );
                    // Rates must be refreshed whenever the tick changed the
                    // flow set — a finished download tearing flows down OR
                    // a requery connecting new sources / retightening the
                    // edge ceiling. (Gating this on "a download finished"
                    // used to leave requery-added flows at 0 B/s for many
                    // ticks.) The incremental path is a no-op on the common
                    // quiet tick where nothing was dirtied.
                    net.recompute_dirty();
                    if active.is_empty() {
                        tick_scheduled = false;
                    } else {
                        queue.schedule(t + TICK, Event::Tick);
                    }
                }
            }
            ev_timings[ev_kind].record(ev_started.elapsed().as_nanos() as u64);
        }

        // Cut off whatever is still in flight.
        for id in active.clone() {
            let dl = &mut dls[id];
            dl.finished = Some((cutoff, DownloadOutcome::Abandoned));
            stats.cut_off += 1;
        }
        process_finished(
            &mut dls,
            &mut active,
            &mut peers,
            &mut net,
            &mut self.scenario,
            &mut dataset,
            &mut stats,
            &hot,
            &trace,
            &mut self.series,
            cutoff,
        );

        // DN registration log.
        let mut reg: FxHashMap<VersionId, u64> = FxHashMap::default();
        for obj in self.scenario.catalog.objects() {
            let n = self.scenario.plane.registrations_of(obj.version());
            if n > 0 {
                reg.insert(obj.version(), n);
            }
        }
        dataset.registrations = reg.into_iter().collect();
        dataset.registrations.sort_by_key(|(v, _)| *v);

        // §3.8 alerting: replay the standard rules over the recorded
        // series, the same path the sharded runner takes. Touching the
        // cutoff window makes the window count a function of the config
        // alone, not of when the last event fired.
        self.series.add(TS_DL_STARTED, 0, cutoff.as_micros(), 0);
        let labels: Vec<String> = Region::ALL.iter().map(|r| r.label().to_string()).collect();
        let timeseries = merge_shards(std::slice::from_ref(&self.series), &labels);
        let alerts = timeseries.replay(crate::alerts::standard_rules(), None);

        SimOutput {
            dataset,
            stats,
            scenario: self.scenario,
            metrics,
            trace,
            alerts,
            timeseries,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn login(
        &mut self,
        p: u32,
        t: SimTime,
        peers: &mut PeerTable,
        guid_owner: &mut FxHashMap<Guid, u32>,
        dataset: &mut TraceDataset,
        stats: &mut RunStats,
        rng: &mut DetRng,
    ) {
        let spec = &self.scenario.population.peers[p as usize];
        let i = p as usize;
        if peers.online[i] {
            return;
        }
        // Apply due preference changes.
        while let Some((when, setting)) = peers.pending_pref_changes[i].first().copied() {
            if when <= t {
                peers.uploads_enabled[i] = setting;
                peers.pending_pref_changes[i].remove(0);
            } else {
                break;
            }
        }
        // Pick the login site.
        let site_idx = {
            let mobility = &peers.mobility[i];
            let site = mobility.sample_site(rng);
            mobility.sites.iter().position(|s| s == site).unwrap_or(0)
        };
        peers.site[i] = site_idx;
        let site = &peers.mobility[i].sites[site_idx];
        let country = &WORLD_COUNTRIES[site.country];
        let region = region_of(country, &country.cities[site.city]).index() as u32;
        peers.logged_region[i] = region;
        peers.online[i] = true;
        self.series
            .level_shift(TS_ACTIVE, region as usize, t.as_micros(), 1);
        peers.control_connected[i] = true;
        guid_owner.insert(spec.guid, p);

        let sguids = peers.identity[i].on_login(rng);
        self.scenario.plane.login(
            region,
            spec.guid,
            PeerAddr {
                ip: site.ip,
                port: 8443,
            },
            spec.nat,
            peers.uploads_enabled[i],
            40_100,
            sguids.clone(),
            t,
        );
        dataset.geodb.record(
            site.ip,
            &GeoInfoRef {
                country_code: country.iso,
                city: country.cities[site.city].name,
                lat: site.lat,
                lon: site.lon,
                tz_offset: country.tz_offset,
                asn: site.asn,
                country_idx: site.country as u16,
                region_idx: region as u8,
            },
        );
        dataset.logins.push(LoginRecord {
            at: t,
            guid: spec.guid,
            ip: site.ip,
            asn: site.asn,
            country: site.country as u16,
            lat: site.lat,
            lon: site.lon,
            uploads_enabled: peers.uploads_enabled[i],
            software_version: 40_100,
            secondary_guids: sguids,
        });
        stats.logins += 1;

        // Register shareable cache contents.
        if peers.uploads_enabled[i] {
            let record = PeerRecord {
                guid: spec.guid,
                addr: PeerAddr {
                    ip: site.ip,
                    port: 8443,
                },
                asn: site.asn,
                area: site.country as u16,
                zone: region as u8,
                nat: spec.nat,
            };
            let versions: Vec<VersionId> = peers.cached[i]
                .iter()
                .filter(|(_, (_, exp))| *exp > t)
                .map(|(_, (v, _))| *v)
                .collect();
            for v in versions {
                self.scenario
                    .plane
                    .register_content(region, record.clone(), v);
            }
        }
    }

    fn peer_offline(
        &mut self,
        p: u32,
        t: SimTime,
        peers: &mut PeerTable,
        net: &mut FlowNet,
        dls: &mut [Dl],
        active: &[usize],
    ) {
        // A peer with an active download stays connected until it ends
        // (the user is waiting for it).
        if peers.active_download[p as usize].is_some() || !peers.online[p as usize] {
            return;
        }
        let spec = &self.scenario.population.peers[p as usize];
        // Drop upload flows sourced here.
        if peers.active_uploads[p as usize] > 0 {
            for id in active {
                let dl = &mut dls[*id];
                let mut k = 0;
                let mut changed = false;
                net.set_trace_scope(dl.ctx, t.as_micros());
                while k < dl.sources.len() {
                    if dl.sources[k].peer == p {
                        let s = dl.sources.swap_remove(k);
                        net.remove_flow(s.flow);
                        self.trace.add_attr(s.span, "bytes", s.bytes as u64);
                        self.trace.add_attr(s.span, "end_reason", "source_offline");
                        self.trace.end_span(s.span, t.as_micros());
                        dl.finished_sources.push((s.peer, s.bytes));
                        peers.active_uploads[p as usize] =
                            peers.active_uploads[p as usize].saturating_sub(1);
                        changed = true;
                    } else {
                        k += 1;
                    }
                }
                net.clear_trace_scope();
                if changed {
                    let downlink = self.scenario.population.peers[dl.peer as usize].down;
                    update_edge_ceil(dl, downlink, net);
                }
            }
        }
        let region = peers.logged_region[p as usize];
        self.scenario.plane.logout(region, spec.guid);
        peers.online[p as usize] = false;
        self.series
            .level_shift(TS_ACTIVE, region as usize, t.as_micros(), -1);
        peers.control_connected[p as usize] = false;
    }

    /// Paced readmission after a CN crash (§3.8): the peer opens a fresh
    /// control connection and — fate-sharing — re-registers its cached
    /// content, repopulating the directories. Skipped if the peer logged
    /// out while waiting (its next login reconnects anyway) or already
    /// holds a fresh session.
    fn control_readmit(&mut self, p: u32, t: SimTime, peers: &mut PeerTable) {
        let i = p as usize;
        if !peers.online[i] || peers.control_connected[i] {
            return;
        }
        peers.control_connected[i] = true;
        let spec = &self.scenario.population.peers[i];
        let site = &peers.mobility[i].sites[peers.site[i]];
        let region = peers.logged_region[i];
        let addr = PeerAddr {
            ip: site.ip,
            port: 8443,
        };
        self.scenario.plane.login(
            region,
            spec.guid,
            addr,
            spec.nat,
            peers.uploads_enabled[i],
            40_100,
            vec![],
            t,
        );
        self.metrics.counter("hybrid.fault.readmissions").incr();
        if peers.uploads_enabled[i] {
            let record = PeerRecord {
                guid: spec.guid,
                addr,
                asn: site.asn,
                area: site.country as u16,
                zone: region as u8,
                nat: spec.nat,
            };
            let versions: Vec<VersionId> = peers.cached[i]
                .values()
                .filter(|(_, exp)| *exp > t)
                .map(|(v, _)| *v)
                .collect();
            self.metrics
                .counter("hybrid.fault.reregistered_versions")
                .add(versions.len() as u64);
            for v in versions {
                self.scenario
                    .plane
                    .register_content(region, record.clone(), v);
            }
        }
    }

    /// Paced RE-ADD response after a DN soft-state wipe (§3.8): the peer's
    /// control connection survived, so it answers the directory's RE-ADD
    /// request with its cached versions.
    fn control_readd(&mut self, p: u32, t: SimTime, peers: &PeerTable) {
        let i = p as usize;
        if !peers.online[i] || !peers.control_connected[i] || !peers.uploads_enabled[i] {
            return;
        }
        let versions: Vec<VersionId> = peers.cached[i]
            .values()
            .filter(|(_, exp)| *exp > t)
            .map(|(v, _)| *v)
            .collect();
        if versions.is_empty() {
            return;
        }
        let spec = &self.scenario.population.peers[i];
        let site = &peers.mobility[i].sites[peers.site[i]];
        let record = PeerRecord {
            guid: spec.guid,
            addr: PeerAddr {
                ip: site.ip,
                port: 8443,
            },
            asn: site.asn,
            area: site.country as u16,
            zone: peers.logged_region[i] as u8,
            nat: spec.nat,
        };
        self.scenario
            .plane
            .handle_readd(peers.logged_region[i], record, &versions);
        self.metrics.counter("hybrid.fault.readds").incr();
        self.metrics
            .counter("hybrid.fault.readd_versions")
            .add(versions.len() as u64);
    }

    #[allow(clippy::too_many_arguments)]
    fn start_download(
        &mut self,
        req_idx: usize,
        t: SimTime,
        peers: &mut PeerTable,
        guid_owner: &mut FxHashMap<Guid, u32>,
        net: &mut FlowNet,
        edge_nodes: &[NodeId],
        edge_down: &[bool],
        dls: &mut Vec<Dl>,
        active: &mut Vec<usize>,
        dataset: &mut TraceDataset,
        stats: &mut RunStats,
        hot: &HotInstruments,
        rng: &mut DetRng,
    ) {
        let req = self.scenario.workload.requests[req_idx];
        let p = req.peer.0;
        // One concurrent download per peer: drop overlapping requests.
        if peers.active_download[p as usize].is_some() {
            return;
        }
        if !peers.online[p as usize] {
            // The user turned the machine on to download.
            self.login(p, t, peers, guid_owner, dataset, stats, rng);
        }
        let spec = &self.scenario.population.peers[p as usize];
        let region = peers.logged_region[p as usize];
        let control_up = peers.control_connected[p as usize];

        // Root span for this download's causal story. Unsampled requests
        // get the null context; everything recorded through it no-ops.
        let ctx = self.trace.start_trace("download", "hybrid", t.as_micros());
        if ctx.sampled {
            // GUIDs exceed 2^53, so they export as hex strings — raw u64
            // attrs would lose precision through an f64 JSON parser.
            self.trace
                .add_attr(ctx.span, "guid", format!("{:016x}", spec.guid.0 as u64));
        }
        self.trace.add_attr(ctx.span, "object", req.object.0);
        self.trace.add_attr(ctx.span, "region", region as u64);

        // Edge authorization (§3.5) — the trust root even for p2p.
        let auth = match self.scenario.edges[region as usize].authorize_traced(
            spec.guid,
            req.object,
            t,
            &self.trace,
            ctx,
        ) {
            Ok(a) => a,
            Err(_) => {
                self.trace.add_attr(ctx.span, "outcome", "denied");
                self.trace.end_span(ctx.span, t.as_micros());
                return;
            }
        };
        self.scenario
            .ledger
            .record_authorization(spec.guid, auth.token.version);
        let size = auth.manifest.size.bytes() as f64;
        let p2p = auth.policy.p2p_enabled;
        let cap = auth.policy.per_peer_upload_cap;
        let version = auth.token.version;
        self.trace.add_attr(ctx.span, "size", size as u64);
        self.trace.add_attr(ctx.span, "p2p", p2p);

        let id = dls.len();
        let mut dl = Dl {
            peer: p,
            object: req.object,
            version,
            size: size.max(1.0),
            p2p,
            cap,
            started: t,
            token: auth.token,
            edge_flow: None,
            edge_bytes: 0.0,
            sources: Vec::new(),
            finished_sources: Vec::new(),
            initial_peers: 0,
            abort_at: self.user_model.sample_abandon_after(rng).map(|d| t + d),
            env_fail_at_bytes: self
                .user_model
                .sample_env_failure(rng)
                .map(|f| f * size.max(1.0)),
            sys_fail_at_bytes: {
                let prob = if p2p { 0.002 } else { 0.001 };
                rng.chance(prob).then(|| rng.f64() * size.max(1.0))
            },
            requeries: 0,
            region,
            finished: None,
            ctx,
            edge_span: SpanId::NONE,
        };

        // Flow mutations below belong to this download's trace.
        net.set_trace_scope(ctx, t.as_micros());

        // Peer selection and connection establishment.
        if p2p {
            if control_up {
                let site = &peers.mobility[p as usize].sites[peers.site[p as usize]];
                let querier = Querier {
                    guid: spec.guid,
                    asn: site.asn,
                    area: site.country as u16,
                    zone: region as u8,
                    nat: spec.nat,
                };
                let (selected, _qspan) = self.scenario.plane.query_peers_traced(
                    region,
                    &querier,
                    &dl.token,
                    t,
                    rng,
                    &self.trace,
                    ctx,
                );
                if let Ok(contacts) = selected {
                    dl.initial_peers = contacts.len() as u32;
                    connect_sources(
                        &contacts,
                        spec.nat,
                        p,
                        &self.scenario,
                        peers,
                        guid_owner,
                        net,
                        &mut dl,
                        stats,
                        hot,
                        &self.trace,
                        t,
                        rng,
                    );
                }
            } else {
                // §3.8: the control plane is unreachable (CN crashed, the
                // paced readmission hasn't fired yet) — no peer query is
                // possible; the download proceeds against the edge alone.
                self.metrics
                    .counter("hybrid.fault.edge_only_downloads")
                    .incr();
                self.series
                    .add(TS_EDGE_ONLY, region as usize, t.as_micros(), 1);
                self.trace
                    .instant(ctx, "control_disconnected", "fault", t.as_micros());
            }
            // Swarm came up empty (nobody reachable through NAT, nobody
            // caching the version, or no control plane to ask): the
            // always-on edge connection is the backstop (§3.3).
            if dl.sources.is_empty() {
                self.metrics.counter("peer.edge_fallbacks").incr();
                self.trace
                    .instant(ctx, "edge_fallback", "edge", t.as_micros());
            }
        }

        if self.scenario.config.edge_backstop && !edge_down[region as usize] {
            dl.edge_flow =
                Some(net.add_flow(edge_nodes[region as usize], peers.node[p as usize], None));
            dl.edge_span = self.trace.span(ctx, "edge_backstop", "edge", t.as_micros());
            update_edge_ceil(&dl, spec.down, net);
        }
        net.clear_trace_scope();

        peers.active_download[p as usize] = Some(id);
        dls.push(dl);
        active.push(id);
        self.series
            .add(TS_DL_STARTED, region as usize, t.as_micros(), 1);
    }

    #[allow(clippy::too_many_arguments)]
    fn requery(
        &mut self,
        t: SimTime,
        peers: &mut PeerTable,
        guid_owner: &FxHashMap<Guid, u32>,
        net: &mut FlowNet,
        dls: &mut [Dl],
        active: &[usize],
        stats: &mut RunStats,
        hot: &HotInstruments,
        rng: &mut DetRng,
    ) {
        let sufficient = self.scenario.config.transfer.sufficient_peer_connections;
        let max_rounds = self.scenario.config.transfer.max_requery_rounds;
        for id in active {
            // Collect what we need up front to appease the borrow checker.
            let (needs, peer_idx, region) = {
                let dl = &dls[*id];
                (
                    // div_ceil: with `sufficient <= 1`, flooring division
                    // made the threshold 0 and disabled re-queries outright.
                    dl.p2p
                        && dl.finished.is_none()
                        && dl.sources.len() < sufficient.div_ceil(2)
                        && dl.requeries < max_rounds,
                    dl.peer,
                    dl.region,
                )
            };
            // A control-disconnected peer (CN crash, readmission pending)
            // cannot re-query; it keeps whatever sources it has plus the
            // edge backstop until its Readmit fires.
            if !needs || !peers.control_connected[peer_idx as usize] {
                continue;
            }
            let spec = &self.scenario.population.peers[peer_idx as usize];
            let site_idx = peers.site[peer_idx as usize];
            let site = &peers.mobility[peer_idx as usize].sites[site_idx];
            let querier = Querier {
                guid: spec.guid,
                asn: site.asn,
                area: site.country as u16,
                zone: region as u8,
                nat: spec.nat,
            };
            let token = dls[*id].token;
            let ctx = dls[*id].ctx;
            let (selected, qspan) = self.scenario.plane.query_peers_traced(
                region,
                &querier,
                &token,
                t,
                rng,
                &self.trace,
                ctx,
            );
            if let Ok(contacts) = selected {
                dls[*id].requeries += 1;
                stats.requeries += 1;
                self.trace
                    .add_attr(qspan, "round", dls[*id].requeries as u64);
                let nat = spec.nat;
                let downlink = self.scenario.population.peers[peer_idx as usize].down;
                net.set_trace_scope(ctx, t.as_micros());
                connect_sources(
                    &contacts,
                    nat,
                    peer_idx,
                    &self.scenario,
                    peers,
                    guid_owner,
                    net,
                    &mut dls[*id],
                    stats,
                    hot,
                    &self.trace,
                    t,
                    rng,
                );
                update_edge_ceil(&dls[*id], downlink, net);
                net.clear_trace_scope();
            }
        }
    }
}

/// Pre-resolved instrument handles for the per-contact and per-download
/// hot paths. A name lookup takes a registry lock plus a map probe; these
/// fire up to ~100k times per run, so the handles are resolved once.
struct HotInstruments {
    nat_attempts: Counter,
    nat_blocked: Counter,
    nat_punch_failures: Counter,
    nat_ok: Counter,
    downloads_completed: Counter,
    downloads_abandoned: Counter,
    downloads_failed_system: Counter,
    downloads_failed_env: Counter,
    download_secs: Histogram,
}

impl HotInstruments {
    fn from(metrics: &MetricsRegistry) -> Self {
        HotInstruments {
            nat_attempts: metrics.counter("peer.nat_traversal_attempts"),
            nat_blocked: metrics.counter("peer.nat_traversal_blocked"),
            nat_punch_failures: metrics.counter("peer.nat_punch_failures"),
            nat_ok: metrics.counter("peer.nat_traversal_ok"),
            downloads_completed: metrics.counter("hybrid.downloads_completed"),
            downloads_abandoned: metrics.counter("hybrid.downloads_abandoned"),
            downloads_failed_system: metrics.counter("hybrid.downloads_failed_system"),
            downloads_failed_env: metrics.counter("hybrid.downloads_failed_env"),
            download_secs: metrics.histogram("hybrid.download_secs"),
        }
    }
}

/// The edge download runs over a single HTTP(S) connection; against `k`
/// concurrent peer connections it behaves like one TCP flow among `k+1`
/// sharing the downlink, not like an unbounded backstop that soaks up all
/// slack. This sets the edge flow's rate ceiling accordingly (no ceiling
/// when there are no peer sources).
fn update_edge_ceil(dl: &Dl, downlink: Bandwidth, net: &mut FlowNet) {
    if let Some(f) = dl.edge_flow {
        let k = dl.sources.len();
        let ceil = if k == 0 {
            None
        } else {
            Some(Bandwidth::from_bytes_per_sec(
                downlink.bytes_per_sec() / (k as f64 + 1.0),
            ))
        };
        net.set_flow_ceil(f, ceil);
    }
}

/// Try to connect the selected contacts as swarm sources. Each offered
/// contact gets a `connect_attempt` marker span recording why it did or
/// did not become a source — the per-download story behind the aggregate
/// NAT counters.
#[allow(clippy::too_many_arguments)]
fn connect_sources(
    contacts: &[netsession_core::msg::PeerContact],
    my_nat: netsession_core::msg::NatType,
    downloader: u32,
    scenario: &Scenario,
    peers: &mut PeerTable,
    guid_owner: &FxHashMap<Guid, u32>,
    net: &mut FlowNet,
    dl: &mut Dl,
    stats: &mut RunStats,
    hot: &HotInstruments,
    trace: &TraceSink,
    t: SimTime,
    rng: &mut DetRng,
) {
    let max_conns = scenario.config.transfer.max_download_connections;
    let max_uploads = scenario.config.transfer.max_upload_connections;
    for c in contacts {
        if dl.sources.len() >= max_conns {
            break;
        }
        let attempt = trace.instant(dl.ctx, "connect_attempt", "peer", t.as_micros());
        if attempt.is_some() {
            // The contact is who we dial — the *destination* of the
            // attempt. (`src_guid` on `peer_transfer` below is correct:
            // once connected, that peer is the byte source.)
            trace.add_attr(attempt, "dst_guid", format!("{:016x}", c.guid.0 as u64));
        }
        let Some(&src) = guid_owner.get(&c.guid) else {
            trace.add_attr(attempt, "result", "stale_contact");
            continue;
        };
        if src == downloader {
            trace.add_attr(attempt, "result", "self");
            continue;
        }
        if dl.sources.iter().any(|s| s.peer == src) {
            trace.add_attr(attempt, "result", "duplicate");
            continue;
        }
        if !peers.online[src as usize]
            || !peers.uploads_enabled[src as usize]
            || peers.active_uploads[src as usize] as usize >= max_uploads
        {
            trace.add_attr(attempt, "result", "unavailable");
            continue;
        }
        // Source must still cache the exact version.
        match peers.cached[src as usize].get(&dl.object) {
            Some((v, _)) if *v == dl.version => {}
            _ => {
                trace.add_attr(attempt, "result", "stale_version");
                continue;
            }
        }
        // Traversal.
        hot.nat_attempts.incr();
        let conn = connectivity(my_nat, c.nat);
        trace.add_attr(attempt, "nat", conn.label());
        let p_ok = match conn {
            Connectivity::Direct => P_DIRECT,
            Connectivity::HolePunch => P_PUNCH,
            Connectivity::None => {
                stats.punch_failures += 1;
                hot.nat_blocked.incr();
                trace.add_attr(attempt, "result", "blocked");
                continue;
            }
        };
        if !rng.chance(p_ok) {
            stats.punch_failures += 1;
            hot.nat_punch_failures.incr();
            trace.add_attr(attempt, "result", "punch_failed");
            continue;
        }
        hot.nat_ok.incr();
        trace.add_attr(attempt, "result", "connected");
        let flow = net.add_flow(
            peers.node[src as usize],
            peers.node[downloader as usize],
            None,
        );
        peers.active_uploads[src as usize] += 1;
        let span = trace.span(dl.ctx, "peer_transfer", "peer", t.as_micros());
        if span.is_some() {
            trace.add_attr(span, "src_guid", format!("{:016x}", c.guid.0 as u64));
        }
        dl.sources.push(SourceFlow {
            peer: src,
            flow,
            bytes: 0.0,
            span,
        });
    }
}

/// Advance all active downloads from `from` to `to` at current rates,
/// detecting completion / env-failure / abort crossings with exact
/// interpolated times.
fn advance(
    dls: &mut [Dl],
    active: &[usize],
    net: &FlowNet,
    from: SimTime,
    to: SimTime,
    rate_scratch: &mut Vec<f64>,
) {
    if to <= from {
        return;
    }
    let dt = (to - from).as_secs_f64();
    for id in active {
        let dl = &mut dls[*id];
        if dl.finished.is_some() {
            continue;
        }
        let edge_rate = dl
            .edge_flow
            .map(|f| net.rate(f).bytes_per_sec())
            .unwrap_or(0.0);
        // One pass over the sources collects rates (into a scratch buffer
        // shared across the whole run — no per-download allocation) and the
        // per-source byte sum; the accrual below reuses the cached rates
        // instead of a second round of slab lookups. Each f64 sum keeps its
        // original grouping (rate sum, source-bytes sum, finished-bytes sum
        // computed separately, then added), so results are bit-identical to
        // the naive three-pass version.
        rate_scratch.clear();
        let mut src_rate_sum = 0.0;
        let mut src_bytes = 0.0;
        for s in &dl.sources {
            let r = net.rate(s.flow).bytes_per_sec();
            rate_scratch.push(r);
            src_rate_sum += r;
            src_bytes += s.bytes;
        }
        let total_rate = edge_rate + src_rate_sum;
        let done =
            dl.edge_bytes + src_bytes + dl.finished_sources.iter().map(|(_, b)| b).sum::<f64>();

        // Find the earliest milestone within (from, to].
        let mut milestone_dt = dt;
        let mut outcome: Option<DownloadOutcome> = None;
        if total_rate > 0.0 {
            let dt_complete = (dl.size - done) / total_rate;
            if dt_complete <= milestone_dt {
                milestone_dt = dt_complete.max(0.0);
                outcome = Some(DownloadOutcome::Completed);
            }
            // A failure threshold already crossed in a previous step gives
            // a negative raw dt; clamp to 0 so the failure fires at the
            // step boundary instead of being skipped forever.
            if let Some(fail_bytes) = dl.env_fail_at_bytes {
                let dt_fail = ((fail_bytes - done) / total_rate).max(0.0);
                if dt_fail < milestone_dt {
                    milestone_dt = dt_fail;
                    outcome = Some(DownloadOutcome::Failed {
                        system_related: false,
                    });
                }
            }
            if let Some(fail_bytes) = dl.sys_fail_at_bytes {
                let dt_fail = ((fail_bytes - done) / total_rate).max(0.0);
                if dt_fail < milestone_dt {
                    milestone_dt = dt_fail;
                    outcome = Some(DownloadOutcome::Failed {
                        system_related: true,
                    });
                }
            }
        }
        if let Some(abort_at) = dl.abort_at {
            if abort_at <= to {
                let dt_abort = abort_at.since(from).as_secs_f64();
                if (dt_abort < milestone_dt || outcome.is_none()) && dt_abort <= milestone_dt {
                    milestone_dt = dt_abort;
                    outcome = Some(DownloadOutcome::Abandoned);
                }
            }
        }

        // Accumulate bytes up to the milestone (or the full step).
        let step = milestone_dt.clamp(0.0, dt);
        dl.edge_bytes += edge_rate * step;
        for (s, r) in dl.sources.iter_mut().zip(rate_scratch.iter()) {
            s.bytes += r * step;
        }
        if let Some(outcome) = outcome {
            let at = from + SimDuration::from_secs_f64(step);
            dl.finished = Some((at, outcome));
        }
    }
}

/// Emit records and release resources for downloads that reached a
/// terminal state during the last advance.
#[allow(clippy::too_many_arguments)]
fn process_finished(
    dls: &mut [Dl],
    active: &mut Vec<usize>,
    peers: &mut PeerTable,
    net: &mut FlowNet,
    scenario: &mut Scenario,
    dataset: &mut TraceDataset,
    stats: &mut RunStats,
    hot: &HotInstruments,
    trace: &TraceSink,
    series: &mut ShardSeries,
    _now: SimTime,
) {
    let mut i = 0;
    while i < active.len() {
        let id = active[i];
        let Some((ended, outcome)) = dls[id].finished else {
            i += 1;
            continue;
        };
        active.swap_remove(i);
        let dl = &mut dls[id];
        let spec = &scenario.population.peers[dl.peer as usize];

        // Tear down flows.
        net.set_trace_scope(dl.ctx, ended.as_micros());
        if let Some(f) = dl.edge_flow.take() {
            net.remove_flow(f);
        }
        if dl.edge_span != SpanId::NONE {
            trace.add_attr(dl.edge_span, "bytes", dl.edge_bytes as u64);
            trace.end_span(dl.edge_span, ended.as_micros());
        }
        let sources: Vec<(u32, f64)> = dl
            .sources
            .drain(..)
            .map(|s| {
                net.remove_flow(s.flow);
                peers.active_uploads[s.peer as usize] =
                    peers.active_uploads[s.peer as usize].saturating_sub(1);
                trace.add_attr(s.span, "bytes", s.bytes as u64);
                trace.end_span(s.span, ended.as_micros());
                (s.peer, s.bytes)
            })
            .chain(dl.finished_sources.drain(..))
            .collect();
        net.clear_trace_scope();

        // Transfer records + upload accounting. Every delivered byte counts
        // toward `bytes_peers` — `done_bytes()` counted sub-1-byte source
        // contributions toward completion, so dropping them here would make
        // a completed download's logged total undershoot its size. Only the
        // per-source TransferRecord emission skips the <1-byte dust.
        let mut bytes_peers = 0.0;
        for (src, bytes) in &sources {
            bytes_peers += bytes;
            if *bytes < 1.0 {
                continue;
            }
            let src_spec = &scenario.population.peers[*src as usize];
            dataset.transfers.push(TransferRecord {
                from_guid: src_spec.guid,
                to_guid: spec.guid,
                from_as: src_spec.asn,
                to_as: spec.asn,
                from_country: src_spec.country as u16,
                to_country: spec.country as u16,
                bytes: ByteCount(*bytes as u64),
                object: dl.object,
            });
            let src_region = peers.logged_region[*src as usize];
            scenario
                .plane
                .count_upload(src_region, src_spec.guid, dl.object, dl.cap);
        }
        stats.p2p_bytes += bytes_peers as u64;
        stats.edge_bytes += dl.edge_bytes as u64;
        let (group, ended_us) = (dl.region as usize, ended.as_micros());
        series.add(TS_BYTES_PEERS, group, ended_us, bytes_peers as i64);

        // Edge receipt.
        if dl.edge_bytes >= 1.0 {
            scenario.edges[dl.region as usize].record_served_traced(
                spec.guid,
                dl.version,
                ByteCount(dl.edge_bytes as u64),
                trace,
                dl.ctx,
                ended.as_micros(),
            );
        }

        // Close the root span. The byte attrs use the same `as u64`
        // truncation as the DownloadRecord below, so `trace-explain`'s
        // byte split cross-checks the metrics log exactly.
        let outcome_label = match outcome {
            DownloadOutcome::Completed => "completed",
            DownloadOutcome::Abandoned => "abandoned",
            DownloadOutcome::Failed { system_related } => {
                if system_related {
                    "failed_system"
                } else {
                    "failed_env"
                }
            }
        };
        trace.add_attr(dl.ctx.span, "outcome", outcome_label);
        trace.add_attr(dl.ctx.span, "bytes_edge", dl.edge_bytes as u64);
        trace.add_attr(dl.ctx.span, "bytes_peers", bytes_peers as u64);
        trace.add_attr(dl.ctx.span, "initial_peers", dl.initial_peers as u64);
        trace.add_attr(dl.ctx.span, "requeries", dl.requeries as u64);
        trace.end_span(dl.ctx.span, ended.as_micros());

        // Outcome bookkeeping.
        match outcome {
            DownloadOutcome::Completed => {
                stats.completed += 1;
                hot.downloads_completed.incr();
                series.add(TS_DL_COMPLETED, group, ended_us, 1);
            }
            DownloadOutcome::Abandoned => {
                stats.abandoned += 1;
                hot.downloads_abandoned.incr();
            }
            DownloadOutcome::Failed { system_related } => {
                if system_related {
                    stats.failed_system += 1;
                    hot.downloads_failed_system.incr();
                } else {
                    stats.failed_env += 1;
                    hot.downloads_failed_env.incr();
                }
            }
        }
        hot.download_secs
            .record((ended - dl.started).as_secs_f64() as u64);

        // Cache + registration on completion.
        if outcome == DownloadOutcome::Completed {
            let ttl = SimDuration::from_hours(scenario.config.transfer.cache_ttl_hours as u64);
            let i = dl.peer as usize;
            peers.cached[i].insert(dl.object, (dl.version, ended + ttl));
            // A control-disconnected peer cannot reach the DN to register;
            // its paced readmission re-registers the whole cache (this
            // object included) when it fires.
            if peers.uploads_enabled[i] && dl.p2p && peers.control_connected[i] {
                let site = &peers.mobility[i].sites[peers.site[i]];
                let record = PeerRecord {
                    guid: spec.guid,
                    addr: PeerAddr {
                        ip: site.ip,
                        port: 8443,
                    },
                    asn: site.asn,
                    area: site.country as u16,
                    zone: peers.logged_region[i] as u8,
                    nat: spec.nat,
                };
                scenario
                    .plane
                    .register_content(peers.logged_region[i], record, dl.version);
            }
        }

        // Download record + usage report.
        let record = DownloadRecord {
            guid: spec.guid,
            object: dl.object,
            cp: scenario.catalog.get(dl.object).cp,
            size: ByteCount(dl.size as u64),
            p2p_enabled: dl.p2p,
            started: dl.started,
            ended,
            bytes_infra: ByteCount(dl.edge_bytes as u64),
            bytes_peers: ByteCount(bytes_peers as u64),
            outcome,
            initial_peers: dl.initial_peers,
            asn: spec.asn,
            country: spec.country as u16,
            region: spec.region().index() as u8,
        };
        scenario
            .plane
            .accept_usage(dl.region, vec![record_to_usage(&record)]);
        dataset.downloads.push(record);

        peers.active_download[dl.peer as usize] = None;
    }
}

fn record_to_usage(r: &DownloadRecord) -> netsession_core::msg::UsageRecord {
    netsession_core::msg::UsageRecord {
        guid: r.guid,
        version: VersionId {
            object: r.object,
            version: 1,
        },
        started: r.started,
        ended: r.ended,
        bytes_from_infrastructure: r.bytes_infra,
        bytes_from_peers: r.bytes_peers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsession_logs::records::DownloadOutcome;

    fn run_tiny() -> SimOutput {
        HybridSim::run_config(ScenarioConfig::tiny())
    }

    #[test]
    fn month_produces_a_full_dataset() {
        let out = run_tiny();
        let cfg = ScenarioConfig::tiny();
        assert!(
            out.dataset.downloads.len() as f64 > cfg.workload.downloads as f64 * 0.8,
            "most requests become download records ({} of {})",
            out.dataset.downloads.len(),
            cfg.workload.downloads
        );
        assert!(out.stats.logins > 1000, "logins {}", out.stats.logins);
        assert!(!out.dataset.transfers.is_empty(), "p2p transfers happened");
        assert!(!out.dataset.registrations.is_empty(), "DN log populated");
        assert!(out.dataset.geodb.distinct_ips() > 500);
    }

    #[test]
    fn most_downloads_complete_and_outcomes_are_shaped_like_the_paper() {
        let out = run_tiny();
        let total = out.dataset.downloads.len() as f64;
        let completed = out.stats.completed as f64;
        assert!(
            completed / total > 0.85,
            "completion rate {} too low",
            completed / total
        );
        // Abandonment dominates failures (§5.2).
        assert!(out.stats.abandoned > out.stats.failed_system + out.stats.failed_env);
    }

    #[test]
    fn p2p_enabled_downloads_source_bytes_from_peers() {
        let out = run_tiny();
        let p2p_bytes: u64 = out
            .dataset
            .downloads
            .iter()
            .filter(|d| d.p2p_enabled)
            .map(|d| d.bytes_peers.bytes())
            .sum();
        assert!(p2p_bytes > 0, "peer-assist must actually deliver bytes");
        // Infra-only downloads never have peer bytes.
        for d in out.dataset.downloads.iter().filter(|d| !d.p2p_enabled) {
            assert_eq!(d.bytes_peers, ByteCount::ZERO);
        }
    }

    #[test]
    fn completed_downloads_received_their_size() {
        let out = run_tiny();
        for d in out
            .dataset
            .downloads
            .iter()
            .filter(|d| d.outcome == DownloadOutcome::Completed)
            .take(500)
        {
            let got = d.total_bytes().bytes() as f64;
            let want = d.size.bytes() as f64;
            assert!(
                (got - want).abs() / want.max(1.0) < 0.01,
                "completed download got {got} of {want}"
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_tiny();
        let b = run_tiny();
        assert_eq!(a.dataset.downloads.len(), b.dataset.downloads.len());
        assert_eq!(a.stats.completed, b.stats.completed);
        assert_eq!(a.stats.p2p_bytes, b.stats.p2p_bytes);
        for (x, y) in a
            .dataset
            .downloads
            .iter()
            .zip(&b.dataset.downloads)
            .take(200)
        {
            assert_eq!(x.guid, y.guid);
            assert_eq!(x.ended, y.ended);
            assert_eq!(x.bytes_peers, y.bytes_peers);
        }
    }

    #[test]
    fn crossed_failure_threshold_fires_at_step_boundary() {
        // Regression: a failure whose byte threshold was already crossed in
        // a previous advance step used to compute a negative dt and never
        // fire, letting the download survive forever.
        let mut net = FlowNet::new();
        let src = net.add_node(Bandwidth::from_mbps(8.0), Bandwidth::from_mbps(8.0));
        let dst = net.add_node(Bandwidth::from_mbps(8.0), Bandwidth::from_mbps(8.0));
        let flow = net.add_flow(src, dst, None);
        net.recompute();
        assert!(net.rate(flow).bytes_per_sec() > 0.0);
        let version = VersionId {
            object: ObjectId::from_raw(1),
            version: 1,
        };
        let mut dls = vec![Dl {
            peer: 0,
            object: ObjectId::from_raw(1),
            version,
            size: 1e9,
            p2p: false,
            cap: None,
            started: SimTime::ZERO,
            token: AuthToken {
                guid: Guid::from_raw(1),
                version,
                expires: SimTime(u64::MAX),
                mac: netsession_core::hash::Digest::zero(),
            },
            edge_flow: Some(flow),
            edge_bytes: 500_000.0, // already past the threshold below
            sources: Vec::new(),
            finished_sources: Vec::new(),
            initial_peers: 0,
            abort_at: None,
            env_fail_at_bytes: Some(400_000.0),
            sys_fail_at_bytes: None,
            requeries: 0,
            region: 0,
            finished: None,
            ctx: TraceCtx::NONE,
            edge_span: SpanId::NONE,
        }];
        let active = vec![0usize];
        let from = SimTime::ZERO + SimDuration::from_secs(40);
        let to = from + SimDuration::from_secs(20);
        advance(&mut dls, &active, &net, from, to, &mut Vec::new());
        let (at, outcome) = dls[0].finished.expect("crossed threshold must fire");
        assert_eq!(
            outcome,
            DownloadOutcome::Failed {
                system_related: false
            }
        );
        assert_eq!(at, from, "fires at the step boundary, accruing no bytes");
        assert!((dls[0].done_bytes() - 500_000.0).abs() < 1e-6);
    }

    #[test]
    fn pure_p2p_ablation_hurts_completion() {
        let mut cfg = ScenarioConfig::tiny();
        cfg.edge_backstop = false;
        let no_backstop = HybridSim::run_config(cfg);
        let with_backstop = run_tiny();
        let rate =
            |o: &SimOutput| o.stats.completed as f64 / (o.dataset.downloads.len().max(1)) as f64;
        assert!(
            rate(&no_backstop) < rate(&with_backstop),
            "backstop must improve completion ({} vs {})",
            rate(&no_backstop),
            rate(&with_backstop)
        );
    }
}
