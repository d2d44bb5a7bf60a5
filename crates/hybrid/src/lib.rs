//! # netsession-hybrid
//!
//! The assembled hybrid CDN: this crate wires the synthetic world
//! (`netsession-world`), the edge tier (`netsession-edge`), the control
//! plane (`netsession-control`), and the fluid network substrate
//! (`netsession-sim`) into one deterministic month-long simulation that
//! produces production-style logs (`netsession-logs`).
//!
//! * [`config::ScenarioConfig`] — one struct fully describing a run,
//!   including every ablation switch from DESIGN.md (locality off, edge
//!   backstop off, upload caps off, enable-fraction sweeps, session-mode
//!   clients).
//! * [`setup::Scenario`] — the deterministic assembly step.
//! * [`sim::HybridSim`] — the event loop: logins on diurnal schedules,
//!   request arrivals, control-plane peer selection, NAT-filtered
//!   connection establishment, max-min fair fluid transfers, user
//!   abandonment, caching and DN registration, usage reporting.
//! * [`identity::IdentityState`] — live secondary-GUID chains with
//!   rollback / backup-restore / re-imaging anomalies (§6.2).
//!
//! ```no_run
//! use netsession_hybrid::{HybridSim, ScenarioConfig};
//! let out = HybridSim::run_config(ScenarioConfig::default());
//! println!("{} downloads logged", out.dataset.downloads.len());
//! ```

pub mod alerts;
pub mod config;
pub mod identity;
pub mod scaled;
pub mod setup;
pub mod sim;

pub use config::{FaultEvent, FaultKind, FaultSchedule, ScenarioConfig};
pub use scaled::{
    run_scaled, run_scaled_profiled, RegionReport, ScaledAlert, ScaledConfig, ScaledOutput,
    MAX_SHARDS, TS_INTERVAL_US, TS_METRICS,
};
pub use setup::Scenario;
pub use sim::{HybridSim, RunStats, SimOutput, FLOW_TS_INTERVAL_US, FLOW_TS_METRICS};
