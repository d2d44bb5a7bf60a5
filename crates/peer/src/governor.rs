//! Upload governance.
//!
//! §3.4: "only a globally configurable limit on the total number of upload
//! connections a peer allows". §3.9: "Uploads are rate-limited, and peers
//! upload each object at most a limited number of times. Finally, peers
//! monitor the utilization of the local network connections and throttle or
//! pause uploads when the connections are used by other applications."

use netsession_core::error::{Error, Result};
use netsession_core::id::{Guid, ObjectId};
use netsession_core::policy::TransferConfig;
use netsession_core::units::Bandwidth;
use std::collections::{HashMap, HashSet};

/// The client-side upload governor.
#[derive(Clone, Debug)]
pub struct UploadGovernor {
    /// Active configuration (pushed by the control plane, §3.4).
    pub config: TransferConfig,
    /// Whether uploads are enabled at all (mirrors the user's setting).
    uploads_enabled: bool,
    /// Whether the user's own traffic is currently using the link.
    link_busy: bool,
    active: HashSet<(Guid, ObjectId)>,
    completed_uploads: HashMap<ObjectId, u32>,
}

impl UploadGovernor {
    /// Fresh governor.
    pub fn new(config: TransferConfig, uploads_enabled: bool) -> Self {
        UploadGovernor {
            config,
            uploads_enabled,
            link_busy: false,
            active: HashSet::new(),
            completed_uploads: HashMap::new(),
        }
    }

    /// Mirror a change of the user's upload setting.
    pub fn set_uploads_enabled(&mut self, enabled: bool) {
        self.uploads_enabled = enabled;
        if !enabled {
            self.active.clear();
        }
    }

    /// The user's applications started/stopped using the link (§3.9
    /// back-off).
    pub fn set_link_busy(&mut self, busy: bool) {
        self.link_busy = busy;
    }

    /// Whether the link is currently busy with user traffic.
    pub fn link_busy(&self) -> bool {
        self.link_busy
    }

    /// Ask to start uploading `object` to `to`. Enforces the enable switch,
    /// the global connection limit, and the per-object upload cap.
    pub fn try_start(
        &mut self,
        to: Guid,
        object: ObjectId,
        per_object_cap: Option<u32>,
    ) -> Result<()> {
        if !self.uploads_enabled {
            return Err(Error::PolicyDenied("uploads disabled by user".into()));
        }
        if self.active.len() >= self.config.max_upload_connections {
            return Err(Error::LimitExceeded(format!(
                "at the global limit of {} upload connections",
                self.config.max_upload_connections
            )));
        }
        if let Some(cap) = per_object_cap {
            if self.completed_uploads.get(&object).copied().unwrap_or(0) >= cap {
                return Err(Error::LimitExceeded(format!(
                    "object {object} already uploaded {cap} times"
                )));
            }
        }
        if !self.active.insert((to, object)) {
            return Err(Error::InvalidState(format!(
                "already uploading {object} to {to}"
            )));
        }
        Ok(())
    }

    /// An upload connection closed. `completed` uploads count against the
    /// per-object cap; aborted ones do not. A finish with no matching
    /// start is ignored (defensive: double-finish must not inflate the
    /// completion counter).
    pub fn finish(&mut self, to: Guid, object: ObjectId, completed: bool) {
        let was_active = self.active.remove(&(to, object));
        if completed && was_active {
            *self.completed_uploads.entry(object).or_insert(0) += 1;
        }
    }

    /// Number of active upload connections.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Completed uploads of an object so far.
    pub fn uploads_of(&self, object: ObjectId) -> u32 {
        self.completed_uploads.get(&object).copied().unwrap_or(0)
    }

    /// The current aggregate upload rate cap for a peer with `upstream`
    /// capacity: the configured fraction, squeezed further when the link is
    /// busy (§3.9: "throttle or pause uploads").
    pub fn rate_cap(&self, upstream: Bandwidth) -> Bandwidth {
        if !self.uploads_enabled {
            return Bandwidth::ZERO;
        }
        self.config.upload_cap(upstream, self.link_busy)
    }

    /// The per-connection ceiling: the aggregate cap divided across active
    /// connections (equal split; max-min refinement happens in the network).
    pub fn per_connection_cap(&self, upstream: Bandwidth) -> Bandwidth {
        let n = self.active.len().max(1);
        Bandwidth::from_bytes_per_sec(self.rate_cap(upstream).bytes_per_sec() / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor(max_conns: usize) -> UploadGovernor {
        UploadGovernor::new(
            TransferConfig {
                max_upload_connections: max_conns,
                ..TransferConfig::default()
            },
            true,
        )
    }

    #[test]
    fn global_connection_limit_enforced() {
        let mut g = governor(2);
        g.try_start(Guid(1), ObjectId(1), None).unwrap();
        g.try_start(Guid(2), ObjectId(1), None).unwrap();
        assert!(matches!(
            g.try_start(Guid(3), ObjectId(1), None),
            Err(Error::LimitExceeded(_))
        ));
        g.finish(Guid(1), ObjectId(1), true);
        g.try_start(Guid(3), ObjectId(1), None).unwrap();
        assert_eq!(g.active_count(), 2);
    }

    #[test]
    fn per_object_cap_counts_only_completed() {
        let mut g = governor(10);
        for i in 0..3 {
            g.try_start(Guid(i), ObjectId(1), Some(2)).unwrap();
            g.finish(Guid(i), ObjectId(1), i != 0); // first one aborted
        }
        assert_eq!(g.uploads_of(ObjectId(1)), 2);
        assert!(matches!(
            g.try_start(Guid(9), ObjectId(1), Some(2)),
            Err(Error::LimitExceeded(_))
        ));
        // A different object is unaffected.
        g.try_start(Guid(9), ObjectId(2), Some(2)).unwrap();
    }

    #[test]
    fn disabled_uploads_refuse_and_clear() {
        let mut g = governor(10);
        g.try_start(Guid(1), ObjectId(1), None).unwrap();
        g.set_uploads_enabled(false);
        assert_eq!(g.active_count(), 0, "active uploads dropped");
        assert!(matches!(
            g.try_start(Guid(2), ObjectId(1), None),
            Err(Error::PolicyDenied(_))
        ));
        assert_eq!(g.rate_cap(Bandwidth::from_mbps(10.0)), Bandwidth::ZERO);
    }

    #[test]
    fn duplicate_connection_rejected() {
        let mut g = governor(10);
        g.try_start(Guid(1), ObjectId(1), None).unwrap();
        assert!(matches!(
            g.try_start(Guid(1), ObjectId(1), None),
            Err(Error::InvalidState(_))
        ));
    }

    #[test]
    fn busy_link_throttles_rate() {
        let mut g = governor(10);
        let up = Bandwidth::from_mbps(1.0);
        let idle = g.rate_cap(up);
        g.set_link_busy(true);
        let busy = g.rate_cap(up);
        assert!(busy.as_mbps() < idle.as_mbps() / 2.0);
    }

    #[test]
    fn per_connection_cap_splits_aggregate() {
        let mut g = governor(10);
        let up = Bandwidth::from_mbps(8.0);
        let solo = g.per_connection_cap(up);
        g.try_start(Guid(1), ObjectId(1), None).unwrap();
        g.try_start(Guid(2), ObjectId(2), None).unwrap();
        let split = g.per_connection_cap(up);
        assert!((solo.as_mbps() / split.as_mbps() - 2.0).abs() < 1e-9);
    }
}
