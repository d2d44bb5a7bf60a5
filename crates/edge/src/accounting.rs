//! Accounting cross-checks.
//!
//! "NetSession also uses information from the trusted edge servers to
//! prevent accounting attacks, where compromised or faulty peers
//! incorrectly report downloads and uploads" (§3.5, citing Aditya et al.,
//! NSDI 2012). The ledger collects the trusted edge receipts and reconciles
//! them against peer-submitted [`UsageRecord`]s:
//!
//! * a peer claiming more infrastructure bytes than the edges actually
//!   served it is **inflating** (billing fraud against the provider);
//! * a completed download whose claimed bytes (infra + peers) fall short of
//!   the object size is **deflating** (hiding service that was rendered);
//! * claims against objects the edges never authorized for that GUID are
//!   **phantom** downloads.
//!
//! Flagged records are excluded from billing, exactly as §3.5 describes
//! ("to detect such attacks and to filter out incorrect reports").

use netsession_core::id::{Guid, VersionId};
use netsession_core::msg::UsageRecord;
use netsession_core::units::ByteCount;
use std::collections::HashMap;
use std::sync::Mutex;

/// Reconciliation tolerance: protocol overhead and in-flight rounding allow
/// a small relative slack before a record is flagged.
pub const SLACK: f64 = 0.02;

/// Why a usage record was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum Discrepancy {
    /// Claimed more infrastructure bytes than the edge receipts show.
    InflatedInfrastructure {
        /// The offending record's peer.
        guid: Guid,
        /// Claimed bytes.
        claimed: ByteCount,
        /// Receipt total.
        receipted: ByteCount,
    },
    /// Completed download claims fewer total bytes than the object holds.
    DeflatedTotal {
        /// The offending record's peer.
        guid: Guid,
        /// Claimed total bytes.
        claimed: ByteCount,
        /// Object size.
        expected: ByteCount,
    },
    /// No authorization/receipt trail exists at all for this download.
    Phantom {
        /// The offending record's peer.
        guid: Guid,
        /// The claimed version.
        version: VersionId,
    },
}

/// The trusted ledger: edge receipts per (GUID, version).
#[derive(Default)]
pub struct AccountingLedger {
    receipts: Mutex<HashMap<(Guid, VersionId), ByteCount>>,
    authorized: Mutex<std::collections::HashSet<(Guid, VersionId)>>,
}

impl AccountingLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that an edge authorized `guid` for `version` (every download
    /// begins with an authorization, §3.5).
    pub fn record_authorization(&self, guid: Guid, version: VersionId) {
        self.authorized.lock().unwrap().insert((guid, version));
    }

    /// Record bytes an edge actually served.
    pub fn record_edge_receipt(&self, guid: Guid, version: VersionId, bytes: ByteCount) {
        *self
            .receipts
            .lock()
            .unwrap()
            .entry((guid, version))
            .or_insert(ByteCount::ZERO) += bytes;
        // Serving implies authorization.
        self.authorized.lock().unwrap().insert((guid, version));
    }

    /// Receipted bytes for a (GUID, version).
    pub fn receipted(&self, guid: Guid, version: VersionId) -> ByteCount {
        self.receipts
            .lock()
            .unwrap()
            .get(&(guid, version))
            .copied()
            .unwrap_or(ByteCount::ZERO)
    }

    /// Reconcile a batch of peer reports against the receipts. `sizes`
    /// gives the object size per version for completed downloads (pass the
    /// size only for records the caller knows completed). Returns the
    /// records that survive, plus the discrepancies for those that do not.
    pub fn reconcile(
        &self,
        reports: &[UsageRecord],
        completed_size: impl Fn(&UsageRecord) -> Option<ByteCount>,
    ) -> (Vec<UsageRecord>, Vec<Discrepancy>) {
        let mut accepted = Vec::with_capacity(reports.len());
        let mut flagged = Vec::new();
        for r in reports {
            let key = (r.guid, r.version);
            if !self.authorized.lock().unwrap().contains(&key) {
                flagged.push(Discrepancy::Phantom {
                    guid: r.guid,
                    version: r.version,
                });
                continue;
            }
            let receipted = self.receipted(r.guid, r.version);
            let slack_bytes =
                ByteCount::from_bytes((receipted.bytes() as f64 * SLACK) as u64 + 4096);
            if r.bytes_from_infrastructure.bytes() > (receipted + slack_bytes).bytes() {
                flagged.push(Discrepancy::InflatedInfrastructure {
                    guid: r.guid,
                    claimed: r.bytes_from_infrastructure,
                    receipted,
                });
                continue;
            }
            if let Some(size) = completed_size(r) {
                let claimed = r.bytes_from_infrastructure + r.bytes_from_peers;
                let floor = ByteCount::from_bytes((size.bytes() as f64 * (1.0 - SLACK)) as u64);
                if claimed.bytes() < floor.bytes() {
                    flagged.push(Discrepancy::DeflatedTotal {
                        guid: r.guid,
                        claimed,
                        expected: size,
                    });
                    continue;
                }
            }
            accepted.push(r.clone());
        }
        (accepted, flagged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsession_core::id::ObjectId;
    use netsession_core::time::SimTime;

    fn ver() -> VersionId {
        VersionId {
            object: ObjectId(1),
            version: 1,
        }
    }

    fn report(guid: Guid, infra: u64, peers: u64) -> UsageRecord {
        UsageRecord {
            guid,
            version: ver(),
            started: SimTime(0),
            ended: SimTime(100),
            bytes_from_infrastructure: ByteCount(infra),
            bytes_from_peers: ByteCount(peers),
        }
    }

    #[test]
    fn honest_report_accepted() {
        let ledger = AccountingLedger::new();
        ledger.record_edge_receipt(Guid(1), ver(), ByteCount(300_000));
        let size = ByteCount(1_000_000);
        let (ok, bad) = ledger.reconcile(&[report(Guid(1), 300_000, 700_000)], |_| Some(size));
        assert_eq!(ok.len(), 1);
        assert!(bad.is_empty());
    }

    #[test]
    fn inflated_infrastructure_claim_flagged() {
        let ledger = AccountingLedger::new();
        ledger.record_edge_receipt(Guid(1), ver(), ByteCount(100_000));
        let (ok, bad) = ledger.reconcile(&[report(Guid(1), 900_000, 100_000)], |_| None);
        assert!(ok.is_empty());
        assert!(matches!(
            bad[0],
            Discrepancy::InflatedInfrastructure { claimed, .. } if claimed == ByteCount(900_000)
        ));
    }

    #[test]
    fn deflated_completed_download_flagged() {
        let ledger = AccountingLedger::new();
        ledger.record_edge_receipt(Guid(1), ver(), ByteCount(100_000));
        let size = ByteCount(1_000_000);
        let (ok, bad) = ledger.reconcile(&[report(Guid(1), 100_000, 200_000)], |_| Some(size));
        assert!(ok.is_empty());
        assert!(matches!(bad[0], Discrepancy::DeflatedTotal { .. }));
    }

    #[test]
    fn phantom_download_flagged() {
        let ledger = AccountingLedger::new();
        let (ok, bad) = ledger.reconcile(&[report(Guid(2), 10, 0)], |_| None);
        assert!(ok.is_empty());
        assert!(matches!(bad[0], Discrepancy::Phantom { guid, .. } if guid == Guid(2)));
    }

    #[test]
    fn authorization_without_bytes_is_enough_for_p2p_only_tail() {
        // A download that got everything from peers (infra connection idle)
        // must still reconcile if the edge authorized it.
        let ledger = AccountingLedger::new();
        ledger.record_authorization(Guid(3), ver());
        let size = ByteCount(500_000);
        let (ok, bad) = ledger.reconcile(&[report(Guid(3), 0, 500_000)], |_| Some(size));
        assert_eq!(ok.len(), 1, "{bad:?}");
    }

    #[test]
    fn slack_tolerates_rounding() {
        let ledger = AccountingLedger::new();
        ledger.record_edge_receipt(Guid(1), ver(), ByteCount(100_000));
        // 1% over the receipts: inside the slack.
        let (ok, bad) = ledger.reconcile(&[report(Guid(1), 101_000, 0)], |_| None);
        assert_eq!(ok.len(), 1, "{bad:?}");
    }

    #[test]
    fn receipts_accumulate() {
        let ledger = AccountingLedger::new();
        ledger.record_edge_receipt(Guid(1), ver(), ByteCount(100));
        ledger.record_edge_receipt(Guid(1), ver(), ByteCount(200));
        assert_eq!(ledger.receipted(Guid(1), ver()), ByteCount(300));
        assert_eq!(ledger.receipted(Guid(2), ver()), ByteCount::ZERO);
    }
}
