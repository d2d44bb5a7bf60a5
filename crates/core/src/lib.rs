//! # netsession-core
//!
//! Core vocabulary types for the NetSession peer-assisted CDN reproduction
//! (Zhao et al., *Peer-Assisted Content Distribution in Akamai NetSession*,
//! IMC 2013).
//!
//! This crate is dependency-light and shared by every other crate in the
//! workspace. It provides:
//!
//! * identifiers ([`Guid`], [`SecondaryGuid`], [`ObjectId`], [`CpCode`],
//!   [`AsNumber`], …) — §3.4 of the paper,
//! * an in-repo SHA-256 implementation ([`hash`]) used for content-integrity
//!   piece hashes (§3.5) and the log pipeline's stream digests,
//! * piece bookkeeping ([`piece::PieceMap`], [`piece::Manifest`]) for the
//!   BitTorrent-like swarming protocol — §3.4,
//! * a compact, hand-rolled binary wire codec ([`codec`]) and the NetSession
//!   control/swarm protocol messages ([`msg`]) — §3.4–3.6,
//! * provider policies and per-download configuration ([`policy`]) — §3.5,
//! * simulated time ([`time::SimTime`]) and traffic units ([`units`]),
//! * great-circle distance ([`geo::haversine_km`]) for the §6.2 mobility
//!   analysis,
//! * a deterministic, splittable PRNG ([`rng::DetRng`]) so that every
//!   experiment in the workspace is exactly reproducible from a seed.

pub mod codec;
pub mod error;
pub mod fxhash;
pub mod geo;
pub mod hash;
pub mod id;
pub mod msg;
pub mod piece;
pub mod policy;
pub mod rng;
pub mod time;
pub mod units;

pub use error::{Error, Result};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hash::Digest;
pub use id::{AsNumber, ConnectionId, CpCode, Guid, ObjectId, PeerIndex, SecondaryGuid, VersionId};
pub use piece::{Manifest, PieceIndex, PieceMap};
pub use policy::{DownloadPolicy, TransferConfig};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, ByteCount};
