//! # netsession-analytics
//!
//! The measurement-study toolbox: every analysis in §4–§6 of the paper,
//! implemented over the [`TraceDataset`](netsession_logs::TraceDataset) the
//! simulation (or, in principle, a real deployment) produces.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`stats`] | CDF / percentile machinery used by every figure |
//! | [`overview`] | Table 1, §5.1 headline numbers (peer efficiency, 1.7 %/57.4 % split) |
//! | [`regions`] | Table 2, Fig 2 (peer bubble data), Fig 8 (per-country byte shares) |
//! | [`settings`] | Table 3 (upload-setting changes) |
//! | [`sizes`] | Fig 3a (request-size CDFs), Fig 3b (popularity), Fig 3c (diurnal) |
//! | [`speeds`] | Fig 4 (edge-only vs ≥50 % p2p speed CDFs in the two largest ASes) |
//! | [`efficiency`] | Fig 5 (copies vs efficiency), Fig 6 (initial peers vs efficiency) |
//! | [`outcomes`] | Fig 7 (pause rate by size), §5.2 completion/failure split |
//! | [`astraffic`] | Fig 9a–c, Fig 10, Fig 11, §6.1 intra-AS and direct-link shares |
//! | [`mobility`] | §6.2 AS-count mix, distance mix, connection rate |
//! | [`guidgraph`] | Fig 12 secondary-GUID chain patterns |
//! | [`timeseries`] | diurnal folds, peaks/troughs, anomaly ranking over windowed telemetry |

pub mod astraffic;
pub mod efficiency;
pub mod guidgraph;
pub mod mobility;
pub mod outcomes;
pub mod overview;
pub mod regions;
pub mod settings;
pub mod sizes;
pub mod speeds;
pub mod stats;
pub mod timeseries;

pub use stats::Cdf;
