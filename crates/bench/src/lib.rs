//! # netsession-bench
//!
//! The experiment harness. The `repro` binary renders every table and
//! figure of the paper, the ablations and the chaos campaign from as few
//! simulated months as possible (see DESIGN.md's per-experiment index);
//! [`reports`] holds its pure renderers and [`runner`] the shared
//! command-line parser, standard scenario and sidecar writers. The other
//! binaries are the sharded `scale` runner, `perfbench`, `tsreport`,
//! `trace_explain` and `flownet_scale`; Criterion micro-benchmarks live in
//! `benches/`.

pub mod explain;
pub mod profile_lint;
pub mod reports;
pub mod runner;
pub mod trend;
pub mod ts_lint;
