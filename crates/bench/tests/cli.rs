//! Every bench binary answers a usage error — `--help`, an unknown flag, a
//! flag missing its value, a value that does not parse — with its usage
//! text on stderr and exit code 2, before doing any work. `tsreport` also
//! answers unreadable input that way, with a one-line error.

use netsession_bench::runner::timeseries_sidecar_json;
use netsession_obs::timeseries::{merge_shards, SeriesSpec, ShardSeries};
use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{bin} {args:?}: stderr {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: stderr {stderr}");
}

#[test]
fn repro_rejects_bad_arguments_with_usage() {
    let repro = env!("CARGO_BIN_EXE_repro");
    assert_usage_error(repro, &["--help"]);
    assert_usage_error(repro, &["--bogus", "1"]);
    assert_usage_error(repro, &["headline", "--scale"]);
    assert_usage_error(repro, &["--scale", "many"]);
    assert_usage_error(repro, &["--scale", "0"]);
    assert_usage_error(repro, &["no_such_view"]);
}

#[test]
fn tools_reject_bad_arguments_with_usage() {
    for bin in [
        env!("CARGO_BIN_EXE_scale"),
        env!("CARGO_BIN_EXE_perfbench"),
        env!("CARGO_BIN_EXE_tsreport"),
        env!("CARGO_BIN_EXE_trace_explain"),
        env!("CARGO_BIN_EXE_flownet_scale"),
    ] {
        assert_usage_error(bin, &["--help"]);
        assert_usage_error(bin, &["--bogus"]);
    }
    assert_usage_error(env!("CARGO_BIN_EXE_scale"), &["--shards"]);
    assert_usage_error(env!("CARGO_BIN_EXE_scale"), &["--peers", "-5"]);
    assert_usage_error(env!("CARGO_BIN_EXE_tsreport"), &["--top"]);
    assert_usage_error(env!("CARGO_BIN_EXE_trace_explain"), &["--download", "3"]);
}

/// Write `text` to a scratch file and run `tsreport` on it.
fn tsreport_on(case: &str, text: &str) -> (Option<i32>, String) {
    let path = std::env::temp_dir().join(format!("tsreport-{}-{case}.json", std::process::id()));
    std::fs::write(&path, text).expect("write scratch sidecar");
    let out = run(
        env!("CARGO_BIN_EXE_tsreport"),
        &[path.to_str().expect("utf-8 temp path")],
    );
    std::fs::remove_file(&path).expect("remove scratch sidecar");
    out
}

/// A genuine one-window, one-region sidecar over `catalog`, written by the
/// shared sidecar writer.
fn sidecar(catalog: &'static [SeriesSpec]) -> String {
    let mut s = ShardSeries::new(catalog, 1, 3_600_000_000);
    s.add(0, 0, 0, 1);
    timeseries_sidecar_json(&merge_shards(&[s], &["a".to_string()]), &[], &[])
}

const CATALOG: &[SeriesSpec] = &[
    SeriesSpec::counter("scaled.downloads_started"),
    SeriesSpec::counter("scaled.downloads_completed"),
    SeriesSpec::counter("scaled.bytes_peers"),
    SeriesSpec::level("scaled.active_peers"),
];

/// Bad input exits 2 with one line on stderr naming the file and `why`.
fn assert_input_error(case: &str, text: &str, why: &str) {
    let (code, stderr) = tsreport_on(case, text);
    assert_eq!(code, Some(2), "{case}: stderr {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{case}: stderr {stderr}");
    assert!(stderr.starts_with("tsreport: "), "{case}: stderr {stderr}");
    assert!(stderr.contains(why), "{case}: stderr {stderr}");
}

#[test]
fn tsreport_rejects_truncated_json() {
    let good = sidecar(CATALOG);
    assert_eq!(tsreport_on("good", &good).0, Some(0));
    assert_input_error("truncated", &good[..good.len() / 2], "at byte");
}

#[test]
fn tsreport_rejects_a_foreign_schema_tag() {
    let other = sidecar(CATALOG).replace("netsession-timeseries/1", "netsession-shard-profile/1");
    assert_input_error("schema", &other, "schema");
}

#[test]
fn tsreport_rejects_a_catalog_without_active_peers() {
    const NO_ACTIVE: &[SeriesSpec] = &[
        SeriesSpec::counter("scaled.downloads_started"),
        SeriesSpec::counter("scaled.downloads_completed"),
        SeriesSpec::counter("scaled.bytes_peers"),
    ];
    assert_input_error("catalog", &sidecar(NO_ACTIVE), "scaled.active_peers");
}
