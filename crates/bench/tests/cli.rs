//! Every bench binary answers a usage error — `--help`, an unknown flag, a
//! flag missing its value, a value that does not parse — with its usage
//! text on stderr and exit code 2, before doing any work.

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
