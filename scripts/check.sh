#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full test suite.
# Run from the repo root: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== cargo test --workspace"
cargo test -q --workspace

echo "== results golden (default repro == committed results/*.txt, chaos series and traces)"
# The default repro run simulates the standard month and the chaos
# campaign and renders every default view; each report it writes must be
# byte-identical to the committed one, and so must the chaos month's
# time-series sidecar and the two months' trace exports. Runs in $tmp so
# the committed results/ are only read.
cargo build -q --release -p netsession-bench --bin repro
repro_bin="$PWD/target/release/repro"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/golden"
(cd "$tmp/golden" && "$repro_bin" 2>/dev/null)
for f in "$tmp"/golden/results/*.txt "$tmp"/golden/results/*.trace.json \
         "$tmp/golden/results/chaos.timeseries.json"; do
    cmp "$f" "results/$(basename "$f")"
done

echo "== repro determinism (same seed => byte-identical reports, traces and chaos series)"
# Two reduced-scale runs of the headline and the chaos campaign: reports,
# both months' trace exports and the chaos time-series sidecar must match
# byte-for-byte (the metrics sidecars carry wall-clock timings).
for run in 1 2; do
    mkdir "$tmp/det$run"
    (cd "$tmp/det$run" && "$repro_bin" --scale 2000 --downloads 3000 headline chaos 2>/dev/null)
done
for f in headline.txt chaos.txt alerts.txt chaos.timeseries.json \
         month.2000x3000.s20121001.trace.json chaos.2000x3000.s20121001.trace.json; do
    cmp "$tmp/det1/results/$f" "$tmp/det2/results/$f"
done

echo "== alert coverage (every hybrid.fault.* counter ruled or allowlisted)"
counters="$(grep -rhoE 'hybrid\.fault\.[a-z_]+' crates/hybrid/src --include='*.rs' --exclude=alerts.rs | sort -u)"
missing=""
for c in $counters; do
    grep -qF "\"$c\"" crates/hybrid/src/alerts.rs || missing="$missing $c"
done
if [ -n "$missing" ]; then
    echo "hybrid.fault.* counters with no alert rule or ALLOWLIST entry in crates/hybrid/src/alerts.rs:$missing" >&2
    exit 1
fi

echo "== doc citations resolve (backticked paths and crate::module names in the docs exist)"
# A backticked repo path (has a '/', ends in a source/artifact extension)
# must exist from the repo root or from crates/; a backticked
# `[netsession-|netsession_]<crate>::<name>` must name a module file or
# directory of that crate, or a word on a non-comment line of its lib.rs.
docs=(README.md DESIGN.md EXPERIMENTS.md docs/*.md)
unresolved=""
npaths=0
while IFS=: read -r file line cite; do
    path="${cite//\`/}"
    npaths=$((npaths + 1))
    [ -e "$path" ] || [ -e "crates/$path" ] || unresolved="$unresolved $file:$line:$path"
done < <(grep -noE '`[A-Za-z0-9_./-]*/[A-Za-z0-9_./-]*\.(rs|json|txt|md|sh|py|toml)`' "${docs[@]}")
nmods=0
while IFS=: read -r file line cite; do
    cite="${cite#\`}"
    crate="${cite%%::*}"
    crate="${crate#netsession[-_]}"
    name="${cite#*::}"
    lib="crates/$crate/src/lib.rs"
    [ -e "$lib" ] || continue
    nmods=$((nmods + 1))
    [ -e "crates/$crate/src/$name.rs" ] || [ -d "crates/$crate/src/$name" ] ||
        grep -v '^[[:space:]]*//' "$lib" | grep -qw "$name" ||
        unresolved="$unresolved $file:$line:$cite"
done < <(grep -noE '`(netsession[-_])?[a-z]+::[A-Za-z_][A-Za-z0-9_]*' "${docs[@]}")
if [ -n "$unresolved" ]; then
    echo "doc citations that name no file or module:" >&2
    printf '  %s\n' $unresolved >&2
    exit 1
fi
echo "$npaths paths and $nmods module citations resolve"

echo "== shard determinism (2-shard parallel == sequential oracle, smoke scale)"
# The sharded million-peer runner must be an optimization, not an
# approximation: stdout (merged report, per-region SHA-256 stream digests,
# alerts, tallies, and the shard profiler's load-imbalance report) is
# compared byte-for-byte between the threaded run and the one-thread
# oracle, and across repeat runs. Runs in $tmp so the smoke-scale sidecars
# never clobber the committed full-scale results/scale.* artifacts.
cargo build -q --release -p netsession-bench --bin scale
scale_bin="$PWD/target/release/scale"
(cd "$tmp" && "$scale_bin" --smoke --sequential --profile-det-out det_seq.json >scale_seq.txt 2>/dev/null)
(cd "$tmp" && "$scale_bin" --smoke --parallel --profile-det-out det_par1.json >scale_par1.txt 2>/dev/null)
(cd "$tmp" && "$scale_bin" --smoke --parallel --profile-det-out det_par2.json >scale_par2.txt 2>/dev/null)
cmp "$tmp/scale_seq.txt" "$tmp/scale_par1.txt"
cmp "$tmp/scale_par1.txt" "$tmp/scale_par2.txt"

echo "== shard-profile determinism (deterministic telemetry stream byte-diffed)"
# The profiler's deterministic channel — per-window per-shard events,
# barrier queue depth, mail matrix, and the SHA-256 stream fingerprint —
# must be byte-identical across execution modes and repeat runs. Volatile
# wall-clock timings are excluded by construction (they live only in the
# sidecar's "volatile" section, which --profile-det-out omits).
cmp "$tmp/det_seq.json" "$tmp/det_par1.json"
cmp "$tmp/det_par1.json" "$tmp/det_par2.json"
"$scale_bin" --lint-profile "$tmp/results/scale.profile.json"
if [ -e results/scale.profile.json ]; then
    "$scale_bin" --lint-profile results/scale.profile.json
fi

echo "== sub-region shard determinism (16 sub-shards > 9 regions, smoke scale)"
# Shard keys are contiguous sub-region blocks, so K may exceed the nine
# regions. Gate the interesting side of that boundary: at K=16 every
# populous region is split across shards, and the parallel run must still
# be byte-identical to the sequential oracle.
(cd "$tmp" && "$scale_bin" --smoke --shards 16 --sequential >scale16_seq.txt 2>/dev/null)
(cd "$tmp" && "$scale_bin" --smoke --shards 16 --parallel >scale16_par.txt 2>/dev/null)
cmp "$tmp/scale16_seq.txt" "$tmp/scale16_par.txt"

echo "== timeseries determinism (chaos smoke: seq vs par sidecar byte-diff + lint)"
# The merged windowed-telemetry sidecar is a deterministic artifact: under
# the full fault campaign at smoke scale, the sequential oracle and the
# threaded run must print byte-identical stdout and write byte-identical
# sidecars; the fresh sidecar must pass its own lint (schema, digest,
# injected=>detected join), and the committed full-scale sidecar must
# still lint — a stale or hand-edited snapshot fails on its digest.
(cd "$tmp" && "$scale_bin" --smoke --chaos --sequential --timeseries-out ts_seq.json >ts_seq.txt 2>/dev/null)
(cd "$tmp" && "$scale_bin" --smoke --chaos --parallel --timeseries-out ts_par.json >ts_par.txt 2>/dev/null)
cmp "$tmp/ts_seq.txt" "$tmp/ts_par.txt"
cmp "$tmp/ts_seq.json" "$tmp/ts_par.json"
"$scale_bin" --lint-timeseries "$tmp/ts_seq.json"
if [ -e results/scale.timeseries.json ]; then
    "$scale_bin" --lint-timeseries results/scale.timeseries.json
fi

echo "== chaos series lint + tsreport over both engines' committed sidecars"
# The per-flow engine writes the same schema: the fresh and the committed
# chaos sidecar must lint (digest, injected=>detected join), and tsreport
# must render each engine's committed artifact.
"$scale_bin" --lint-timeseries "$tmp/golden/results/chaos.timeseries.json"
"$scale_bin" --lint-timeseries results/chaos.timeseries.json
cargo build -q --release -p netsession-bench --bin tsreport
for f in results/scale.timeseries.json results/chaos.timeseries.json; do
    ./target/release/tsreport "$f" >/dev/null
done

echo "== bench snapshot lint + smoke regression gate (perfbench --check)"
# Parses results/bench/BENCH_*.json (schema + required fields), re-runs the
# wheel-vs-heap smoke A/B asserting bit-identical outputs, and applies a
# coarse wall-clock gate with generous (5x) tolerance — see docs/PERFORMANCE.md.
cargo build -q --release -p netsession-bench --bin perfbench
perfbench_bin="$PWD/target/release/perfbench"
found_bench=""
for snap in results/bench/BENCH_*.json; do
    [ -e "$snap" ] || continue
    found_bench=1
    "$perfbench_bin" --check "$snap"
done
if [ -z "$found_bench" ]; then
    echo "no results/bench/BENCH_*.json snapshot committed" >&2
    exit 1
fi

echo "== perf trajectory (perfbench --trend: every snapshot parses, BENCH_10 present)"
# Cross-PR table from every committed BENCH_*.json; fails when this PR's
# snapshot is missing or lacks the families its issue is required to carry.
"$perfbench_bin" --trend --require 10

echo "== committed trace exports stay under 1 MiB"
oversize="$(find results -name '*.trace.json' -size +1M 2>/dev/null || true)"
if [ -n "$oversize" ]; then
    echo "trace export(s) exceed the 1 MiB budget:" >&2
    echo "$oversize" >&2
    exit 1
fi

echo "All checks passed."
