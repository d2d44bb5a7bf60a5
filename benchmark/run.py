#!/usr/bin/env python3
"""Run one benchmark workload in a fresh process and print its result.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the benchmark package
(benchmark/Cargo.toml, a package of its own with path dependencies on the
workspace crates) into $CARGO_TARGET_DIR (default .bench_build), runs the
workload binary as a child process, and adds that process's CPU time and
peak RSS to the end-to-end metrics, so each belongs to the one workload.
Before the result it prints the machine (nproc, CPU model, rustc, commit,
seed) and every metric's median, quartiles and sample count. The last
line of stdout is the result JSON.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flow_month", "sharded_month", "live_fleet")
# The workload process must end well inside the three minutes a run gets.
CHILD_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds: the commit stand-in
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "benchmark"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, subdirs, names in os.walk(path):
            subdirs[:] = sorted(s for s in subdirs if s != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def machine(seed):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), model
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": (os.path.isdir(os.path.join(ROOT, ".git"))
                   and command_output(["git", "rev-parse", "HEAD"])) or source_digest(),
        "seed": seed,
    }


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target_dir, "release", "netsession-benchmark")


def run_child(binary, args):
    """Run the workload binary; return its stdout and resource usage."""
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    timer.start()
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        fail(f"{args.workload} exited with {child.returncode}")
    return out, usage


def main(argv):
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)
    if not os.path.isfile(os.path.join(ROOT, "crates", "hybrid", "Cargo.toml")):
        fail(f"{ROOT} is not a checkout of the repository (no crates/ to build)", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    catalog = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    out, usage = run_child(binary, args)
    lines = out.strip().splitlines()
    if not lines:
        fail("the workload printed no result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    measured = result["metrics"]
    if not args.trace:
        cpu = usage.ru_utime + usage.ru_stime
        rss = usage.ru_maxrss / 1024  # KiB on Linux
        measured["cpu_s"] = {"value": cpu, "unit": "s", "q1": cpu, "q3": cpu, "n": 1}
        measured["peak_rss_mib"] = {"value": rss, "unit": "MiB", "q1": rss, "q3": rss, "n": 1}

    metrics = {}
    print(f"# machine: {json.dumps(machine(args.seed))}")
    print(f"# workload {args.workload}, trace {args.trace}: metric median [q1, q3] (n)")
    for m in catalog:
        name = m["name"]
        if name not in measured:
            fail(f"the workload did not report {name}")
        got = measured[name]
        if got["unit"] != m["unit"]:
            fail(f"{name} reported in {got['unit']}, BENCHMARK.json says {m['unit']}")
        print(f"#   {name:36} {got['value']:.6g} [{got['q1']:.6g}, {got['q3']:.6g}] ({got['n']}) {m['unit']}")
        metrics[name] = {"value": got["value"], "unit": got["unit"]}
    attempted, failed = result["attempted"], result["failed"]
    print(f"#   failed_pct {100.0 * failed / max(attempted, 1):.3f} ({failed} of {attempted})")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
