#!/usr/bin/env python3
"""End-to-end benchmark of the EPOC compiler and the epocd service.

    python3 perfbench/run.py --workload cold_grape --seed 1 --seconds 15 --trace 0

Builds the benchmark (perfbench/, a cargo package of its own) and the
program under test (the epocd and trace_check binaries of the workspace)
from source, runs one workload, checks every output, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. The line before it carries the sample count
of every metric and the host-noise diagnostics of the run.

Workloads, metrics and layers are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("cold_grape", "warm_service", "wide_modeled")
# The measuring process is killed past this; the run then prints no result.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    common = ["cargo", "build", "--release", "--offline", "--quiet"]
    for cmd in (
        common + ["--manifest-path", str(BENCH / "Cargo.toml")],
        common + ["-p", "epoc", "--bin", "epocd", "--bin", "trace_check"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def build_id(*paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()[:16]


def steal_s():
    """Host steal time so far: the 8th value of /proc/stat's cpu line."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args, target, work, build):
    exe = target / "release"
    cmd = [
        str(exe / "epoc-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
        "--epocd", str(exe / "epocd"),
        "--build", build,
    ]
    # Its own process group, so a hung run is stopped with every epocd it
    # started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"measurement did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        fail(f"measurement failed (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def check_trace(target, workload, trace_file):
    cmd = [str(target / "release" / "trace_check")]
    if workload == "cold_grape":
        cmd.append("--require-qoc")
    r = subprocess.run(cmd + [trace_file], capture_output=True, text=True)
    print(r.stdout.strip() or r.stderr.strip(), file=sys.stderr)
    return [] if r.returncode == 0 else [f"trace_check: {r.stderr.strip()}"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = target_dir()
    build(target)
    work = target / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    build_hash = build_id(target / "release" / "epoc-perfbench", target / "release" / "epocd")

    steal0, usage0, t0 = steal_s(), resource.getrusage(resource.RUSAGE_CHILDREN), time.time()
    result = measure(args, target, work, build_hash)
    steal1, usage1, wall = steal_s(), resource.getrusage(resource.RUSAGE_CHILDREN), time.time() - t0

    problems = list(result["problems"])
    if args.trace:
        problems += check_trace(target, args.workload, result["detail"]["trace_file"])
    expected = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metric set {sorted(got.items())} does not match BENCHMARK.json")

    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "build": build_hash,
        "problems": problems,
        "samples": result["samples"],
        "host": {
            "steal_s": round(steal1 - steal0, 3),
            "cpu_user_s": round(usage1.ru_utime - usage0.ru_utime, 3),
            "cpu_sys_s": round(usage1.ru_stime - usage0.ru_stime, 3),
            "wall_s": round(wall, 3),
            "cpus": os.cpu_count(),
            "loadavg": os.getloadavg(),
        },
        "detail": result["detail"],
    }
    runs = work / "runs"
    runs.mkdir(exist_ok=True)
    record = dict(diagnostics, metrics=result["metrics"])
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    final = {
        "correct": not problems and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps({"perfbench": diagnostics}))
    print(json.dumps(final))
    # A failed check fails the command, after its result is printed.
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
