#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ with CMake into
.bench_build/perfbench, runs the benchmark binary once, prints a readable
report, and writes the full result (run metadata, sample counts, output
checks and, with --trace 1, the per-layer ledger and span dump) under
.bench_build/perfbench/results/. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end_to_end metrics
of BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
Exits non-zero, printing no result, if the build or the run fails, and
exits 1 after printing the result if an output check failed.
"""
import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = BUILD / "results"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def source_digest():
    """sha256 over the library and benchmark sources (checkouts may have no git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if not 1 <= a.seconds <= 600:
        fail("--seconds must be within 1..600")
    if a.seed < 0:
        fail("--seed must be non-negative")

    # One CPU is left to the controller thread, this script and the kernel:
    # on a 4-CPU box, runs at all 4 did not repeat (service find p99 sat on
    # the edge of the waiters' 50 us sleep and swung 0.6-1.4x between runs).
    threads = max(1, len(os.sched_getaffinity(0)) - 1)

    binary = build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    spans = RESULTS / f"spans-{a.workload}.csv"
    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--threads", str(threads), "--spans", str(spans)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=3 * a.seconds + 90)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    try:
        res = json.loads(r.stdout)
    except json.JSONDecodeError:
        fail(f"benchmark exited {r.returncode} without a result")
    if r.returncode not in (0, 1):
        fail(f"benchmark exited {r.returncode}")

    meta = res["meta"]
    meta.update({
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    })
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(res, indent=1) + "\n")
    if a.trace:
        ledger = {"meta": meta, "layers": res["layers"], "spans": res["ledger"]}
        (RESULTS / f"ledger-{a.workload}.json").write_text(
            json.dumps(ledger, indent=1) + "\n")

    e2e, n = res["e2e"], res["samples"]
    print(f"perfbench {a.workload}: {meta['threads']} threads, "
          f"{meta['lock_mode']}, {meta['front_end']}, seed {a.seed}, "
          f"{a.seconds} s measured, trace {a.trace}")
    print(f"  meta: {json.dumps(meta, sort_keys=True)}")
    print(f"  throughput {e2e['throughput_mops']:.3f} Mop/s "
          f"(median of {n['throughput_windows']} windows)")
    print(f"  find   p50 {e2e['find_p50_ns']:.1f} ns  p99 {e2e['find_p99_ns']:.1f} ns "
          f"({n['find_latency']} of {n['find_latency_offered']} samples)")
    print(f"  update p50 {e2e['update_p50_ns']:.1f} ns  p99 {e2e['update_p99_ns']:.1f} ns "
          f"({n['update_latency']} of {n['update_latency_offered']} samples)")
    print(f"  setup {e2e['setup_s']:.4f} s (median of {n['setup_rounds']}), "
          f"peak RSS {e2e['peak_rss_mib']:.1f} MiB, "
          f"failed_op_ratio {e2e['failed_op_ratio']:.3g} "
          f"({res['failed']} of {res['attempted']})")
    print(f"  checks: {json.dumps(res['checks'], sort_keys=True)}")
    if a.trace:
        print(f"  ledger: {RESULTS / f'ledger-{a.workload}.json'}; spans: {spans}")

    source = res["layers"] if a.trace else e2e
    group = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {}
    for m in group:
        if m["name"] not in source:
            fail(f"benchmark did not report {m['name']}")
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
