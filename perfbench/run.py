#!/usr/bin/env python3
"""Runs one perfbench workload against the MARS stack.

Usage, from the repository root:

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use,
prints a provenance line, then relays the benchmark's report. The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; its metric names are checked against BENCHMARK.json. Exits
non-zero, without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["hot_read", "cold_read", "train_publish", "restart"]
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "core" / "mars.h").is_file():
        fail(f"MARS sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "mars_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return bdir / "mars_perfbench"


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE) for p in d.rglob("*")
             if p.is_file() and p.suffix in (".cc", ".h", ".py", ".txt")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_provenance():
    if not (ROOT / ".git").exists():
        return "none", "unknown"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status",
                                "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "none", "unknown"
    return sha.stdout.strip(), "1" if dirty.stdout.strip() else "0"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(binary, workload, seed, seconds, trace, workdir):
    """Runs one workload, relaying its report; returns the parsed result."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    last = ""
    try:
        for line in proc.stdout:
            if line.startswith('{"correct"'):
                last = line.strip()
            else:
                print(line, end="", flush=True)
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload}: timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not last:
        fail(f"{workload}: benchmark exited with {proc.returncode}")
    result = json.loads(last)
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    declared = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        fail(f"{workload}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(declared) - set(got))}, "
             f"extra {sorted(set(got) - set(declared))}, "
             f"units {sorted(n for n in got if n in declared and got[n] != declared[n])}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    bdir = build_dir()
    binary = build(bdir)
    sha, dirty = git_provenance()
    print(f"provenance git_sha={sha} git_dirty={dirty} "
          f"source_sha256={source_digest()} build_type=Release", flush=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: run_one(binary, w, args.seed, args.seconds, args.trace,
                          bdir.parent / "perfbench-work")
               for w in workloads}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
