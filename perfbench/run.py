#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload mix_trap --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The C++ runner (perfbench/src) is built
from source with CMake into $CARGO_TARGET_DIR (default .bench_build), then
run for one workload; its last stdout line is the JSON result. A dark run
(--trace 0) reports the end-to-end metrics, a traced run (--trace 1) the
per-layer ones. The ingest workload's phase-B offered rate is read from
the workload's "why" in BENCHMARK.json ("offers N subs/s").
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """Commit id when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / tree).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def build(build_dir):
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench", "perfbench_test"],
                   stdout=log, stderr=log, check=True)


def offered_rate(spec):
    for workload in spec["workloads"]:
        if workload["name"] == "ingest":
            match = re.search(r"offers (\d+(?:\.\d+)?) subs/s",
                              workload["why"])
            if match:
                return match.group(1)
    fail("BENCHMARK.json: the ingest workload's why names no offered rate")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no Atom source tree at {ROOT}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    if args.self_test:
        sys.exit(subprocess.run([str(build_dir / "perfbench_test")]).returncode)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {', '.join(names)})")
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace), "--out-dir", str(build_dir),
               "--commit", source_id()]
    if args.workload == "ingest":
        command += ["--offered-rate", offered_rate(spec)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines), file=sys.stderr)
        fail(f"{args.workload} printed no result (exit {run.returncode})")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result.get("metrics", {})) != sorted(wanted):
        print("\n".join(lines[:-1]), file=sys.stderr)
        fail("the runner's metrics do not match BENCHMARK.json")
    print("\n".join(lines))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
