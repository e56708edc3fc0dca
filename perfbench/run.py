#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds T --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the pathdelay library from src/ plus the pdf_perfbench program)
into .bench_build/perfbench/build; later calls only rebuild what changed.
Build output goes to stderr. The program's report and its final result line go
to stdout; every successful result is also appended, with the host
fingerprint, to .bench_build/perfbench/results.jsonl (see perfbench/compare.py).
`--workload all` runs every workload, each in its own process, and ends with
one result line whose metrics are named <workload>.<metric>.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("enrich_p0p1", "basic_p0", "grade_random", "serve_mixed")
RUN_TIMEOUT_S = 175


def build(src: Path, build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(src), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "pdf_perfbench"


def run_one(binary: Path, work: Path, workload: str, args) -> dict | None:
    """Runs one workload; prints its report and returns its result. On
    failure the output goes to stderr and the result is None."""
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {workload} timed out", file=sys.stderr)
        return None
    lines = stdout.splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exited with {proc.returncode}")
        result = json.loads(lines[-1])
    except ValueError as e:
        sys.stderr.write(stdout)
        print(f"run.py: {workload}: no result ({e})", file=sys.stderr)
        return None

    fingerprint = {}
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    record = {"workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint, "result": result}
    with open(work / "results.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    work = root / ".bench_build" / "perfbench"
    try:
        binary = build(root / "perfbench", work / "build")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    if args.workload != "all":
        return 0 if run_one(binary, work, args.workload, args) else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(binary, work, workload, args)
        if result is None:
            return 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
