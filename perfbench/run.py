#!/usr/bin/env python3
"""perfbench entry point: builds cxlpmem_bench from this checkout and runs one
workload of the cxlpmem benchmark.

    python3 perfbench/run.py --workload kv_write --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the checkout
root; pools live in <build>/work/<workload>-<pid> and are removed at exit;
a traced run writes its spans to <build>/traces.  Every run also leaves its
stamped record (notes + result) in <build>/results.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: every end-to-end metric of BENCHMARK.json with --trace 0,
every per-layer metric with --trace 1.  The exit code is non-zero when an
output was wrong, the build failed, or the checkout holds no cxlpmem source.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("kv_write", "kv_read_tiered", "ckpt_restart", "pool_tx_mt")
BUILD_TYPE = "Release"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id():
    """git sha when the checkout is a repository, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    roots = [ROOT / "CMakeLists.txt", ROOT / "src", ROOT / "tools", HERE]
    for r in roots:
        files = [r] if r.is_file() else sorted(p for p in r.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cmake_dir = build_dir / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    if not (cmake_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j", jobs,
                    "--target", "cxlpmem_bench"],
                   check=True, stdout=sys.stderr)
    return cmake_dir / "cxlpmem_bench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "api").is_dir():
        log(f"no cxlpmem source tree at {ROOT} (CMakeLists.txt, src/)")
        return 2

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 3

    work = build_dir / "work" / f"{args.workload}-{os.getpid()}"
    trace_dir = build_dir / "traces"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work),
           "--trace-dir", str(trace_dir), "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        log(f"cxlpmem_bench exited {proc.returncode} without a result")
        return proc.returncode or 5
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
        return 6

    record = {"notes": [l[2:] for l in lines[:-1] if l.startswith("# ")],
              "result": result}
    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for line in lines:
        print(line)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
