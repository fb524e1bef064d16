#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the engine and the servebench binary from this source tree
(CMake, Release), runs one workload, checks the printed metrics
against BENCHMARK.json, and prints the result as the last stdout
line:

    python3 servebench/run.py --workload solo --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
ledger. `python3 servebench/run.py --smoke` runs every workload at a
tiny size in both modes and checks that the oracle rejects a
corrupted token. See servebench/NOTES.md for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solo", "batch", "daemon")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build():
    """Configure (once) and build servebench and specinferd."""
    out = build_dir() / "servebench"
    if not (out / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "servebench",
         "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "servebench", out / "specinfer" / "tools" / "specinferd"


def source_rev():
    """Git revision when available, else a digest of the sources."""
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        if rev:
            return rev
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = ROOT / top
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def run_once(binary, daemon, workload, seed, seconds, trace,
             corrupt=False):
    """Run servebench; returns (exit code, result dict or None)."""
    work = build_dir() / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--daemon-bin", str(daemon), "--work-dir", str(work)]
    if corrupt:
        cmd += ["--corrupt-token", "1"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"servebench: {workload} timed out")
        return 1, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    echoed = dict(re.findall(r"(pool_threads|build|host_steal_frac)=(\S+)",
                             "\n".join(lines[:-1])))
    print("fingerprint: " + json.dumps({
        "nproc": os.cpu_count(),
        "pool_threads": echoed.get("pool_threads"),
        "build_type": echoed.get("build"),
        "cpu_model": cpu_model(),
        "source_rev": source_rev(),
        "host_steal_frac": echoed.get("host_steal_frac"),
    }))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"servebench: {workload} printed no result "
            f"(exit {proc.returncode})")
        return proc.returncode or 1, None
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != dict(want):
        log(f"servebench: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(dict(want)) - set(got))}, "
            f"extra {sorted(set(got) - set(dict(want)))}, "
            f"unit mismatch {[n for n, u in want if got.get(n, u) != u]}")
        return 1, None
    result["metrics"] = {n: result["metrics"][n] for n, _ in want}
    return proc.returncode, result


def smoke(binary, daemon):
    """Tiny run of every workload in both modes, plus the oracle's
    negative control."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, res = run_once(binary, daemon, workload, 1, 2, trace)
            good = code == 0 and res is not None and res["correct"]
            ok &= good
            log(f"smoke: {workload} trace={trace} "
                f"{'ok' if good else 'FAILED'}"
                + (f" sent={res['attempted']} failed={res['failed']}"
                   if res else ""))
    for workload in WORKLOADS:
        code, res = run_once(binary, daemon, workload, 1, 2, 0,
                             corrupt=True)
        caught = code != 0 and res is not None and not res["correct"] \
            and res["failed"] >= 1
        ok &= caught
        log(f"smoke: oracle {'rejects' if caught else 'MISSED'} a "
            f"corrupted {workload} token")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        binary, daemon = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"servebench: build failed: {err}")
        return 1
    if args.smoke:
        return smoke(binary, daemon)
    code, result = run_once(binary, daemon, args.workload, args.seed,
                            args.seconds, args.trace)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
