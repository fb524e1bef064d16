#!/usr/bin/env bash
# Benchmark-JSON runner: build the Release preset, run the two
# google-benchmark harnesses, and append one labelled entry per run
# to BENCH_kernels.json / BENCH_serving.json at the repo root. Each
# entry records benchmark name -> ns/op and items/s, plus the thread
# count and git revision, so the perf trajectory is diffable across
# commits (and across SPECINFER_THREADS settings).
#
# Usage: scripts/bench_json.sh [--label NAME] [--filter REGEX]
#   SPECINFER_THREADS=N   thread count recorded + used by the run
#   SPECINFER_NATIVE=1    configure the Release build with
#                         -march=native (off by default)
set -euo pipefail
cd "$(dirname "$0")/.."

label="$(git rev-parse --abbrev-ref HEAD)"
filter=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --label) label="$2"; shift 2 ;;
        --filter) filter="$2"; shift 2 ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

native="OFF"
if [[ "${SPECINFER_NATIVE:-0}" == "1" ]]; then
    native="ON"
fi
cmake --preset release -DSPECINFER_NATIVE="${native}" >/dev/null
cmake --build --preset release --target micro_kernels micro_serving \
    ablation_prefix_sharing ablation_overload >/dev/null

rev="$(git rev-parse --short HEAD)"
if ! git diff --quiet HEAD -- ':!BENCH_kernels.json' \
        ':!BENCH_serving.json' 2>/dev/null; then
    rev="${rev}+dirty"
fi
threads="${SPECINFER_THREADS:-1}"
export SPECINFER_THREADS="${threads}"

run_one() {
    local binary="$1" out_json="$2"
    local raw
    raw="$(mktemp)"
    local bench_args=(--benchmark_format=json)
    if [[ -n "${filter}" ]]; then
        bench_args+=("--benchmark_filter=${filter}")
    fi
    "./build-release/bench/${binary}" "${bench_args[@]}" > "${raw}"
    python3 - "${raw}" "${out_json}" "${rev}" "${label}" \
        "${threads}" <<'PY'
import json, sys

raw_path, out_path, rev, label, threads = sys.argv[1:6]
with open(raw_path) as f:
    raw = json.load(f)

to_ns = {"ns": 1.0, "us": 1.0e3, "ms": 1.0e6, "s": 1.0e9}
benchmarks = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    scale = to_ns[b.get("time_unit", "ns")]
    entry = {"ns_per_op": round(b["real_time"] * scale, 2)}
    if "items_per_second" in b:
        entry["items_per_s"] = round(b["items_per_second"], 2)
    # User counters (e.g. peak_kv_blocks, prefill_tokens from the
    # prefix-sharing ablation) appear as extra numeric keys.
    standard = {
        "name", "family_index", "per_family_instance_index",
        "run_name", "run_type", "repetitions", "repetition_index",
        "threads", "iterations", "real_time", "cpu_time",
        "time_unit", "items_per_second", "bytes_per_second",
        "label", "aggregate_name", "aggregate_unit",
        "error_occurred", "error_message",
    }
    for key, value in b.items():
        if key not in standard and isinstance(value, (int, float)):
            entry[key] = round(value, 2)
    benchmarks[b["name"]] = entry

try:
    with open(out_path) as f:
        runs = json.load(f)
except (FileNotFoundError, json.JSONDecodeError):
    runs = []

runs.append({
    "rev": rev,
    "label": label,
    "threads": int(threads),
    "benchmarks": benchmarks,
})
with open(out_path, "w") as f:
    json.dump(runs, f, indent=2)
    f.write("\n")
print(f"{out_path}: appended run rev={rev} label={label} "
      f"threads={threads} ({len(benchmarks)} benchmarks)")
PY
    rm -f "${raw}"
}

run_one micro_kernels BENCH_kernels.json
run_one micro_serving BENCH_serving.json
run_one ablation_prefix_sharing BENCH_serving.json
run_one ablation_overload BENCH_serving.json
