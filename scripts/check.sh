#!/usr/bin/env bash
# Full verification sweep: configure, build, run all tests, run all
# benchmark harnesses. Mirrors what CI would run.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Differential correctness oracle: spec-vs-incremental equivalence,
# token-tree fuzzing, KV round trips, MSS distribution tests. Prints
# a seed-exact repro line on any failure.
./build/tools/diffcheck --trials 50

# Observability smoke: a short serving run under the exporters, then
# obs_check validates the Prometheus exposition (pinning the serving
# metric catalog) and the Chrome trace JSON. CI uploads build/obs/
# as artifacts.
mkdir -p build/obs
SPECINFER_METRICS_OUT=build/obs/micro_serving.prom \
SPECINFER_TRACE_OUT=build/obs/micro_serving.trace.json \
./build/bench/micro_serving \
    --benchmark_filter='BM_ContinuousBatchDrain' \
    --benchmark_min_time=0.01
./build/tools/obs_check \
    --metrics build/obs/micro_serving.prom \
    --trace build/obs/micro_serving.trace.json \
    --require-metric serving_iterations,serving_requests_finished,serving_tokens_generated,serving_iteration_millis,engine_tokens_verified,pool_jobs_dispatched,serving_rejected_overloaded,serving_deadline_expiries,serving_shed_by_class_interactive,serving_shed_by_class_standard,serving_shed_by_class_batch
# Shared-prefix scenario: the multi-tenant sharing ablation under
# the exporters (it also asserts sharing-vs-plain token identity
# before reporting), then obs_check pins the prefix-sharing metric
# catalog — pool occupancy/sharing gauges, hit/miss/COW counters,
# and the engine-side prefill-skip counter.
SPECINFER_METRICS_OUT=build/obs/prefix_sharing.prom \
SPECINFER_BENCH_TOKENS=8 \
./build/bench/ablation_prefix_sharing \
    --benchmark_filter='sharing:1' --benchmark_min_time=0.01
./build/tools/obs_check \
    --metrics build/obs/prefix_sharing.prom \
    --require-metric kv_blocks_in_use,kv_shared_blocks,kv_alloc_failures,kv_prefix_hits,kv_prefix_misses,kv_cow_copies,engine_prefill_skipped_tokens
./build/tools/spec_infer --num-prompts 2 --max-tokens 8 \
    --metrics-out build/obs/spec_infer.prom \
    --trace-out build/obs/spec_infer.trace.json
./build/tools/obs_check \
    --metrics build/obs/spec_infer.prom \
    --trace build/obs/spec_infer.trace.json \
    --require-metric engine_tokens_proposed,engine_tokens_accepted,model_kernel_launches
# Same run with real-int8 SSM drafting: pins the quantized-path
# counter catalog (kernel launches plus the quantize/int8-GEMM
# sub-phase timers) so the integer kernels can't silently stop
# being exercised.
./build/tools/spec_infer --num-prompts 2 --max-tokens 8 \
    --ssm-precision int8 \
    --metrics-out build/obs/spec_infer_int8.prom \
    --trace-out build/obs/spec_infer_int8.trace.json
./build/tools/obs_check \
    --metrics build/obs/spec_infer_int8.prom \
    --trace build/obs/spec_infer_int8.trace.json \
    --require-metric model_int8_kernel_launches,model_quantize_nanos,model_int8_gemm_nanos
# Sharded serving smoke: the same run at --tp 2 must emit the
# collective-accounting catalog (two allReduces per layer plus the
# LM-head allGather, byte counts matching the perf model's formula —
# tests/parallel pins the exact equality; this pins the catalog).
./build/tools/spec_infer --num-prompts 2 --max-tokens 8 --tp 2 \
    --metrics-out build/obs/spec_infer_tp2.prom
./build/tools/obs_check \
    --metrics build/obs/spec_infer_tp2.prom \
    --require-metric parallel_allreduce_calls,parallel_allreduce_bytes,parallel_allgather_calls,parallel_allgather_bytes

# Daemon smoke: specinferd + three real client processes over the
# shared-memory plane, one killed mid-stream. Asserts the lease
# reap, survivors token-identical to the in-process oracle, a clean
# drain with no leaked segments, journal replay, and the pinned
# ipc_*/daemon_* metric catalog (the script runs obs_check itself).
./scripts/daemon_smoke.sh

# Supervisor smoke: specinferd under specinferd_supervisor crashing
# repeatedly mid-stream (--crash-after). Asserts >= 2 journal-
# recovered restarts, streams oracle-identical across the crashes,
# a graceful SIGTERM drain with no leaked segments, and the pinned
# supervisor_* metric catalog.
./scripts/supervisor_smoke.sh

# Crash/recover smoke: the README's spec_infer recipe. A run dies at
# iteration 20, a --recover run finishes it, and the union of both
# runs' result lines must equal an uninterrupted run's. Prints the
# snapshot size at the crash.
./scripts/crash_recover_smoke.sh

# Serving benchmark smoke: every BENCHMARK.json workload tiny in
# both modes plus the oracle's negative control (builds its own
# Release tree in .bench_build/).
python3 servebench/run.py --smoke

# Fault-injection soak under ASan/UBSan: thousands of scheduling
# iterations with random speculator/verifier/allocator/straggler
# faults; checks liveness, request conservation, the spec-vs-
# incremental oracle on every result, and that no KV block leaks.
# Prints the injector's seed repro line on any failure.
cmake --preset asan
cmake --build --preset asan --target test_fault
./build-asan/tests/test_fault

# Overload-resilience suites under ASan/UBSan: watchdog arm/fire,
# supervisor backoff/crash-loop schedules, QoS priority scheduling +
# shed/deadline policies, per-class token buckets, and the daemon
# hang/wedge chaos soak (injected stalls, frozen heartbeats, and
# supervisor-style kill/restart cycles over one journal).
cmake --build --preset asan --target test_util test_runtime \
      test_ipc_soak
./build-asan/tests/test_util \
    --gtest_filter='Watchdog*:SupervisorPolicy*'
./build-asan/tests/test_runtime --gtest_filter='Priority*:Overload*'
./build-asan/tests/test_ipc_soak --gtest_filter='*WatchdogHangWedge*'

# Int8 kernel + model suites under ASan/UBSan: quantization, the
# integer GEMM tiles (scalar and AVX2 dispatch), the int8 SSM
# forward/serialization paths, and the serialized-stream readers'
# rejection of garbage, truncation and implausible lengths.
cmake --build --preset asan --target test_tensor test_model
./build-asan/tests/test_tensor --gtest_filter='Int8*'
./build-asan/tests/test_model --gtest_filter='*Int8*:Serialization*'

# Tensor-parallel suites under ASan/UBSan: the collective library's
# determinism/accounting properties and the sharded-forward
# bit-identity sweep (tp in {2,4,8} vs tp=1, fp32 and int8).
cmake --build --preset asan --target test_parallel
./build-asan/tests/test_parallel
./build-asan/tests/test_model --gtest_filter='Sharded*'

# Crash-recovery oracle under ASan/UBSan: seeded workloads crashed
# at random points (torn journal records included) must recover to
# bit-identical outputs with no KV leak.
cmake --build --preset asan --target test_recovery
SPECINFER_RECOVERY_TRIALS=300 ./build-asan/tests/test_recovery

# Data-race sweep: thread pool, batched forward, fault injection,
# recovery machinery, the prefix-sharing soak + serving equivalence
# suites, the batch stepped on several pool workers, the int8 quantize/GEMM/forward suites (row-parallel via
# the pool), and the metrics/tracing instruments (hammered from
# pool workers) under ThreadSanitizer.
cmake --preset tsan
cmake --build --preset tsan
SPECINFER_SOAK_ITERATIONS=1500 SPECINFER_RECOVERY_TRIALS=60 \
SPECINFER_RECOVERY_SOAK_ITERATIONS=800 \
ctest --preset tsan \
      -R 'ThreadPool|ThreadedForward|Fault|Recovery|Journal|Crc32|Concurrency|Tracer|WorkloadTrace|OverheadGuard|KvSharing|PrefixSharing|Ring|Int8|Watchdog|SupervisorPolicy|Priority|Overload|Parallel|Collective|ShardedForward|GemmProperty|ConcurrentStep'

for b in build/bench/*; do
    echo "=== $b ==="
    "$b"
    echo
done
