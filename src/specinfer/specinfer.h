/**
 * @file
 * Umbrella header: include everything a typical SpecInfer-CPP user
 * needs with a single include.
 *
 *   #include "specinfer/specinfer.h"
 *
 * Namespaces:
 *   specinfer::model     transformer substrate (tree attention,
 *                        KV cache, samplers, I/O)
 *   specinfer::core      token trees, speculation, verification,
 *                        the SpecEngine loop, boost tuning
 *   specinfer::runtime   continuous batching, KV memory accounting
 *   specinfer::simulator hardware latency / energy models
 *   specinfer::workload  synthetic datasets, arrivals, traces
 *   specinfer::util      RNG, statistics, tables, logging
 */

#ifndef SPECINFER_SPECINFER_H
#define SPECINFER_SPECINFER_H

#include "core/boost_tuning.h"
#include "core/expansion.h"
#include "core/spec_engine.h"
#include "core/speculator.h"
#include "core/token_tree.h"
#include "core/verifier.h"
#include "model/config.h"
#include "model/kv_cache.h"
#include "model/model_factory.h"
#include "model/sampler.h"
#include "model/sequence_parallel.h"
#include "model/serialization.h"
#include "model/transformer.h"
#include "model/weights.h"
#include "runtime/kv_memory.h"
#include "runtime/request.h"
#include "runtime/request_manager.h"
#include "simulator/hardware.h"
#include "simulator/llm_spec.h"
#include "simulator/perf_model.h"
#include "simulator/system_model.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/arrivals.h"
#include "workload/datasets.h"
#include "workload/trace.h"

#endif // SPECINFER_SPECINFER_H
