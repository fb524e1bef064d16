/**
 * @file
 * spec_infer — serve prompts with tree-based speculative inference
 * and verification, mirroring the paper artifact's program of the
 * same name.
 *
 * Usage:
 *   spec_infer [--llm llama-7b-sim] [--ssm-layers 2]
 *              [--ssm-precision fp32|int8] [--tp 1]
 *              [--dataset Alpaca] [--num-prompts 4]
 *              [--max-tokens 64] [--temperature 0]
 *              [--expansion 1,1,3,1,1,1,1,1] [--seed 1] [--verbose]
 *              [--batch 4] [--journal serve.wal]
 *              [--snapshot-every 32] [--crash-after N] [--recover]
 *              [--metrics-out metrics.prom] [--trace-out trace.json]
 *
 * Observability: --metrics-out writes a Prometheus text-exposition
 * snapshot of every counter/gauge/histogram at exit; --trace-out
 * writes a Chrome trace_event JSON (load in Perfetto/about:tracing —
 * one swimlane per request). Neither flag = zero instrumentation
 * overhead and bit-identical outputs.
 *
 * temperature 0 = greedy decoding (lossless vs incremental);
 * temperature > 0 = stochastic decoding via multi-step speculative
 * sampling.
 *
 * Crash safety: with --journal the prompts are served through the
 * continuous-batching RequestManager with a write-ahead token
 * journal at the given path and a state snapshot at
 * `<journal>.snap` refreshed every --snapshot-every iterations.
 * --crash-after N kills the process mid-serve after N iterations
 * (simulating a crash); a subsequent run with --recover rebuilds
 * the scheduler from snapshot + journal tail and finishes the
 * interrupted requests — with outputs token-identical to an
 * uninterrupted run. The recovering run appends to the crashed
 * run's journal, so `diffcheck --replay-journal` can re-drive the
 * whole file under the same flags.
 */

#include "cli_common.h"

#include <cstdlib>
#include <fstream>

#include "runtime/journal.h"
#include "runtime/request_manager.h"
#include "util/logging.h"

namespace {

using namespace specinfer;

/** Serve through the journaled RequestManager (--journal mode). */
int
serveJournaled(const tools::ServingStack &stack,
               const workload::PromptDataset &dataset,
               size_t num_prompts, const std::string &journal_path,
               size_t snap_every, int64_t crash_after,
               bool recover_mode, bool journal_fsync, bool verbose)
{
    const std::string snap_path = journal_path + ".snap";
    runtime::ServingConfig scfg = stack.serving;
    scfg.journalFsync = journal_fsync;
    runtime::RequestManager manager(&stack.engine, scfg);

    size_t next_prompt = 0;
    uint64_t valid = 0; // a fresh run starts the journal over
    if (recover_mode) {
        // Rebuild from the persisted bytes: snapshot (if any) plus
        // the journal tail, tolerating a torn final record.
        std::ifstream journal_in(journal_path, std::ios::binary);
        SPECINFER_CHECK(journal_in.good(), "cannot read journal '"
                                               << journal_path << "'");
        std::ifstream snap_in(snap_path, std::ios::binary);
        valid = manager.recover(snap_in.good() ? &snap_in : nullptr,
                                &journal_in);
        std::printf("recover: %llu valid journal bytes, "
                    "%zu finished, %zu active, %zu pending at "
                    "iteration %zu\n",
                    static_cast<unsigned long long>(valid),
                    manager.finished().size(),
                    manager.activeCount(), manager.pendingCount(),
                    static_cast<size_t>(manager.stats().iterations));
        // Every submitted prompt is journaled; only the tail of the
        // dataset never reached submit() before the crash.
        next_prompt = manager.finished().size() +
                      manager.activeCount() +
                      manager.pendingCount();
    }

    // Append from the valid length (DESIGN.md §5d); --journal-fsync
    // arms fdatasync at iteration and snapshot boundaries.
    runtime::JournalFile journal;
    SPECINFER_CHECK(journal.open(journal_path, valid, journal_fsync),
                    "cannot write journal '" << journal_path << "'");
    manager.attachJournal(&journal.writer());
    auto snapshot = [&]() { manager.saveSnapshot(snap_path); };
    snapshot();

    for (size_t i = next_prompt; i < num_prompts; ++i)
        manager.submit(dataset.prompt(i), 0);

    size_t it = 0;
    while (manager.busy()) {
        manager.runIteration();
        ++it;
        if (it % snap_every == 0)
            snapshot();
        if (crash_after >= 0 &&
            it >= static_cast<size_t>(crash_after) &&
            manager.busy()) {
            // Simulated process death: no snapshot, no drain — the
            // journal's flushed prefix is all a restart gets.
            std::printf("crash-after: dying at iteration %zu with "
                        "%zu requests in flight (rerun with "
                        "--recover)\n",
                        it,
                        manager.activeCount() +
                            manager.pendingCount());
            std::exit(3);
        }
    }
    snapshot();

    double steps = 0.0, tokens = 0.0;
    for (const runtime::RequestResult &res : manager.finished()) {
        core::GenerationResult gen;
        gen.tokens = res.tokens;
        gen.stats = res.stats;
        tools::printResult(res.id, dataset.prompt(res.id - 1), gen,
                           verbose);
        steps += static_cast<double>(res.stats.llmSteps());
        tokens += static_cast<double>(res.tokens.size());
    }
    std::printf("total: %.0f tokens in %.0f LLM decoding steps "
                "(%.2f tokens/step) over %zu iterations\n",
                tokens, steps, tokens / steps,
                static_cast<size_t>(manager.stats().iterations));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace specinfer;
    util::Flags flags(argc, argv);
    flags.allowOnly(tools::commonFlagNames());

    const std::string dataset_name = flags.get("dataset", "Alpaca");
    const size_t num_prompts =
        static_cast<size_t>(flags.getInt("num-prompts", 4));
    const bool verbose = flags.getBool("verbose");
    const std::string metrics_out = flags.get("metrics-out", "");
    const std::string trace_out = flags.get("trace-out", "");
    // Installed as the process-global context before any engine or
    // manager is constructed, so every layer resolves it.
    std::unique_ptr<obs::ObsContext> obs_ctx =
        tools::makeObsFromFlags(metrics_out, trace_out);
    tools::installSignalFlush(obs_ctx.get(), metrics_out,
                              trace_out);

    std::unique_ptr<tools::ServingStack> stack =
        tools::servingStackFromFlags(flags);
    const core::SpecEngine &engine = stack->engine;
    const core::EngineConfig &cfg = engine.config();

    std::printf("spec_infer: %s + %s, dataset %s, expansion %s, "
                "%s decoding\n",
                stack->llm.config().name.c_str(),
                stack->ssm.config().name.c_str(),
                dataset_name.c_str(),
                cfg.spec.expansion.toString().c_str(),
                cfg.verify == core::VerifyMode::Greedy ? "greedy"
                                                    : "stochastic");

    workload::PromptDataset dataset = workload::PromptDataset::named(
        dataset_name, stack->llm.config().vocabSize);

    const std::string journal_path = flags.get("journal", "");
    if (!journal_path.empty()) {
        int rc = serveJournaled(
            *stack, dataset, num_prompts, journal_path,
            static_cast<size_t>(flags.getInt("snapshot-every", 32)),
            flags.getInt("crash-after", -1),
            flags.getBool("recover"),
            flags.getBool("journal-fsync"), verbose);
        tools::writeObsOutputs(obs_ctx.get(), metrics_out,
                               trace_out);
        return rc;
    }

    double steps = 0.0, tokens = 0.0;
    for (size_t i = 0; i < num_prompts; ++i) {
        std::vector<int> prompt = dataset.prompt(i);
        core::GenerationResult res = engine.generate(prompt, i);
        tools::printResult(i, prompt, res, verbose);
        steps += static_cast<double>(res.stats.llmSteps());
        tokens += static_cast<double>(res.tokens.size());
    }
    std::printf("total: %.0f tokens in %.0f LLM decoding steps "
                "(%.2f tokens/step)\n",
                tokens, steps, tokens / steps);
    tools::writeObsOutputs(obs_ctx.get(), metrics_out, trace_out);
    return 0;
}
