/**
 * @file
 * specinferd — the crash-isolated serving daemon.
 *
 * Owns one speculative engine + RequestManager and serves any
 * number of client processes over per-client shared-memory ring
 * pairs (see src/ipc/). Clients are held to heartbeat leases; a
 * client that dies or hangs is reaped and its in-flight requests
 * cancelled, without disturbing anyone else.
 *
 * Usage:
 *   specinferd [--llm llama-7b-sim] [--ssm-layers 2]
 *              [--ssm-precision fp32|int8] [--tp 1]
 *              [--expansion 1,1,3,1,1,1,1,1] [--seed 1]
 *              [--max-tokens 64] [--temperature 0] [--batch 4]
 *              [--dir DIR]            IPC dir ($SPECINFER_IPC_DIR,
 *                                     then /dev/shm)
 *              [--lease-ticks 64] [--scan-every 4]
 *              [--max-ticks 0]        stop after N ticks (CI; 0 =
 *                                     run until signalled)
 *              [--journal PATH]       write-ahead journal (crash
 *                                     recovery; snapshot at .snap;
 *                                     appended across restarts and
 *                                     replayed offline by diffcheck
 *                                     --replay-journal)
 *              [--journal-fsync]      fdatasync the journal at
 *                                     iteration/snapshot boundaries
 *                                     (power-loss durability)
 *              [--class-buckets i,s,b] per-class token-bucket
 *                                     capacities (0 = unmetered)
 *              [--class-refill i,s,b] bucket refill periods
 *                                     (iterations per token)
 *              [--wall-deadline-ms N] default wall-clock deadline
 *              [--watchdog-budget-ms N] per-iteration stall budget
 *              [--stall-degrade N]    iterations speculation stays
 *                                     off after a stall
 *              [--crash-after N]      simulate a crash after N live
 *                                     iterations (supervisor smoke)
 *              [--metrics-out F] [--trace-out F] [--verbose]
 *
 * The main loop ticks back to back while the manager has requests
 * pending or active, and sleeps 1 ms after a tick that leaves it
 * with none, so a lease of N ticks spans at least N ms only while
 * the daemon is idle.
 *
 * Recovery replays the journal's committed iterations: an iteration
 * a crash cut short is dropped and runs again, which is safe because
 * its token frames were never flushed (the daemon flushes after
 * runIteration returns).
 *
 * SIGTERM/SIGINT triggers a graceful drain: admission stops
 * (submits come back Rejected(Draining)), in-flight requests finish
 * and stream out, every segment is unlinked, and the process exits
 * 0. kill -9 is the crash path: segments and journal survive, and
 * the next specinferd over the same --dir/--journal recovers and
 * resumes every stream.
 *
 * The engine and serving flags (--llm through --class-refill) are
 * the journal's identity: `diffcheck --replay-journal PATH` takes
 * the same ones to re-drive the journal offline.
 */

#include "cli_common.h"

#include <chrono>
#include <csignal>
#include <thread>

#include "ipc/daemon.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onStopSignal(int)
{
    // Drain must run on the main loop, not in signal context; the
    // handler only raises the flag (second delivery exits hard so
    // a wedged drain can still be killed politely).
    if (g_stop != 0)
        std::_Exit(130);
    g_stop = 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace specinfer;
    util::Flags flags(argc, argv);
    std::vector<std::string> allowed = tools::servingFlagNames();
    allowed.insert(allowed.end(),
                   {"dir", "lease-ticks", "scan-every", "max-ticks",
                    "journal", "snapshot-every",
                    "journal-fsync", "wall-deadline-ms",
                    "watchdog-budget-ms", "stall-degrade",
                    "crash-after", "metrics-out", "trace-out",
                    "verbose"});
    flags.allowOnly(allowed);

    const bool verbose = flags.getBool("verbose");
    const std::string metrics_out = flags.get("metrics-out", "");
    const std::string trace_out = flags.get("trace-out", "");

    std::unique_ptr<obs::ObsContext> obs_ctx =
        tools::makeObsFromFlags(metrics_out, trace_out);

    // --tp shards the serving models across simulated tensor-
    // parallel ranks (bit-identical tokens at every degree); the
    // degree is persisted in snapshots so recovery re-runs the same
    // execution shape.
    std::unique_ptr<tools::ServingStack> stack =
        tools::servingStackFromFlags(flags);
    runtime::ServingConfig serving = stack->serving;
    serving.obs = obs_ctx.get();
    serving.journalFsync = flags.getBool("journal-fsync");
    serving.defaultWallDeadlineNanos =
        static_cast<uint64_t>(flags.getInt("wall-deadline-ms", 0)) *
        1000000ULL;

    ipc::DaemonConfig dcfg;
    dcfg.dir = flags.get("dir", "");
    dcfg.leaseTicks =
        static_cast<uint64_t>(flags.getInt("lease-ticks", 64));
    dcfg.scanEvery =
        static_cast<uint64_t>(flags.getInt("scan-every", 4));
    dcfg.journalPath = flags.get("journal", "");
    dcfg.snapshotEvery =
        static_cast<size_t>(flags.getInt("snapshot-every", 64));
    dcfg.obs = obs_ctx.get();
    dcfg.watchdogBudgetNanos =
        static_cast<uint64_t>(
            flags.getInt("watchdog-budget-ms", 0)) *
        1000000ULL;
    dcfg.stallDegradeIterations =
        static_cast<size_t>(flags.getInt("stall-degrade", 64));
    dcfg.crashAfterIterations =
        static_cast<uint64_t>(flags.getInt("crash-after", 0));

    ipc::Daemon daemon(&stack->engine, serving, dcfg);
    if (!daemon.start()) {
        std::fprintf(stderr,
                     "specinferd: cannot start (dir '%s')\n",
                     daemon.dir().c_str());
        return 1;
    }
    std::printf("specinferd: epoch %llu serving in %s "
                "(lease %llu ticks%s)\n",
                static_cast<unsigned long long>(daemon.epoch()),
                daemon.dir().c_str(),
                static_cast<unsigned long long>(dcfg.leaseTicks),
                dcfg.journalPath.empty() ? "" : ", journaled");
    std::fflush(stdout);

    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);

    const uint64_t max_ticks =
        static_cast<uint64_t>(flags.getInt("max-ticks", 0));

    while (g_stop == 0 &&
           (max_ticks == 0 || daemon.ticks() < max_ticks)) {
        daemon.tick();
        // Busy ticks run back to back; only an idle daemon sleeps.
        if (!daemon.manager().busy())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::printf("specinferd: draining (%zu clients, %zu requests "
                "in flight)\n",
                daemon.clientCount(),
                daemon.manager().pendingCount() +
                    daemon.manager().activeCount());
    daemon.drain();
    if (verbose)
        std::printf("specinferd: served %zu requests over %llu "
                    "ticks, %llu reaps\n",
                    daemon.manager().stats().requestsFinished,
                    static_cast<unsigned long long>(daemon.ticks()),
                    static_cast<unsigned long long>(
                        daemon.reapCount()));
    tools::writeObsOutputs(obs_ctx.get(), metrics_out, trace_out);
    return 0;
}
