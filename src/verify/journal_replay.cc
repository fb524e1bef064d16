#include "verify/journal_replay.h"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <vector>

#include "runtime/journal.h"

namespace specinfer {
namespace verify {

namespace {

bool
abortedReason(core::SpecSession::StopReason stop)
{
    using SR = core::SpecSession::StopReason;
    switch (stop) {
      case SR::Deadline:
      case SR::Cancelled:
      case SR::Preempted:
      case SR::Shed:
        return true;
      default:
        return false;
    }
}

} // namespace

JournalReplayResult
replayJournal(std::istream &journal, const core::SpecEngine &engine,
              const runtime::ServingConfig &serving, std::ostream &log,
              bool verbose)
{
    JournalReplayResult result;

    // The request stream: every accepted submit, in order.
    const std::streampos start = journal.tellg();
    std::vector<runtime::JournalRecord> submits;
    {
        runtime::JournalReader reader(journal);
        runtime::JournalRecord rec;
        while (reader.next(rec))
            if (rec.type == runtime::RecordType::Submit)
                submits.push_back(rec);
        result.tornTail = reader.tornTail();
    }
    journal.clear();
    journal.seekg(start);

    // The recorded truth: what the journal itself rebuilds.
    runtime::RequestManager truth(&engine, serving);
    result.validBytes = truth.recover(nullptr, &journal);

    // The oracle: the same submits at the same iterations, run to
    // completion with no deadline, queue bound or preemption limit
    // that could cut them short.
    runtime::ServingConfig oracle_cfg = serving;
    oracle_cfg.defaultDeadlineIterations = 0;
    oracle_cfg.defaultWallDeadlineNanos = 0;
    oracle_cfg.maxPendingRequests = 0;
    oracle_cfg.maxPreemptions = 0;
    runtime::RequestManager oracle(&engine, oracle_cfg);
    for (const runtime::JournalRecord &sub : submits) {
        while (oracle.stats().iterations < sub.arrivalIteration)
            oracle.runIteration();
        runtime::SubmitResult res = oracle.submit(
            sub.prompt, static_cast<size_t>(sub.maxNewTokens), 0,
            static_cast<runtime::Priority>(sub.priority));
        ++result.submits;
        if (!res.accepted() || res.id != sub.id) {
            ++result.mismatches;
            log << "replay: submit for journaled id " << sub.id
                << " got " << (res.accepted() ? "id" : "rejected")
                << " " << res.id << "\n";
        }
    }
    oracle.runUntilDrained();

    std::map<uint64_t, const runtime::RequestResult *> replayed;
    for (const runtime::RequestResult &res : oracle.finished())
        replayed[res.id] = &res;

    for (const runtime::RequestResult &want : truth.finished()) {
        ++result.finishesChecked;
        auto it = replayed.find(want.id);
        if (it == replayed.end()) {
            ++result.mismatches;
            log << "replay: journaled id " << want.id
                << " never finished in replay\n";
            continue;
        }
        const std::vector<int> &got = it->second->tokens;
        const bool aborted = abortedReason(want.stopReason);
        const bool match =
            aborted ? want.tokens.size() <= got.size() &&
                          std::equal(want.tokens.begin(),
                                     want.tokens.end(), got.begin())
                    : want.tokens == got;
        if (!match) {
            ++result.mismatches;
            log << "replay: id " << want.id << " diverged ("
                << (aborted ? "prefix" : "exact") << " check, "
                << want.tokens.size() << " journaled vs "
                << got.size() << " replayed tokens)\n";
        } else if (verbose) {
            log << "replay: id " << want.id << " ok ("
                << want.tokens.size() << " tokens"
                << (aborted ? ", aborted prefix" : "") << ")\n";
        }
    }

    result.ok = result.mismatches == 0;
    log << "replay: " << result.validBytes << " valid journal bytes, "
        << result.submits << " requests, " << result.finishesChecked
        << " results checked, " << result.mismatches << " mismatches"
        << (result.tornTail ? " (torn tail tolerated)" : "") << "\n";
    return result;
}

} // namespace verify
} // namespace specinfer
