/**
 * @file
 * Offline re-drive of a serving journal through a fresh
 * RequestManager, checking token-identical reproduction: the
 * `diffcheck --replay-journal` oracle for live daemon incidents.
 */

#ifndef SPECINFER_VERIFY_JOURNAL_REPLAY_H
#define SPECINFER_VERIFY_JOURNAL_REPLAY_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "core/spec_engine.h"
#include "runtime/request_manager.h"

namespace specinfer {
namespace verify {

/** Outcome of replaying one journal. */
struct JournalReplayResult
{
    bool ok = false;
    size_t submits = 0;         ///< journaled requests re-driven
    size_t finishesChecked = 0; ///< journaled results compared
    size_t mismatches = 0;
    uint64_t validBytes = 0;    ///< committed journal prefix
    bool tornTail = false;      ///< journal ended in a torn frame
};

/**
 * The recorded truth is what a fresh manager rebuilds from the whole
 * journal, read from byte 0 with no snapshot: every finished result
 * with its tokens and stop reason. The oracle re-submits each
 * journaled request at its arrival iteration through a second fresh
 * manager, drains it, and compares per request: exact equality for
 * normal finishes, recorded-is-a-prefix for aborted ones (a cancel,
 * deadline or shed cuts at a timing-dependent point). Deadlines and
 * cancels are not re-applied.
 *
 * @param journal Journal stream positioned at its first record.
 * @param engine, serving The identity the journal was served with
 *        (the caller rebuilds it; a journal carries none).
 * @param log Human-readable summary and mismatch report.
 */
JournalReplayResult replayJournal(std::istream &journal,
                                  const core::SpecEngine &engine,
                                  const runtime::ServingConfig &serving,
                                  std::ostream &log,
                                  bool verbose = false);

} // namespace verify
} // namespace specinfer

#endif // SPECINFER_VERIFY_JOURNAL_REPLAY_H
