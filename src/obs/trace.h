/**
 * @file
 * Per-request tracer producing Chrome trace_event JSON.
 *
 * The serving layers record *complete* spans (phase "X": a name, a
 * track, a start timestamp and a duration) and *instant* annotations
 * (phase "i": fallback, preemption, crash, recovery) against an
 * injectable Clock. Tracks map to Chrome's thread lanes: track 0 is
 * the scheduler, track N is request id N — so loading the file in
 * about:tracing or Perfetto shows one swimlane per request with its
 * queue -> prefill -> speculate -> decode -> verify lifecycle.
 *
 * Events are kept in memory in append order and serialized by
 * writeChromeTrace() with fixed formatting, so a workload driven by
 * a ManualClock produces byte-stable output (the golden-trace test's
 * contract). Appends are mutex-guarded — tracing is off the decode
 * hot path (a handful of events per scheduling iteration), so a
 * plain lock is cheaper than it looks and keeps the buffer sane if
 * instrumented layers ever trace from pool workers.
 */

#ifndef SPECINFER_OBS_TRACE_H
#define SPECINFER_OBS_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

#include "obs/clock.h"

namespace specinfer {
namespace obs {

/** One integer-valued span/event argument (shown by Perfetto). */
struct TraceArg
{
    const char *key;
    int64_t value;
};

/** One recorded trace event. */
struct TraceEvent
{
    std::string name;
    const char *category = "";
    char phase = 'X';   ///< 'X' complete span, 'i' instant
    uint64_t track = 0; ///< Chrome tid: 0 = scheduler, else request id
    uint64_t startNanos = 0;
    uint64_t durNanos = 0; ///< spans only
    std::vector<std::pair<std::string, int64_t>> args;
};

/**
 * Span/annotation recorder. When constructed disabled, every record
 * call returns immediately (and nowNanos() still works, so call
 * sites can time unconditionally while recording conditionally).
 */
class Tracer
{
  public:
    /**
     * @param clock Time source (non-owning; must outlive the
     *        tracer). May be null only when disabled.
     * @param enabled Record events; false = drop everything.
     */
    Tracer(const Clock *clock, bool enabled);

    bool enabled() const { return enabled_; }

    /** Clock passthrough; 0 when constructed without a clock. */
    uint64_t nowNanos() const
    {
        return clock_ != nullptr ? clock_->nowNanos() : 0;
    }

    /** Record a complete span [start_ns, end_ns) on a track. */
    void span(uint64_t track, const char *category,
              const std::string &name, uint64_t start_ns,
              uint64_t end_ns,
              std::initializer_list<TraceArg> args = {});

    /** Record an instant annotation at ts_ns on a track. */
    void instant(uint64_t track, const char *category,
                 const std::string &name, uint64_t ts_ns,
                 std::initializer_list<TraceArg> args = {});

    /** The event span() records, built without recording it. */
    static TraceEvent spanEvent(uint64_t track, const char *category,
                                const std::string &name,
                                uint64_t start_ns, uint64_t end_ns,
                                std::initializer_list<TraceArg> args =
                                    {});

    /** The event instant() records, built without recording it. */
    static TraceEvent instantEvent(uint64_t track,
                                   const char *category,
                                   const std::string &name,
                                   uint64_t ts_ns,
                                   std::initializer_list<TraceArg>
                                       args = {});

    /**
     * Append a prebuilt event (no-op when disabled). Layers that
     * build events on several threads buffer them and record them
     * from one thread, so the append order stays deterministic.
     */
    void record(TraceEvent event);

    size_t eventCount() const;

    /** Copy of the recorded events, in append order. */
    std::vector<TraceEvent> events() const;

    /** Drop all recorded events. */
    void clear();

    /**
     * Serialize as Chrome trace_event JSON (the "JSON Array Format"
     * with a traceEvents wrapper), loadable in about:tracing and
     * Perfetto. Timestamps are microseconds with nanosecond
     * fractions; output is byte-stable for a fixed event list.
     */
    void writeChromeTrace(std::ostream &out) const;

  private:
    const Clock *clock_;
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
};

} // namespace obs
} // namespace specinfer

#endif // SPECINFER_OBS_TRACE_H
