#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "util/logging.h"

namespace specinfer {
namespace obs {

namespace {

/** Escape a string for JSON string context. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Nanoseconds as fixed-point microseconds ("12.345"): Chrome's ts
 *  unit with no floating-point formatting variability. */
std::string
microsFixed(uint64_t nanos)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf),
                  "%" PRIu64 ".%03" PRIu64, nanos / 1000,
                  nanos % 1000);
    return buf;
}

} // namespace

Tracer::Tracer(const Clock *clock, bool enabled)
    : clock_(clock), enabled_(enabled)
{
    SPECINFER_CHECK(!enabled_ || clock_ != nullptr,
                    "an enabled tracer needs a clock");
}

void
Tracer::record(TraceEvent event)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

TraceEvent
Tracer::spanEvent(uint64_t track, const char *category,
                  const std::string &name, uint64_t start_ns,
                  uint64_t end_ns, std::initializer_list<TraceArg> args)
{
    TraceEvent ev = instantEvent(track, category, name, start_ns, args);
    ev.phase = 'X';
    ev.durNanos = end_ns >= start_ns ? end_ns - start_ns : 0;
    return ev;
}

TraceEvent
Tracer::instantEvent(uint64_t track, const char *category,
                     const std::string &name, uint64_t ts_ns,
                     std::initializer_list<TraceArg> args)
{
    TraceEvent ev;
    ev.name = name;
    ev.category = category;
    ev.phase = 'i';
    ev.track = track;
    ev.startNanos = ts_ns;
    for (const TraceArg &a : args)
        ev.args.emplace_back(a.key, a.value);
    return ev;
}

void
Tracer::span(uint64_t track, const char *category,
             const std::string &name, uint64_t start_ns,
             uint64_t end_ns, std::initializer_list<TraceArg> args)
{
    if (enabled_)
        record(spanEvent(track, category, name, start_ns, end_ns, args));
}

void
Tracer::instant(uint64_t track, const char *category,
                const std::string &name, uint64_t ts_ns,
                std::initializer_list<TraceArg> args)
{
    if (enabled_)
        record(instantEvent(track, category, name, ts_ns, args));
}

size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
}

void
Tracer::writeChromeTrace(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    out << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < events_.size(); ++i) {
        const TraceEvent &ev = events_[i];
        out << "{\"name\":\"" << jsonEscape(ev.name) << "\""
            << ",\"cat\":\"" << jsonEscape(ev.category) << "\""
            << ",\"ph\":\"" << ev.phase << "\""
            << ",\"pid\":1"
            << ",\"tid\":" << ev.track
            << ",\"ts\":" << microsFixed(ev.startNanos);
        if (ev.phase == 'X')
            out << ",\"dur\":" << microsFixed(ev.durNanos);
        if (ev.phase == 'i')
            out << ",\"s\":\"t\""; // thread-scoped instant
        if (!ev.args.empty()) {
            out << ",\"args\":{";
            for (size_t a = 0; a < ev.args.size(); ++a) {
                if (a > 0)
                    out << ",";
                out << "\"" << jsonEscape(ev.args[a].first)
                    << "\":" << ev.args[a].second;
            }
            out << "}";
        }
        out << "}" << (i + 1 < events_.size() ? "," : "") << "\n";
    }
    // Name the lanes: pid 1 = the serving pipeline, tid 0 = the
    // scheduler track (request tracks keep their numeric id).
    out << (events_.empty() ? "" : ",")
        << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":0,\"args\":{\"name\":\"specinfer\"}},\n"
        << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":0,\"args\":{\"name\":\"scheduler\"}}\n"
        << "],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace obs
} // namespace specinfer
