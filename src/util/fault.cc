#include "util/fault.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace specinfer {
namespace util {

namespace detail {
FaultInjector *g_fault_injector = nullptr;
} // namespace detail

const char *
faultPointName(FaultPoint point)
{
    switch (point) {
      case FaultPoint::SsmStep:
        return "ssm-step";
      case FaultPoint::Verify:
        return "verify";
      case FaultPoint::KvAlloc:
        return "kv-alloc";
      case FaultPoint::SlowIteration:
        return "slow-iteration";
      case FaultPoint::Crash:
        return "crash";
      case FaultPoint::IpcSend:
        return "ipc-send";
      case FaultPoint::IpcRecv:
        return "ipc-recv";
      case FaultPoint::ClientReap:
        return "client-reap";
      case FaultPoint::Hang:
        return "hang";
      case FaultPoint::Wedge:
        return "wedge";
    }
    return "unknown";
}

FaultInjector::FaultInjector(uint64_t seed) : seed_(seed), rng_(seed)
{
}

void
FaultInjector::setProbability(FaultPoint point, double probability)
{
    SPECINFER_CHECK(probability >= 0.0 && probability <= 1.0,
                    "fault probability must be in [0, 1], got "
                        << probability);
    std::lock_guard<std::mutex> lock(mu_);
    probability_[static_cast<size_t>(point)] = probability;
}

double
FaultInjector::probability(FaultPoint point) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return probability_[static_cast<size_t>(point)];
}

void
FaultInjector::armAt(FaultPoint point, uint64_t occurrence)
{
    SPECINFER_CHECK(occurrence > 0,
                    "armed occurrences are 1-based");
    std::lock_guard<std::mutex> lock(mu_);
    armed_[static_cast<size_t>(point)].push_back(occurrence);
}

bool
FaultInjector::fire(FaultPoint point)
{
    const size_t p = static_cast<size_t>(point);
    // The occurrence number is claimed atomically, so concurrent
    // consultations from ThreadPool workers each get a distinct
    // index and armed one-shots fire exactly once.
    const uint64_t occurrence =
        occurrences_[p].fetch_add(1, std::memory_order_relaxed) + 1;
    bool fires = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Armed one-shots fire regardless of the probability and do
        // not consume an RNG draw, so surgical schedules replay
        // exactly.
        std::vector<uint64_t> &armed = armed_[p];
        auto hit = std::find(armed.begin(), armed.end(), occurrence);
        if (hit != armed.end()) {
            armed.erase(hit);
            fires = true;
        } else if (probability_[p] > 0.0) {
            fires = rng_.uniform() < probability_[p];
        }
    }
    if (fires)
        fired_[p].fetch_add(1, std::memory_order_relaxed);
    return fires;
}

namespace {

/** Stateless uniform in [0, 1) from (seed, point, key): splitmix64
 *  finalizer over the mixed inputs. No stream, no memory — the same
 *  triple always yields the same draw. */
double
keyedUniform(uint64_t seed, size_t point, uint64_t key)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (key + 1) +
                 0x632be59bd9b4e019ULL * (point + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
}

} // namespace

bool
FaultInjector::fireKeyed(FaultPoint point, uint64_t key)
{
    const size_t p = static_cast<size_t>(point);
    const uint64_t occurrence =
        occurrences_[p].fetch_add(1, std::memory_order_relaxed) + 1;
    bool fires = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<uint64_t> &armed = armed_[p];
        auto hit = std::find(armed.begin(), armed.end(), occurrence);
        if (hit != armed.end()) {
            armed.erase(hit);
            fires = true;
        } else if (probability_[p] > 0.0) {
            // Pure hash, never the shared RNG stream: the decision
            // depends only on (seed, point, key), so re-consulting
            // when a recovered process re-runs a lost iteration
            // repeats the answer and never shifts another point's
            // schedule.
            fires = keyedUniform(seed_, p, key) < probability_[p];
        }
    }
    if (fires)
        fired_[p].fetch_add(1, std::memory_order_relaxed);
    return fires;
}

uint64_t
FaultInjector::occurrences(FaultPoint point) const
{
    return occurrences_[static_cast<size_t>(point)].load(
        std::memory_order_relaxed);
}

uint64_t
FaultInjector::fired(FaultPoint point) const
{
    return fired_[static_cast<size_t>(point)].load(
        std::memory_order_relaxed);
}

uint64_t
FaultInjector::totalFired() const
{
    uint64_t total = 0;
    for (size_t p = 0; p < kFaultPointCount; ++p)
        total += fired_[p].load(std::memory_order_relaxed);
    return total;
}

std::string
FaultInjector::reproLine() const
{
    std::ostringstream oss;
    oss << "fault repro: seed=" << seed_;
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t p = 0; p < kFaultPointCount; ++p) {
        if (probability_[p] > 0.0)
            oss << " p(" << faultPointName(static_cast<FaultPoint>(p))
                << ")=" << probability_[p];
    }
    return oss.str();
}

FaultInjector *
setFaultInjector(FaultInjector *injector)
{
    FaultInjector *previous = detail::g_fault_injector;
    detail::g_fault_injector = injector;
    return previous;
}

} // namespace util
} // namespace specinfer
