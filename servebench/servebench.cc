/**
 * @file
 * servebench — end-to-end serving benchmark for the CPU engine.
 *
 * Drives the real engine through its public entry points in three
 * workloads (see NOTES.md for why each exists):
 *
 *   solo    one closed-loop caller, batch size 1, short unshared
 *           prompts, in-process RequestManager;
 *   batch   eight requests always outstanding (closed loop),
 *           per-tenant system prompts, KV pool + prefix sharing;
 *   daemon  one closed-loop client of a spawned specinferd (journal
 *           on) over one ipc::Client connection, long unshared
 *           prompts.
 *
 * Untraced runs (--trace 0) print the end-to-end metrics. Traced
 * runs (--trace 1) measure an untraced half and a traced half and
 * print the per-layer ledger: the benchmark's own spans around each
 * runIteration call plus the counters and spans the program already
 * emits through an attached obs::ObsContext.
 *
 * After the timed window every request is re-decoded by the
 * incremental engine (no SSMs) and compared token for token; a
 * mismatch or a missing token fails the run (exit code 1).
 *
 * The last stdout line is one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 *
 * Usage:
 *   servebench --workload solo|batch|daemon --seed N --seconds S
 *              --trace 0|1 --daemon-bin PATH --work-dir DIR
 *              [--corrupt-token 1]   flip one output token before
 *                                    the oracle (negative control)
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/spec_engine.h"
#include "ipc/client.h"
#include "model/model_factory.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "runtime/request_manager.h"
#include "util/rng.h"
#include "util/threadpool.h"
#include "workload/datasets.h"

namespace {

using namespace specinfer;

// --- Fixed benchmark parameters ------------------------------------

/** Engine pool size, pinned to the reference host's default
 *  (nproc = 4) and echoed in the output. A one-thread pool would
 *  hide the fork-join cost that dominates decode on this engine. */
constexpr size_t kPoolThreads = 4;
constexpr const char *kLlm = "llama-7b-sim";
constexpr size_t kSsmLayers = 2;

/** Constructions timed per run; setup_s is their median. */
constexpr size_t kSetupRepeats = 31;
constexpr size_t kDaemonSetupRepeats = 11;

/** Prompts per run for core.spec_speedup (traced runs only). */
constexpr size_t kSpeedupPrompts = 12;

/** Daemon client poll cadence: fine enough to time tokens, coarse
 *  enough that the generator barely competes with the daemon's
 *  pool for the 4 vCPUs. */
constexpr uint64_t kPollSleepNanos = 500000;

/** Upper bound on draining a run after its window closes. */
constexpr double kDrainLimitSeconds = 60.0;

/** One workload's fixed shape. */
struct WorkloadSpec
{
    const char *name;
    size_t genTokens;      ///< fixed generation length per request
    size_t concurrency;    ///< closed loop: requests outstanding
    size_t maxBatchSize;
    size_t kvPoolBlocks;   ///< 0 = no pool
    bool prefixSharing;
    /** SLO limits: a request meets its SLO when both hold. */
    double ttftLimitMs;
    double tpotLimitMs;
};

const WorkloadSpec kSolo = {"solo", 32, 1, 1, 0, false, 40.0, 12.0};
const WorkloadSpec kBatch = {"batch", 32, 8, 8, 512, true, 500.0, 100.0};
/** One client keeping one request outstanding through the daemon.
 *  An open loop at low load measured how fast the host wakes an idle
 *  guest instead: TTFT p50 moved from 24 to 35 to 44 ms between runs
 *  of the same code within 35 minutes. Back-to-back requests keep the
 *  pool's vCPUs awake, as in the in-process loops. */
const WorkloadSpec kDaemon = {"daemon", 16, 1, 1, 0, false, 60.0, 15.0};

// --- Small helpers -------------------------------------------------

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
sleepNs(uint64_t ns)
{
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

/** Linear-interpolated quantile (numpy's default); 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Aggregate steal and total jiffies from /proc/stat. */
struct CpuJiffies
{
    double steal = 0.0;
    double total = 0.0;
};

CpuJiffies
readCpuJiffies()
{
    CpuJiffies j;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    for (int field = 0; field < 10; ++field) {
        double v = 0.0;
        if (!(in >> v))
            break;
        // user nice system idle iowait irq softirq steal guest
        // guest_nice; guest time is already inside user.
        if (field < 8)
            j.total += v;
        if (field == 7)
            j.steal = v;
    }
    return j;
}

/** CPU seconds used by a process, all threads (0 = this process).
 *  Read from the process CPU-time clock, which the scheduler keeps in
 *  nanoseconds; the tick-sampled utime/stime in /proc/<pid>/stat
 *  mis-charge a daemon that sleeps 1 ms per tick. */
double
cpuSeconds(pid_t pid)
{
    clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
    if (pid != 0 && clock_getcpuclockid(pid, &clock) != 0)
        return 0.0;
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Restart this process's VmHWM from its current RSS, so the peak
 *  covers the timed window and not the set-up before it. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set (VmHWM) of a process in MB (0 = self). */
double
peakRssMb(pid_t pid)
{
    std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) +
                                    "/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            in >> kb;
            return kb / 1024.0;
        }
        std::string rest;
        std::getline(in, rest);
    }
    return 0.0;
}

// --- Metric report ---------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }

    std::string json(bool correct, size_t attempted,
                     size_t failed) const
    {
        std::ostringstream out;
        out.precision(12);
        out << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
        for (size_t i = 0; i < metrics_.size(); ++i) {
            const double v =
                std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                 : 0.0;
            out << (i > 0 ? ", " : "") << "\"" << metrics_[i].name
                << "\": {\"value\": " << v << ", \"unit\": \""
                << metrics_[i].unit << "\"}";
        }
        out << "}}";
        return out.str();
    }

  private:
    std::vector<Metric> metrics_;
};

// --- Options ---------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string daemonBin;
    std::string workDir;
    bool corruptToken = false;
};

bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            o.seconds = std::atof(val.c_str());
        else if (key == "--trace")
            o.trace = val == "1";
        else if (key == "--daemon-bin")
            o.daemonBin = val;
        else if (key == "--work-dir")
            o.workDir = val;
        else if (key == "--corrupt-token")
            o.corruptToken = val == "1";
        else
            return false;
    }
    return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

// --- Requests and run phases -------------------------------------------

/** One request as the caller saw it. */
struct Sample
{
    std::vector<int> prompt;
    size_t maxNew = 0;
    uint64_t dueNs = 0;   ///< when the request was due to be sent
    uint64_t firstNs = 0; ///< first token visible to the caller
    uint64_t lastNs = 0;  ///< last token visible to the caller
    std::vector<int> tokens;
    std::vector<double> stepGapsMs; ///< gaps between token arrivals
    bool finished = false;
};

/** Everything one measured phase (untraced or traced) produced. */
struct Phase
{
    std::vector<Sample> samples;
    uint64_t startNs = 0;
    uint64_t windowEndNs = 0;   ///< throughput window end
    CpuJiffies jiffiesStart, jiffiesEnd; ///< host CPU over the window
    size_t windowTokens = 0;    ///< tokens visible by windowEndNs
    double cpuSec = 0.0;        ///< serving-process CPU over window
    double peakRssMb = 0.0;
    std::vector<double> pollUs;   ///< daemon: client poll() cost
    double kvUsedPeak = 0.0;
    uint64_t poolJobs = 0;
    double batchSizeMean = 0.0;
    size_t preemptions = 0;
};

size_t
totalTokens(const Phase &p)
{
    size_t n = 0;
    for (const Sample &s : p.samples)
        n += s.tokens.size();
    return n;
}

double
windowSeconds(const Phase &p)
{
    return static_cast<double>(p.windowEndNs - p.startNs) * 1e-9;
}

std::vector<double>
ttftMs(const Phase &p)
{
    std::vector<double> v;
    for (const Sample &s : p.samples)
        if (s.firstNs != 0)
            v.push_back(static_cast<double>(s.firstNs - s.dueNs) * 1e-6);
    return v;
}

/** Time per output token after the first, one sample per request. */
std::vector<double>
tpotMs(const Phase &p)
{
    std::vector<double> v;
    for (const Sample &s : p.samples)
        if (s.finished && s.tokens.size() > 1)
            v.push_back(static_cast<double>(s.lastNs - s.firstNs) *
                        1e-6 /
                        static_cast<double>(s.tokens.size() - 1));
    return v;
}

// --- Prompts -------------------------------------------------------------

/** Request i of a run: prompt index space disjoint per seed. */
size_t
promptIndex(uint64_t seed, size_t i)
{
    return static_cast<size_t>(seed) * 1000003u + i;
}

std::function<std::vector<int>(size_t)>
promptSource(const WorkloadSpec &spec, size_t vocab)
{
    if (std::strcmp(spec.name, "batch") == 0) {
        // Per-tenant 64-token system prompts (block-aligned to the
        // 16-token KV blocks), short user turns.
        auto ds = std::make_shared<workload::SharedPrefixDataset>(
            workload::SharedPrefixDataset::chat(vocab, 4, 64));
        return [ds](size_t i) { return ds->prompt(i); };
    }
    if (std::strcmp(spec.name, "daemon") == 0) {
        // Long unshared RAG-style prompts: prefill dominates TTFT.
        auto ds = std::make_shared<workload::PromptDataset>(
            "RAG-long", vocab, 128.0, 16.0, 1.0);
        return [ds](size_t i) { return ds->prompt(i); };
    }
    auto ds = std::make_shared<workload::PromptDataset>(
        workload::PromptDataset::named("Alpaca", vocab));
    return [ds](size_t i) { return ds->prompt(i); };
}

// --- In-process engine stack ----------------------------------------------

core::EngineConfig
engineConfig(const WorkloadSpec &spec, bool speculative,
             obs::ObsContext *ctx)
{
    core::EngineConfig cfg = core::EngineConfig::greedyDefault();
    if (!speculative)
        cfg.spec.expansion = core::ExpansionConfig::none();
    cfg.maxNewTokens = spec.genTokens;
    cfg.stopAtEos = false;
    cfg.obs = ctx;
    return cfg;
}

runtime::ServingConfig
servingConfig(const WorkloadSpec &spec, obs::ObsContext *ctx)
{
    runtime::ServingConfig cfg;
    cfg.maxBatchSize = spec.maxBatchSize;
    cfg.kvPoolBlocks = spec.kvPoolBlocks;
    cfg.kvPrefixSharing = spec.prefixSharing;
    cfg.obs = ctx;
    return cfg;
}

/** Models, engine and manager for one in-process phase. */
struct Stack
{
    model::Transformer llm;
    model::Transformer ssm;
    core::SpecEngine engine;
    runtime::RequestManager manager;

    Stack(const WorkloadSpec &spec, obs::ObsContext *ctx)
        : llm(model::makeLlm(model::llmPreset(kLlm))),
          ssm(model::makeEarlyExitSsm(llm, kSsmLayers)),
          engine(&llm, {&ssm}, engineConfig(spec, true, ctx)),
          manager(&engine, servingConfig(spec, ctx))
    {
    }
};

/** Median wall time of several full stack constructions. */
double
inProcessSetupSeconds(const WorkloadSpec &spec)
{
    std::vector<double> secs;
    for (size_t i = 0; i < kSetupRepeats; ++i) {
        const uint64_t t0 = nowNs();
        auto stack = std::make_unique<Stack>(spec, nullptr);
        secs.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    return quantile(secs, 0.5);
}

/**
 * Closed loop against an in-process manager: keep
 * spec.concurrency requests outstanding until the window closes,
 * then drain. Tokens become visible to the caller when the
 * runIteration that produced them returns. With a tracer, each
 * runIteration call is recorded as a "bench"/"run_iteration" span.
 */
Phase
runClosedLoop(Stack &stack, const WorkloadSpec &spec, uint64_t seed,
              size_t first_request, double seconds, obs::Tracer *tr)
{
    runtime::RequestManager &mgr = stack.manager;
    const auto prompts = promptSource(spec, stack.llm.config().vocabSize);
    Phase phase;
    std::unordered_map<uint64_t, size_t> slot; // request id -> sample
    std::vector<size_t> touched; // samples that got tokens
    size_t visible_tokens = 0;
    mgr.setStepObserver([&](uint64_t id, size_t,
                            const std::vector<int> &tokens) {
        touched.push_back(slot.at(id));
        visible_tokens += tokens.size();
    });

    const uint64_t pool_jobs0 =
        util::ThreadPool::global().jobsDispatched();
    resetPeakRss();
    const double cpu0 = cpuSeconds(0);
    phase.jiffiesStart = readCpuJiffies();
    phase.startNs = nowNs();
    const uint64_t deadline =
        phase.startNs + static_cast<uint64_t>(seconds * 1e9);
    const uint64_t drain_limit =
        deadline + static_cast<uint64_t>(kDrainLimitSeconds * 1e9);
    size_t outstanding = 0;
    bool window_open = true;
    while (true) {
        const uint64_t now = nowNs();
        if (window_open) {
            while (outstanding < spec.concurrency) {
                Sample s;
                s.prompt = prompts(promptIndex(
                    seed, first_request + phase.samples.size()));
                s.maxNew = spec.genTokens;
                s.dueNs = nowNs();
                const runtime::SubmitResult r =
                    mgr.submit(s.prompt, s.maxNew);
                slot[r.id] = phase.samples.size();
                phase.samples.push_back(std::move(s));
                if (!r.accepted())
                    break; // counted as failed: never finishes
                ++outstanding;
            }
        }
        if (!mgr.busy() || now > drain_limit)
            break;
        touched.clear();
        const uint64_t t0 = nowNs();
        mgr.runIteration();
        const uint64_t t1 = nowNs();
        if (tr != nullptr)
            tr->span(0, "bench", "run_iteration", t0, t1);
        for (size_t idx : touched) {
            Sample &s = phase.samples[idx];
            if (s.firstNs == 0)
                s.firstNs = t1;
            else
                s.stepGapsMs.push_back(
                    static_cast<double>(t1 - s.lastNs) * 1e-6);
            s.lastNs = t1;
        }
        for (runtime::RequestResult &r : mgr.takeFinished()) {
            Sample &s = phase.samples[slot.at(r.id)];
            s.tokens = std::move(r.tokens);
            s.finished = true;
            --outstanding;
        }
        if (const runtime::KvBlockAllocator *kv = mgr.kvPool())
            phase.kvUsedPeak = std::max(
                phase.kvUsedPeak,
                ratio(static_cast<double>(kv->usedBlocks()),
                      static_cast<double>(kv->totalBlocks())));
        if (window_open && t1 >= deadline) {
            window_open = false;
            phase.windowEndNs = t1;
            phase.windowTokens = visible_tokens;
            phase.cpuSec = cpuSeconds(0) - cpu0;
            phase.jiffiesEnd = readCpuJiffies();
            phase.peakRssMb = peakRssMb(0);
        }
    }
    mgr.setStepObserver(nullptr);
    phase.poolJobs =
        util::ThreadPool::global().jobsDispatched() - pool_jobs0;
    phase.batchSizeMean = mgr.stats().avgBatchSize();
    phase.preemptions = mgr.stats().preemptions;
    return phase;
}

// --- specinferd child process ----------------------------------------------

/**
 * A spawned specinferd. Its stdout is a pipe the benchmark reads to
 * learn when the board is up; stderr goes to a log file in the work
 * directory. The destructor SIGKILLs and reaps a child that was not
 * stopped cleanly, so no run leaves a daemon behind.
 */
class DaemonProcess
{
  public:
    DaemonProcess() = default;
    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    ~DaemonProcess()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        if (out_ >= 0)
            ::close(out_);
    }

    pid_t pid() const { return pid_; }

    bool start(const std::string &bin,
               const std::vector<std::string> &args,
               const std::string &log_path)
    {
        std::vector<std::string> argv_store = {bin};
        argv_store.insert(argv_store.end(), args.begin(), args.end());
        std::vector<char *> argv;
        for (std::string &a : argv_store)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        int fds[2];
        if (::pipe(fds) != 0)
            return false;
        const int log_fd =
            ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        pid_ = ::fork();
        if (pid_ == 0) {
            ::dup2(fds[1], STDOUT_FILENO);
            if (log_fd >= 0)
                ::dup2(log_fd, STDERR_FILENO);
            ::close(fds[0]);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        ::close(fds[1]);
        if (log_fd >= 0)
            ::close(log_fd);
        out_ = fds[0];
        return pid_ > 0;
    }

    /** Block until the daemon prints its "serving" line. */
    bool waitReady(double timeout_s)
    {
        const uint64_t limit =
            nowNs() + static_cast<uint64_t>(timeout_s * 1e9);
        std::string seen;
        char buf[256];
        while (nowNs() < limit) {
            const ssize_t n = ::read(out_, buf, sizeof(buf));
            if (n <= 0)
                return false;
            seen.append(buf, static_cast<size_t>(n));
            if (seen.find("serving in") != std::string::npos)
                return true;
        }
        return false;
    }

    /** SIGTERM (graceful drain) and reap; SIGKILL after timeout. */
    bool stop(double timeout_s)
    {
        if (pid_ <= 0)
            return true;
        ::kill(pid_, SIGTERM);
        const uint64_t limit =
            nowNs() + static_cast<uint64_t>(timeout_s * 1e9);
        int status = 0;
        char buf[4096];
        while (nowNs() < limit) {
            // Keep the stdout pipe drained so the drain messages
            // never block the child.
            const int flags = ::fcntl(out_, F_GETFL);
            ::fcntl(out_, F_SETFL, flags | O_NONBLOCK);
            while (::read(out_, buf, sizeof(buf)) > 0) {
            }
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = 0;
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            sleepNs(1000000);
        }
        return false; // destructor kills
    }

  private:
    pid_t pid_ = 0;
    int out_ = -1;
};

struct DaemonPaths
{
    std::string bin;
    std::string dir;     ///< work directory for this run
    std::string ipcDir;
};

std::vector<std::string>
daemonArgs(const WorkloadSpec &spec, const DaemonPaths &paths,
           const std::string &tag, bool traced)
{
    std::vector<std::string> args = {
        "--llm", kLlm,
        "--ssm-layers", std::to_string(kSsmLayers),
        "--batch", std::to_string(spec.maxBatchSize),
        "--max-tokens", std::to_string(spec.genTokens),
        "--dir", paths.ipcDir,
        "--journal", paths.dir + "/" + tag + ".journal"};
    if (traced) {
        args.insert(args.end(),
                    {"--metrics-out", paths.dir + "/" + tag + ".prom",
                     "--trace-out", paths.dir + "/" + tag + ".trace"});
    }
    return args;
}

ipc::ClientConfig
clientConfig(const DaemonPaths &paths, obs::ObsContext *ctx)
{
    ipc::ClientConfig cfg;
    cfg.dir = paths.ipcDir;
    cfg.backoffUnitMicros = 0; // the generator paces itself
    cfg.heartbeatEveryPolls = 50;
    cfg.stallPollLimit = 100000; // iterations can outlast 256 polls
    cfg.quietPollLimit = 0;      // long prefills are not revocations
    cfg.obs = ctx;
    return cfg;
}

/** Spawn and connect; false when the daemon never came up. */
bool
spawnConnected(DaemonProcess &proc, ipc::Client &client,
               const std::vector<std::string> &args,
               const DaemonPaths &paths)
{
    if (!proc.start(paths.bin, args, paths.dir + "/daemon.log") ||
        !proc.waitReady(30.0) ||
        client.connect() != ipc::ClientStatus::Pending)
        return false;
    const uint64_t limit = nowNs() + 30000000000ull;
    while (!client.connected() && nowNs() < limit) {
        client.poll();
        sleepNs(50000);
    }
    return client.connected();
}

/** Median of several spawn-to-connected-client times. */
double
daemonSetupSeconds(const WorkloadSpec &spec, const DaemonPaths &paths)
{
    std::vector<double> secs;
    for (size_t i = 0; i < kDaemonSetupRepeats; ++i) {
        DaemonProcess proc;
        ipc::Client client(clientConfig(paths, nullptr));
        const uint64_t t0 = nowNs();
        const std::string tag = "setup" + std::to_string(i);
        if (!spawnConnected(proc, client,
                            daemonArgs(spec, paths, tag, false), paths))
            return 0.0;
        secs.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        client.disconnect();
        proc.stop(10.0);
    }
    return quantile(secs, 0.5);
}

/**
 * Closed loop through a spawned daemon: keep spec.concurrency
 * requests outstanding until the window closes, then drain. One
 * single-threaded generator submits and polls the client; tokens are
 * timed when a poll sees them.
 */
Phase
runDaemonLoop(const WorkloadSpec &spec, const DaemonPaths &paths,
              uint64_t seed, size_t first_request, double seconds,
              const std::string &tag, obs::ObsContext *ctx, bool *ok)
{
    Phase phase;
    *ok = false;
    DaemonProcess proc;
    ipc::Client client(clientConfig(paths, ctx));
    if (!spawnConnected(proc, client,
                        daemonArgs(spec, paths, tag, ctx != nullptr),
                        paths))
        return phase;
    const auto prompts =
        promptSource(spec, model::llmPreset(kLlm).vocabSize);

    std::vector<uint64_t> tags;
    std::vector<size_t> open; // sample indices still streaming
    size_t visible_tokens = 0;
    const double cpu0 = cpuSeconds(proc.pid());
    phase.jiffiesStart = readCpuJiffies();
    phase.startNs = nowNs();
    const uint64_t deadline =
        phase.startNs + static_cast<uint64_t>(seconds * 1e9);
    const uint64_t limit =
        deadline + static_cast<uint64_t>(kDrainLimitSeconds * 1e9);
    bool window_open = true;
    bool healthy = true;
    while (healthy) {
        while (window_open && open.size() < spec.concurrency) {
            Sample s;
            s.prompt = prompts(
                promptIndex(seed, first_request + phase.samples.size()));
            s.maxNew = spec.genTokens;
            s.dueNs = nowNs();
            tags.push_back(client.submit(s.prompt, s.maxNew));
            open.push_back(phase.samples.size());
            phase.samples.push_back(std::move(s));
        }
        const uint64_t p0 = nowNs();
        const ipc::ClientStatus st = client.poll();
        const uint64_t now = nowNs();
        phase.pollUs.push_back(static_cast<double>(now - p0) * 1e-3);
        if (st == ipc::ClientStatus::DaemonGone ||
            st == ipc::ClientStatus::Corrupt ||
            st == ipc::ClientStatus::LeaseRevoked ||
            st == ipc::ClientStatus::Disconnected) {
            std::fprintf(stderr, "servebench: client %s\n",
                         ipc::clientStatusName(st));
            healthy = false;
            break;
        }
        for (size_t k = 0; k < open.size();) {
            Sample &s = phase.samples[open[k]];
            const ipc::ClientRequest *req = client.request(tags[open[k]]);
            if (req->tokens.size() > s.tokens.size()) {
                if (s.firstNs == 0)
                    s.firstNs = now;
                else
                    s.stepGapsMs.push_back(
                        static_cast<double>(now - s.lastNs) * 1e-6);
                s.lastNs = now;
                visible_tokens += req->tokens.size() - s.tokens.size();
                s.tokens = req->tokens;
            }
            const bool rejected = req->reject != ipc::WireReject::None;
            if (client.done(tags[open[k]]) || rejected) {
                s.finished = !rejected;
                open[k] = open.back();
                open.pop_back();
            } else {
                ++k;
            }
        }
        if (window_open && now >= deadline) {
            window_open = false;
            phase.windowEndNs = now;
            phase.windowTokens = visible_tokens;
            phase.cpuSec = cpuSeconds(proc.pid()) - cpu0;
            phase.jiffiesEnd = readCpuJiffies();
            phase.peakRssMb = peakRssMb(proc.pid());
        }
        if ((!window_open && open.empty()) || now > limit)
            break;
        if (!window_open || open.size() == spec.concurrency)
            sleepNs(kPollSleepNanos); // a free slot is refilled at once
    }
    client.disconnect();
    *ok = healthy && !window_open && proc.stop(30.0);
    return phase;
}

// --- Oracle and speed-up probe ------------------------------------------

/**
 * Re-decode every request with the incremental engine (no SSMs,
 * same budget) and compare tokens. Runs on a one-thread pool:
 * outputs are bit-identical at any pool size, and it is faster.
 * @return requests that failed: unfinished, or any token different.
 */
size_t
oracleFailures(const model::Transformer &llm, const Phase &phase,
               bool stop_at_eos)
{
    util::ThreadPool::global().setThreads(1);
    const model::SamplingParams params =
        core::EngineConfig::greedyDefault().llmSampling;
    size_t failed = 0;
    for (const Sample &s : phase.samples) {
        if (!s.finished) {
            ++failed;
            continue;
        }
        util::Rng rng(0);
        const core::GenerationResult ref = core::incrementalGenerate(
            llm, s.prompt, params, s.maxNew, rng, stop_at_eos);
        if (ref.tokens != s.tokens)
            ++failed;
    }
    util::ThreadPool::global().setThreads(kPoolThreads);
    return failed;
}

/**
 * Speculative ÷ incremental tokens/s on the solo prompts, each
 * prompt decoded by both engines back to back so host drift hits
 * both sides alike. Uses the pinned pool size.
 */
double
specSpeedup(const model::Transformer &llm, const model::Transformer &ssm,
            uint64_t seed)
{
    const core::SpecEngine spec(&llm, {&ssm},
                                engineConfig(kSolo, true, nullptr));
    const core::SpecEngine incr(&llm, {},
                                engineConfig(kSolo, false, nullptr));
    const auto prompts = promptSource(kSolo, llm.config().vocabSize);
    double spec_ns = 0.0, incr_ns = 0.0;
    size_t spec_tok = 0, incr_tok = 0;
    for (size_t i = 0; i < kSpeedupPrompts; ++i) {
        const std::vector<int> prompt = prompts(promptIndex(seed, i));
        uint64_t t0 = nowNs();
        spec_tok += spec.generate(prompt).tokens.size();
        uint64_t t1 = nowNs();
        incr_tok += incr.generate(prompt).tokens.size();
        spec_ns += static_cast<double>(t1 - t0);
        incr_ns += static_cast<double>(nowNs() - t1);
    }
    return ratio(ratio(static_cast<double>(spec_tok), spec_ns),
                 ratio(static_cast<double>(incr_tok), incr_ns));
}

// --- End-to-end report ------------------------------------------------------

/** Share of requests meeting both SLO limits (unfinished = miss). */
double
sloAttainment(const Phase &p, const WorkloadSpec &spec)
{
    size_t met = 0;
    for (const Sample &s : p.samples) {
        if (!s.finished || s.firstNs == 0)
            continue;
        const double ttft = static_cast<double>(s.firstNs - s.dueNs) * 1e-6;
        const double tpot =
            s.tokens.size() > 1
                ? static_cast<double>(s.lastNs - s.firstNs) * 1e-6 /
                      static_cast<double>(s.tokens.size() - 1)
                : 0.0;
        if (ttft <= spec.ttftLimitMs && tpot <= spec.tpotLimitMs)
            ++met;
    }
    return ratio(static_cast<double>(met),
                 static_cast<double>(p.samples.size()));
}

void
addEndToEnd(Report &r, const Phase &p, const WorkloadSpec &spec,
            double setup_s)
{
    const std::vector<double> ttft = ttftMs(p);
    const std::vector<double> tpot = tpotMs(p);
    const double tokens = static_cast<double>(p.windowTokens);
    r.add("setup_s", setup_s, "s");
    r.add("output_tok_s", ratio(tokens, windowSeconds(p)), "tok/s");
    r.add("ttft_p50_ms", quantile(ttft, 0.5), "ms");
    r.add("ttft_p75_ms", quantile(ttft, 0.75), "ms");
    r.add("tpot_p50_ms", quantile(tpot, 0.5), "ms");
    r.add("tpot_p75_ms", quantile(tpot, 0.75), "ms");
    r.add("cpu_ms_per_tok", ratio(p.cpuSec * 1e3, tokens), "ms");
    r.add("peak_rss_mb", p.peakRssMb, "MB");
    r.add("slo_attainment", sloAttainment(p, spec), "fraction");
}

// --- Per-layer ledger ---------------------------------------------------------

/** Program counters/gauges by name (histogram series excluded). */
using Counters = std::map<std::string, double>;

Counters
countersFrom(const obs::MetricsSnapshot &snap)
{
    Counters c;
    for (const obs::SnapshotCounter &x : snap.counters)
        c[x.name] = static_cast<double>(x.value);
    for (const obs::SnapshotGauge &x : snap.gauges)
        c[x.name] = static_cast<double>(x.value);
    return c;
}

Counters
countersFromFile(const std::string &path)
{
    std::ifstream in(path);
    std::string error;
    Counters c;
    for (const obs::PrometheusSample &s : obs::parsePrometheus(in, &error))
        if (s.labels.empty())
            c[s.name] = s.value;
    return c;
}

/** Spans from a Chrome trace written by obs::Tracer (one event per
 *  line: name, tid, ts and dur in microseconds). */
std::vector<obs::TraceEvent>
spansFromFile(const std::string &path)
{
    std::vector<obs::TraceEvent> events;
    std::ifstream in(path);
    std::string line;
    auto number = [&](const char *key) -> double {
        const size_t at = line.find(key);
        return at == std::string::npos
                   ? 0.0
                   : std::strtod(line.c_str() + at + std::strlen(key),
                                 nullptr);
    };
    while (std::getline(in, line)) {
        if (line.rfind("{\"name\":\"", 0) != 0 ||
            line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        obs::TraceEvent ev;
        ev.name = line.substr(9, line.find('"', 9) - 9);
        ev.track = static_cast<uint64_t>(number("\"tid\":"));
        ev.startNanos = static_cast<uint64_t>(number("\"ts\":") * 1e3);
        ev.durNanos = static_cast<uint64_t>(number("\"dur\":") * 1e3);
        events.push_back(std::move(ev));
    }
    return events;
}

/** What the traced phase exposes to the ledger. */
struct LayerInputs
{
    Counters c;
    std::vector<obs::TraceEvent> spans;
    /** Name of the span that times one whole runIteration call: the
     *  benchmark's own span in process, the daemon's own
     *  "iteration" span across the process boundary. */
    std::string iterationSpan;
    size_t tokens = 0;
    double wallSec = 0.0;
    double cpuSec = 0.0;
    double poolThreads = 0.0;
    double poolJobs = 0.0;
    double batchSizeMean = 0.0;
    double kvUsedPeak = 0.0;
    double preemptions = 0.0;
};

struct SpanTotals
{
    double ns = 0.0;
    size_t count = 0;
    std::vector<double> ms;
};

void
addLayers(Report &r, const LayerInputs &in, const Phase &untraced,
          const Phase &traced, double speedup, double steal,
          size_t failed)
{
    const Counters &c = in.c;
    auto get = [&](const char *name) {
        const auto it = c.find(name);
        return it == c.end() ? 0.0 : it->second;
    };
    std::map<std::string, SpanTotals> spans;
    std::map<uint64_t, double> first_decode; // track -> first chunk
    for (const obs::TraceEvent &ev : in.spans) {
        SpanTotals &t = spans[ev.name];
        t.ns += static_cast<double>(ev.durNanos);
        ++t.count;
        t.ms.push_back(static_cast<double>(ev.durNanos) * 1e-6);
        if (ev.name == "tree_decode" && !first_decode.count(ev.track))
            first_decode[ev.track] = static_cast<double>(ev.durNanos);
    }
    const double tokens = static_cast<double>(in.tokens);
    const model::ModelConfig m = model::llmPreset(kLlm);
    const double d = static_cast<double>(m.dModel);
    const double layer_params =
        4.0 * d * d + 3.0 * d * static_cast<double>(m.dFf);
    const double head_params = d * static_cast<double>(m.vocabSize);
    const double llm_params =
        static_cast<double>(m.nLayers) * layer_params + head_params;
    const double ssm_params =
        static_cast<double>(kSsmLayers) * layer_params + head_params;

    // Forwards and rows split between the LLM (one tree_decode or
    // prefill chunk each) and the SSM (everything else).
    const double llm_forwards = static_cast<double>(
        spans["tree_decode"].count + spans["prefill"].count);
    const double ssm_forwards = get("model_kernel_launches") - llm_forwards;
    const double ssm_rows = get("engine_ssm_tokens");
    const double llm_rows = get("model_chunk_tokens") - ssm_rows;
    const double gemm_flop =
        2.0 * (llm_rows * llm_params + ssm_rows * ssm_params);
    const double gemm_ns = get("model_kv_gemm_nanos") +
                           get("model_q_gemm_nanos") +
                           get("model_out_proj_nanos") +
                           get("model_mlp_gemm_nanos") +
                           get("model_lm_head_nanos");

    r.add("util.pool_threads", in.poolThreads, "count");
    r.add("util.pool_jobs_per_tok", ratio(in.poolJobs, tokens), "count");
    r.add("util.cpu_cores_busy", ratio(in.cpuSec, in.wallSec), "cores");

    r.add("tensor.gemm_gflop_per_tok", ratio(gemm_flop * 1e-9, tokens),
          "GFLOP");
    r.add("tensor.weight_mb_per_tok",
          ratio(4e-6 * (llm_forwards * llm_params +
                        ssm_forwards * ssm_params),
                tokens),
          "MB");
    r.add("tensor.gemm_gflops", ratio(gemm_flop, gemm_ns), "GFLOP/s");

    // Ledger: iteration total = model phases + core self time (engine
    // spans outside the model phases) + unattributed (scheduler and
    // everything else inside runIteration but outside engine spans).
    const double iter_ns = spans[in.iterationSpan].ns;
    const char *phases[] = {"kv_gemm", "q_gemm", "attention",
                            "out_proj", "mlp_gemm", "lm_head"};
    double model_ns = 0.0;
    r.add("model.rows_per_tok",
          ratio(get("model_chunk_tokens"), tokens), "count");
    r.add("model.forwards_per_tok",
          ratio(get("model_kernel_launches"), tokens), "count");
    for (const char *ph : phases) {
        const double ns = get(("model_" + std::string(ph) + "_nanos").c_str());
        model_ns += ns;
        r.add("model." + std::string(ph) + "_us_per_tok",
              ratio(ns * 1e-3, tokens), "us");
    }
    const double engine_ns = spans["prefill"].ns + spans["speculate"].ns +
                             spans["tree_decode"].ns + spans["verify"].ns;
    const double core_self_ns = engine_ns - model_ns;
    const double unattributed_ns = iter_ns - engine_ns;
    r.add("model.unattributed_frac", ratio(unattributed_ns, iter_ns),
          "fraction");

    const double steps = static_cast<double>(spans["tree_decode"].count);
    double first_ns = 0.0;
    for (const auto &kv : first_decode)
        first_ns += kv.second;
    const double requests = static_cast<double>(first_decode.size());
    r.add("core.accepted_per_step",
          ratio(get("engine_tokens_accepted"), steps), "tokens");
    r.add("core.accept_ratio",
          ratio(get("engine_tokens_accepted"),
                get("engine_tokens_proposed")),
          "fraction");
    r.add("core.ssm_tokens_per_tok", ratio(ssm_rows, tokens), "count");
    r.add("core.draft_ms_per_step",
          ratio(spans["speculate"].ns * 1e-6, steps), "ms");
    r.add("core.verify_ms_per_step",
          ratio((spans["tree_decode"].ns - first_ns + spans["verify"].ns) *
                    1e-6,
                steps - requests),
          "ms");
    r.add("core.prefill_ms_per_req",
          ratio((first_ns + spans["prefill"].ns) * 1e-6, requests), "ms");
    r.add("core.self_us_per_tok", ratio(core_self_ns * 1e-3, tokens),
          "us");
    r.add("core.spec_speedup", speedup, "x");

    const std::vector<double> &iter_ms = spans[in.iterationSpan].ms;
    r.add("runtime.iteration_us_per_tok", ratio(iter_ns * 1e-3, tokens),
          "us");
    r.add("runtime.iteration_ms_p50", quantile(iter_ms, 0.5), "ms");
    r.add("runtime.iteration_ms_p90", quantile(iter_ms, 0.9), "ms");
    r.add("runtime.batch_size_mean", in.batchSizeMean, "count");
    r.add("runtime.queue_wait_ms_p50", quantile(spans["queue"].ms, 0.5),
          "ms");
    r.add("runtime.prefix_hit_ratio",
          ratio(get("kv_prefix_hits"),
                get("kv_prefix_hits") + get("kv_prefix_misses")),
          "fraction");
    double prompt_tokens = 0.0;
    for (const Sample &s : traced.samples)
        prompt_tokens += static_cast<double>(s.prompt.size());
    r.add("runtime.prefill_skipped_frac",
          ratio(get("engine_prefill_skipped_tokens"), prompt_tokens),
          "fraction");
    r.add("runtime.kv_used_frac_peak", in.kvUsedPeak, "fraction");
    r.add("runtime.preemptions", in.preemptions, "count");
    r.add("runtime.journal_bytes_per_tok",
          ratio(get("journal_bytes_written"), tokens), "B");
    r.add("runtime.journal_appends_per_iter",
          ratio(get("journal_appends"), get("serving_iterations")),
          "count");

    std::vector<double> gaps;
    for (const Sample &s : traced.samples)
        gaps.insert(gaps.end(), s.stepGapsMs.begin(), s.stepGapsMs.end());
    const bool crossed_ipc = in.iterationSpan == "iteration";
    r.add("ipc.frames_per_tok",
          ratio(get("ipc_frames_sent") + get("ipc_frames_received"),
                tokens),
          "count");
    r.add("ipc.ring_full_retries", get("ipc_ring_full_retries"), "count");
    r.add("ipc.client_poll_us_p50", quantile(traced.pollUs, 0.5), "us");
    r.add("ipc.ticks_per_iteration",
          ratio(get("daemon_ticks"), get("serving_iterations")), "count");
    r.add("ipc.step_gap_minus_iteration_ms",
          crossed_ipc ? quantile(gaps, 0.5) - quantile(iter_ms, 0.5) : 0.0,
          "ms");

    const double tpot_untraced = quantile(tpotMs(untraced), 0.5);
    r.add("obs.overhead_frac",
          ratio(quantile(tpotMs(traced), 0.5), tpot_untraced) - 1.0,
          "fraction");

    const double sent =
        static_cast<double>(untraced.samples.size() + traced.samples.size());
    r.add("loadgen.sent", sent, "count");
    r.add("loadgen.succeeded", sent - static_cast<double>(failed), "count");
    r.add("loadgen.failed", static_cast<double>(failed), "count");
    r.add("host.steal_frac", steal, "fraction");

    // Closure: the parts are nested intervals measured by different
    // clocks (model counters inside engine spans inside the manager's
    // iteration spans inside the benchmark's runIteration spans), so
    // each must fit in its parent; the remainder at every level is
    // printed, never dropped.
    const double serving_ns = spans["iteration"].ns;
    std::printf("ledger: runIteration %.3f ms = model phases %.3f ms + "
                "core self %.3f ms + unattributed %.3f ms "
                "(%.1f%%: manager %.3f ms, outside the manager %.3f ms)\n",
                iter_ns * 1e-6, model_ns * 1e-6, core_self_ns * 1e-6,
                unattributed_ns * 1e-6,
                100.0 * ratio(unattributed_ns, iter_ns),
                (serving_ns - engine_ns) * 1e-6,
                (iter_ns - serving_ns) * 1e-6);
    std::printf("ledger: engine spans: speculate %.3f ms, tree_decode "
                "%.3f ms, verify %.3f ms, prefill %.3f ms\n",
                spans["speculate"].ns * 1e-6, spans["tree_decode"].ns * 1e-6,
                spans["verify"].ns * 1e-6, spans["prefill"].ns * 1e-6);
    const bool nested = model_ns <= engine_ns * 1.01 &&
                        engine_ns <= serving_ns * 1.01 &&
                        serving_ns <= iter_ns * 1.01;
    std::printf("ledger: closure %s (model %.3f <= engine %.3f <= "
                "manager iteration %.3f <= runIteration %.3f ms)\n",
                nested ? "ok" : "VIOLATED", model_ns * 1e-6,
                engine_ns * 1e-6, serving_ns * 1e-6, iter_ns * 1e-6);
}

// --- Runs ---------------------------------------------------------------------

const WorkloadSpec *
workloadByName(const std::string &name)
{
    for (const WorkloadSpec *w : {&kSolo, &kBatch, &kDaemon})
        if (name == w->name)
            return w;
    return nullptr;
}

/** Flip one token of the first finished request (negative control
 *  for the oracle). */
void
corruptOneToken(Phase &p)
{
    for (Sample &s : p.samples)
        if (s.finished && !s.tokens.empty()) {
            s.tokens.back() ^= 1;
            return;
        }
}

struct RunResult
{
    Report report;
    size_t attempted = 0;
    size_t failed = 0;
    bool ok = true; ///< harness-level failure (daemon did not run)
    double steal = 0.0; ///< host steal over the timed windows
};

/** Host steal share over the timed windows of the given phases. */
double
stealOver(std::initializer_list<const Phase *> phases)
{
    double steal = 0.0, total = 0.0;
    for (const Phase *p : phases) {
        steal += p->jiffiesEnd.steal - p->jiffiesStart.steal;
        total += p->jiffiesEnd.total - p->jiffiesStart.total;
    }
    return ratio(steal, total);
}

RunResult
runInProcess(const Options &o, const WorkloadSpec &spec)
{
    RunResult res;
    if (!o.trace) {
        const double setup = inProcessSetupSeconds(spec);
        Stack stack(spec, nullptr);
        Phase p = runClosedLoop(stack, spec, o.seed, 0, o.seconds, nullptr);
        res.steal = stealOver({&p});
        if (o.corruptToken)
            corruptOneToken(p);
        addEndToEnd(res.report, p, spec, setup);
        res.attempted = p.samples.size();
        res.failed = oracleFailures(stack.llm, p, false);
        return res;
    }
    Stack plain(spec, nullptr);
    Phase untraced =
        runClosedLoop(plain, spec, o.seed, 0, o.seconds / 2, nullptr);
    obs::ObsContext ctx;
    obs::setGlobalObs(&ctx);
    Phase traced;
    LayerInputs in;
    {
        Stack stack(spec, &ctx);
        traced = runClosedLoop(stack, spec, o.seed, untraced.samples.size(),
                               o.seconds / 2, &ctx.tracer());
        in.batchSizeMean = traced.batchSizeMean;
        in.preemptions = static_cast<double>(traced.preemptions);
    }
    obs::setGlobalObs(nullptr);
    res.steal = stealOver({&untraced, &traced});
    in.c = countersFrom(ctx.metrics().snapshot());
    in.spans = ctx.tracer().events();
    in.iterationSpan = "run_iteration";
    in.tokens = totalTokens(traced);
    in.wallSec = windowSeconds(traced);
    in.cpuSec = traced.cpuSec;
    in.poolThreads =
        static_cast<double>(util::ThreadPool::global().threads());
    in.poolJobs = static_cast<double>(traced.poolJobs);
    in.kvUsedPeak = traced.kvUsedPeak;
    const double speedup = specSpeedup(plain.llm, plain.ssm, o.seed);
    if (o.corruptToken)
        corruptOneToken(traced);
    res.attempted = untraced.samples.size() + traced.samples.size();
    res.failed = oracleFailures(plain.llm, untraced, false) +
                 oracleFailures(plain.llm, traced, false);
    addLayers(res.report, in, untraced, traced, speedup, res.steal,
              res.failed);
    return res;
}

RunResult
runDaemon(const Options &o, const WorkloadSpec &spec)
{
    RunResult res;
    DaemonPaths paths;
    paths.bin = o.daemonBin;
    paths.dir = o.workDir;
    paths.ipcDir = o.workDir + "/ipc";
    std::filesystem::create_directories(paths.ipcDir);
    // The daemon's engine stops at EOS (specinferd has no switch for
    // it), so the oracle does too.
    const bool stop_at_eos = true;
    if (!o.trace) {
        const double setup = daemonSetupSeconds(spec, paths);
        bool ok = false;
        Phase p = runDaemonLoop(spec, paths, o.seed, 0, o.seconds, "run",
                                nullptr, &ok);
        res.steal = stealOver({&p});
        res.ok = ok && setup > 0.0;
        if (o.corruptToken)
            corruptOneToken(p);
        addEndToEnd(res.report, p, spec, setup);
        const model::Transformer llm =
            model::makeLlm(model::llmPreset(kLlm));
        res.attempted = p.samples.size();
        res.failed = oracleFailures(llm, p, stop_at_eos);
        return res;
    }
    bool ok_plain = false, ok_traced = false;
    Phase untraced = runDaemonLoop(spec, paths, o.seed, 0, o.seconds / 2,
                                   "plain", nullptr, &ok_plain);
    obs::ObsContext ctx;
    Phase traced =
        runDaemonLoop(spec, paths, o.seed, untraced.samples.size(),
                      o.seconds / 2, "traced", &ctx, &ok_traced);
    res.ok = ok_plain && ok_traced;
    res.steal = stealOver({&untraced, &traced});
    LayerInputs in;
    in.c = countersFromFile(paths.dir + "/traced.prom");
    // Client-side IPC counters join the daemon's own.
    for (const auto &kv : countersFrom(ctx.metrics().snapshot()))
        in.c[kv.first] += kv.second;
    in.spans = spansFromFile(paths.dir + "/traced.trace");
    in.iterationSpan = "iteration";
    in.tokens = totalTokens(traced);
    in.wallSec = windowSeconds(traced);
    in.cpuSec = traced.cpuSec;
    in.poolThreads = in.c["pool_threads"];
    in.poolJobs = in.c["pool_jobs_dispatched"];
    in.batchSizeMean = ratio(in.c["serving_request_iterations"],
                             in.c["serving_iterations"]);
    in.kvUsedPeak = 0.0; // the daemon serves without a KV pool
    in.preemptions = in.c["serving_preemptions"];
    const model::Transformer llm = model::makeLlm(model::llmPreset(kLlm));
    const model::Transformer ssm = model::makeEarlyExitSsm(llm, kSsmLayers);
    const double speedup = specSpeedup(llm, ssm, o.seed);
    if (o.corruptToken)
        corruptOneToken(traced);
    res.attempted = untraced.samples.size() + traced.samples.size();
    res.failed = oracleFailures(llm, untraced, stop_at_eos) +
                 oracleFailures(llm, traced, stop_at_eos);
    addLayers(res.report, in, untraced, traced, speedup, res.steal,
              res.failed);
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseOptions(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: servebench --workload solo|batch|daemon "
                     "--seed N --seconds S --trace 0|1 --daemon-bin PATH "
                     "--work-dir DIR [--corrupt-token 1]\n");
        return 2;
    }
    const WorkloadSpec *spec = workloadByName(o.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }
    // Pin the engine pool here and in the spawned daemon.
    ::setenv("SPECINFER_THREADS", std::to_string(kPoolThreads).c_str(), 1);
    util::ThreadPool::global().setThreads(kPoolThreads);
    std::printf("servebench: workload=%s seed=%llu seconds=%g trace=%d "
                "pool_threads=%zu build=%s\n",
                spec->name, static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0,
                util::ThreadPool::global().threads(), SERVEBENCH_BUILD_TYPE);

    RunResult res = std::strcmp(spec->name, "daemon") == 0
                        ? runDaemon(o, *spec)
                        : runInProcess(o, *spec);
    const bool correct = res.ok && res.failed == 0 && res.attempted > 0;
    std::printf("servebench: sent=%zu succeeded=%zu failed=%zu "
                "host_steal_frac=%.4f\n",
                res.attempted, res.attempted - res.failed, res.failed,
                res.steal);
    std::printf("%s\n",
                res.report.json(correct, res.attempted, res.failed).c_str());
    return correct ? 0 : 1;
}
