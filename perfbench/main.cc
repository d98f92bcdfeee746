/**
 * @file
 * Serving-path benchmark: one closed-loop workload per process over a
 * runtime::Server fleet, with a correctness check on every job and an
 * optional traced run that times each layer's public calls.
 *
 * Usage:
 *   perfbench --workload <qec_cycle|tenant_churn|recalibrate>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <chrome-trace.json>]
 *
 * Prints a reproducibility header line and then, as the last line of
 * stdout, one JSON object {correct, attempted, failed, metrics}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 the
 * per-layer ones (see README.md for the layer -> metric map).
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <list>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "adapter.hh"

namespace pb = perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

// ------------------------------------------------------------ stats

/** Quantile by linear interpolation between closest ranks. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

struct CpuTimes
{
    double user = 0.0;
    double sys = 0.0;
};

CpuTimes
processCpu()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return {tv(ru.ru_utime), tv(ru.ru_stime)};
}

/** CPU time of the calling (generator) thread. */
double
threadCpu()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

// ---------------------------------------------------------- tracing

/**
 * In-memory span recorder. Spans are recorded around the benchmark's
 * own calls into each layer (never inside the library) and written
 * as Chrome trace events when the run ends.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

    bool on() const { return on_; }

    /** Record a finished span; returns its id (or -1 when off). */
    int
    add(const char *name, Clock::time_point start,
        Clock::time_point end, int parent = -1, std::int64_t job = -1)
    {
        if (!on_)
            return -1;
        spans_.push_back({name, start, end, parent, job});
        return static_cast<int>(spans_.size() - 1);
    }

    /** Open a span that close() ends; returns its id (-1 when off). */
    int
    open(const char *name, int parent = -1)
    {
        const auto now = Clock::now();
        return add(name, now, now, parent);
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].end = Clock::now();
    }

    /** Durations, in seconds, of every span named `name`. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const auto &s : spans_)
            if (name == s.name)
                out.push_back(seconds(s.end - s.start));
        return out;
    }

    /** Append another recorder's spans (their parents re-indexed). */
    void
    absorb(const Tracer &o)
    {
        const int base = static_cast<int>(spans_.size());
        for (Span sp : o.spans_) {
            if (sp.parent >= 0)
                sp.parent += base;
            spans_.push_back(sp);
        }
    }

    double
    total(const std::string &name) const
    {
        const auto d = durations(name);
        return std::accumulate(d.begin(), d.end(), 0.0);
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            throw std::runtime_error("cannot write trace " + path);
        os << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const auto us = [this](Clock::time_point t) {
                return std::chrono::duration<double, std::micro>(
                           t - origin_)
                    .count();
            };
            os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
               << us(s.start) << ", \"dur\": " << us(s.end) - us(s.start)
               << ", \"args\": {\"id\": " << i << ", \"parent\": "
               << s.parent << ", \"job\": " << s.job << "}}";
        }
        os << "\n]}\n";
    }

  private:
    struct Span
    {
        const char *name;
        Clock::time_point start;
        Clock::time_point end;
        int parent;
        std::int64_t job;
    };
    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Time one call and record it as a span. */
template <typename F>
auto
timed(Tracer &tr, const char *name, F &&f, int parent = -1)
{
    const auto t0 = Clock::now();
    auto r = f();
    tr.add(name, t0, Clock::now(), parent);
    return r;
}


// -------------------------------------------------------- workloads

struct Workload
{
    std::string name;
    pb::Machine machine;
    pb::FleetShape shape;
    /** Jobs outstanding at once (closed-loop clients). */
    std::size_t slots;
    /** Tenant names the jobs are spread over. */
    std::size_t tenants;
    /** Distinct schedules in the seeded pool. */
    std::size_t pool;
    /** Measured jobs per requested second: fixes the job count, so
     *  the job set depends on the seed and --seconds only. */
    double jobsPerSecond;
    /** Jobs run by the fixed warm-up of each set-up. */
    std::size_t warmupJobs;
    /** Inline recalibration every this many planned jobs (a multiple
     *  of `slots`); 0 = none. */
    std::size_t recalEvery;
};

/** Measured blocks per run. A set-up runs between blocks, so set-up
 *  samples are spread over the run like the measured jobs are. */
constexpr std::size_t kBlocks = 16;

/** The traced run of a workload without inline recalibration ends
 *  with a tail of its own stream that recalibrates kTailSwaps times,
 *  every kTailJobsPerSlot jobs per slot, for the registry metrics. */
constexpr std::size_t kTailSwaps = 8;
constexpr std::size_t kTailJobsPerSlot = 2;

Workload
workload(const std::string &name)
{
    // d=5 patch: one rack, two shards, two workers; the store holds
    // the whole decoded working set (hit rate 1.0).
    pb::FleetShape qec;
    qec.racks = 1;
    qec.shards = 2;
    qec.workers = 2;
    qec.storeWindows = 1u << 14;
    qec.maxBatch = 16;
    qec.memoryWidth = 4;
    // washington behind two one-worker racks; one job's windows
    // alone overflow the store, and the pool overflows the program
    // cache (256 entries = 64 schedules per rack at 4 shards).
    pb::FleetShape churn;
    churn.racks = 2;
    churn.shards = 4;
    churn.workers = 1;
    churn.storeWindows = 128;
    churn.maxBatch = 8;
    churn.memoryWidth = 4;

    if (name == "qec_cycle")
        return {name, pb::Machine::SurfaceD5, qec, 4, 4, 8, 260.0, 16, 0};
    if (name == "recalibrate")
        return {name, pb::Machine::SurfaceD5, qec, 4, 4, 8, 190.0, 16, 100};
    if (name == "tenant_churn")
        return {name, pb::Machine::Washington, churn, 16, 64, 1024, 300.0,
                32, 0};
    throw std::invalid_argument("unknown workload '" + name + "'");
}

/** One planned job: which tenant submits which pool schedule. */
struct PlannedJob
{
    std::size_t tenant;
    std::size_t sched;
};

/** Per-slot job sequences: slot s submits plan[s][0], plan[s][1],
 *  ... in order, whatever the timing. */
using Plan = std::vector<std::vector<PlannedJob>>;

/** The job set, drawn from the seed only. On the QEC workloads slot
 *  s is patch s (one cycle outstanding per patch). */
Plan
makePlan(const Workload &w, std::uint64_t seed, std::size_t jobs)
{
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 7);
    Plan plan(w.slots);
    for (std::size_t j = 0; j < jobs; ++j) {
        const std::size_t s = j % w.slots;
        const std::size_t tenant =
            w.tenants == w.slots ? s : rng() % w.tenants;
        plan[s].push_back({tenant, static_cast<std::size_t>(rng() % w.pool)});
    }
    return plan;
}

// ---------------------------------------------------------- fleets

/** The system under test after one timed set-up, with the
 *  calibration each library version of its registry carries. */
struct Setup
{
    std::unique_ptr<pb::Fleet> fleet;
    std::map<std::uint64_t, int> calOfVersion;
    double seconds = 0.0;
};

/** One harvested job. */
struct Record
{
    std::size_t sched = 0;
    /** Calibration its library version maps to; -1 when the version
     *  was never published by the benchmark. */
    int cal = -1;
    pb::JobOutcome out;
    /** submit() call -> future observed ready, seconds. */
    double latency = 0.0;
};

struct LoopResult
{
    std::vector<Record> records;
    double wallSeconds = 0.0;
    CpuTimes cpu;
    double generatorCpu = 0.0;
    std::vector<double> recalSeconds;
    std::uint64_t swaps = 0;
    std::uint64_t failedSwaps = 0;
};

/**
 * Compile the next drifted calibration (LibraryCompiler at one
 * worker) and publish it. Returns false when the compile or the
 * publish threw.
 */
bool
recalibrate(const Workload &w, Setup &sut, int &nextCal, Tracer &tr)
{
    const int cal = nextCal++;
    const int span = tr.open("recalibrate");
    try {
        const pb::Device dev(w.machine, cal);
        const pb::Library lib = timed(
            tr, "library.compile",
            [&] { return pb::compileLibrary(dev, 1); }, span);
        const std::uint64_t v = timed(
            tr, "server.swap", [&] { return sut.fleet->swapLibrary(lib); },
            span);
        sut.calOfVersion[v] = cal;
        tr.close(span);
        return true;
    } catch (const std::exception &e) {
        std::cerr << "recalibration " << cal << " failed: " << e.what()
                  << '\n';
        tr.close(span);
        return false;
    }
}

/**
 * Run block k of `blocks` of the plan (a contiguous slice of every
 * slot's jobs) closed-loop: each slot resubmits as soon as its previous
 * job is harvested. The generator sweeps the outstanding slots
 * oldest-first and harvests the first one ready, blocking briefly on
 * the oldest when none is.
 *
 * Inline recalibration happens at fixed plan positions: job i of a
 * slot belongs to segment i / (recalEvery / slots). A slot whose next
 * job lies past `segment` waits; once every slot waits, nothing is
 * outstanding, so the generator recalibrates and advances `segment`
 * (which carries across blocks). Each job's calibration is therefore
 * its segment, fixed by the plan and not by timing.
 */
LoopResult
runLoop(const Workload &w, Setup &sut, int &nextCal,
        const pb::SchedulePool &pool, const Plan &plan, std::size_t k,
        std::size_t blocks, const std::vector<std::string> &tenantNames,
        Tracer &tr, std::size_t &segment)
{
    pb::Fleet &fleet = *sut.fleet;
    LoopResult res;
    std::vector<std::size_t> next(w.slots), end(w.slots);
    for (std::size_t s = 0; s < w.slots; ++s) {
        next[s] = k * plan[s].size() / blocks;
        end[s] = (k + 1) * plan[s].size() / blocks;
    }
    const std::size_t perSegment = w.recalEvery / w.slots;
    const auto due = [&](std::size_t s) {
        return next[s] < end[s] &&
               (perSegment == 0 || next[s] / perSegment <= segment);
    };
    std::vector<Clock::time_point> submittedAt(w.slots);
    std::vector<std::int64_t> jobId(w.slots, -1);
    std::list<std::size_t> fifo;
    std::uint64_t awaitVersion = 0;
    Clock::time_point recalStart;
    static std::int64_t nextJobId = 0;

    const auto t0 = Clock::now();
    const CpuTimes cpu0 = processCpu();
    const double gen0 = threadCpu();

    const auto submit = [&](std::size_t s) {
        const PlannedJob &job = plan[s][next[s]++];
        fleet.stage(s, tenantNames[job.tenant], pool, job.sched);
        jobId[s] = nextJobId++;
        const auto ts = Clock::now();
        fleet.submit(s);
        submittedAt[s] = ts;
        tr.add("server.submit", ts, Clock::now(), -1, jobId[s]);
        fifo.push_back(s);
    };
    const auto harvest = [&](std::size_t s) {
        Record r;
        r.sched = plan[s][next[s] - 1].sched;
        r.out = fleet.take(s);
        const auto now = Clock::now();
        r.latency = seconds(now - submittedAt[s]);
        const auto cal = sut.calOfVersion.find(r.out.libraryVersion);
        r.cal = cal == sut.calOfVersion.end() ? -1 : cal->second;
        if (tr.on()) {
            // Queue and execute spans from the job's own timestamps,
            // ending where the generator saw the future ready.
            const auto dur = [](double sec) {
                return std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(sec));
            };
            const auto exec = dur(r.out.executeSeconds);
            const auto queue = dur(r.out.queueSeconds);
            const int job = tr.add("job", submittedAt[s], now, -1, jobId[s]);
            tr.add("server.queue", now - exec - queue, now - exec, job,
                   jobId[s]);
            tr.add("server.execute", now - exec, now, job, jobId[s]);
        }
        if (awaitVersion != 0 && r.out.libraryVersion == awaitVersion) {
            res.recalSeconds.push_back(seconds(now - recalStart));
            awaitVersion = 0;
        }
        res.records.push_back(std::move(r));
        fifo.remove(s);
    };

    for (std::size_t s = 0; s < w.slots; ++s)
        if (due(s))
            submit(s);
    while (true) {
        if (fifo.empty()) {
            bool more = false;
            for (std::size_t s = 0; s < w.slots; ++s)
                more = more || next[s] < end[s];
            if (!more)
                break;
            ++segment;
            recalStart = Clock::now();
            ++res.swaps;
            if (recalibrate(w, sut, nextCal, tr))
                awaitVersion = sut.fleet->stats().libraryVersion;
            else
                ++res.failedSwaps;
            for (std::size_t s = 0; s < w.slots; ++s)
                if (due(s))
                    submit(s);
            continue;
        }
        std::size_t pick = w.slots;
        for (std::size_t s : fifo)
            if (fleet.ready(s)) {
                pick = s;
                break;
            }
        if (pick == w.slots) {
            fleet.wait(fifo.front(), 200e-6);
            continue;
        }
        harvest(pick);
        if (due(pick))
            submit(pick);
    }

    res.wallSeconds = seconds(Clock::now() - t0);
    const CpuTimes cpu1 = processCpu();
    res.cpu = {cpu1.user - cpu0.user, cpu1.sys - cpu0.sys};
    res.generatorCpu = threadCpu() - gen0;
    return res;
}

/** Set up the fleet: device and pulse library, library compile,
 *  Server construction, and a fixed warm-up of `warmupJobs` jobs. */
Setup
setUp(const Workload &w, const pb::SchedulePool &pool,
      const std::vector<std::string> &tenantNames, std::uint64_t seed,
      Tracer &tr)
{
    Setup s;
    const int span = tr.open("setup");
    const auto t0 = Clock::now();
    const pb::Device dev(w.machine, 0);
    const pb::Library lib = timed(
        tr, "library.compile", [&] { return pb::compileLibrary(dev, 1); },
        span);
    s.fleet = std::make_unique<pb::Fleet>(dev, lib, w.shape, w.slots);
    s.calOfVersion[s.fleet->stats().libraryVersion] = 0;
    Workload warm = w;
    warm.recalEvery = 0;
    std::size_t segment = 0;
    int noRecal = 0;
    Tracer off(false);
    runLoop(warm, s, noRecal, pool,
            makePlan(w, seed ^ 0x5a5a5a5aull, w.warmupJobs), 0, 1,
            tenantNames, off, segment);
    s.seconds = seconds(Clock::now() - t0);
    tr.close(span);
    return s;
}

// ------------------------------------------------------ correctness

/** Synchronous reference facts per (calibration, schedule). */
class Reference
{
  public:
    Reference(const Workload &w, const pb::SchedulePool &pool)
        : w_(w), pool_(pool), dev_(w.machine, 0)
    {
    }

    /** Compute the reference for `scheds` under calibration `cal`
     *  (compiled afresh; compiles are deterministic) on a one-rack,
     *  one-worker, store-less fleet of the same shape. */
    void
    compute(int cal, const std::vector<std::size_t> &scheds)
    {
        const pb::Library lib =
            pb::compileLibrary(pb::Device(w_.machine, cal), 1);
        pb::FleetShape shape = w_.shape;
        shape.racks = 1;
        shape.workers = 1;
        shape.storeWindows = 0;
        pb::Fleet ref(dev_, lib, shape, 1);
        for (std::size_t s : scheds) {
            if (facts_.count({cal, s}))
                continue;
            ref.stage(0, "reference", pool_, s);
            ref.submit(0);
            const pb::JobOutcome o = ref.take(0);
            if (o.completed)
                facts_[{cal, s}] = o.facts;
            else
                std::cerr << "reference job (schedule " << s
                          << ") failed: " << o.status << ' ' << o.error
                          << '\n';
        }
    }

    /** Empty when `r` completed and matches its reference exactly;
     *  otherwise why not. */
    std::string
    check(const Record &r) const
    {
        if (!r.out.completed)
            return r.out.status + ": " + r.out.error;
        if (r.cal < 0)
            return "library version " +
                   std::to_string(r.out.libraryVersion) +
                   " was never published by the benchmark";
        const auto f = facts_.find({r.cal, r.sched});
        if (f == facts_.end())
            return "no reference";
        if (!(r.out.facts == f->second) || r.out.facts.missingGates != 0 ||
            r.out.facts.unownedEvents != 0)
            return "stats differ from the synchronous reference";
        return {};
    }

  private:
    const Workload &w_;
    const pb::SchedulePool &pool_;
    const pb::Device dev_;
    std::map<std::pair<int, std::size_t>, pb::JobFacts> facts_;
};

/** Decode every window-decodable channel of `lib` through the batch
 *  primitive and compare with whole-channel decodeInto; returns the
 *  channels that differ. With a tracer on, each batch decode is a
 *  span and the sweep repeats `reps` times. */
std::uint64_t
decodeReplay(const pb::Library &lib, Tracer &tr, int reps,
             std::uint64_t *windows)
{
    const pb::CodecProbe probe(lib);
    std::vector<double> a, b;
    std::uint64_t bad = 0;
    for (int r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < probe.channels().size(); ++i) {
            const pb::Channel &ch = probe.channels()[i];
            a.assign(ch.samples, 0.0);
            const std::size_t n = timed(tr, "codec.decode_windows", [&] {
                return probe.decodeWindows(i, a.data());
            });
            *windows += ch.windows;
            if (r == 0) {
                b.assign(ch.samples, 1.0);
                probe.decodeWhole(i, b.data());
                if (n != ch.samples || a != b)
                    ++bad;
            }
        }
    }
    return bad;
}

// --------------------------------------------------------------- run

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    if (a.workload.empty() || !(a.seconds > 0.0))
        throw std::invalid_argument("need --workload and --seconds > 0");
    return a;
}

std::string
num(double v)
{
    std::ostringstream ss;
    ss.precision(17);
    ss << v;
    return ss.str();
}

/** Builds the result line's "metrics" object. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        os_ << (os_.tellp() > 0 ? ", " : "") << '"' << name
            << "\": {\"value\": " << num(value) << ", \"unit\": \"" << unit
            << "\"}";
    }
    std::string str() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

/** FleetStats counter deltas summed over the traced blocks. */
struct FleetDelta
{
    double jobs = 0, batches = 0, hits = 0, misses = 0;
    std::vector<double> rackDone;

    void
    add(const pb::FleetStats &a, const pb::FleetStats &b)
    {
        jobs += static_cast<double>(b.completed - a.completed);
        batches += static_cast<double>(b.batches - a.batches);
        hits += static_cast<double>(b.storeHits - a.storeHits);
        misses += static_cast<double>(b.storeMisses - a.storeMisses);
        rackDone.resize(b.rackCompleted.size());
        for (std::size_t i = 0; i < b.rackCompleted.size(); ++i)
            rackDone[i] += static_cast<double>(b.rackCompleted[i] -
                                               a.rackCompleted[i]);
    }
};

/** Throughput-side totals over a set of blocks. */
struct Totals
{
    std::vector<double> latency;
    double samples = 0, words = 0, demand = 0, wall = 0, cpu = 0, sys = 0;
    std::vector<double> peakBandwidth;

    void
    add(const LoopResult &l)
    {
        for (const Record &r : l.records) {
            latency.push_back(r.latency);
            samples += static_cast<double>(r.out.facts.samples);
            words += static_cast<double>(r.out.facts.wordsRead);
            demand += static_cast<double>(r.out.facts.demandSamples);
            peakBandwidth.push_back(r.out.facts.peakBandwidth);
        }
        wall += l.wallSeconds;
        cpu += l.cpu.user + l.cpu.sys - l.generatorCpu;
        sys += l.cpu.sys;
    }

    double rate() const { return samples / wall; }
};

/**
 * Program-cache model for the separation count. A rack's cache holds
 * programCacheEntries shard programs, LRU, under the runtime's key:
 * the part's fingerprint, the shard and the library version (every
 * empty part of a shard shares one fingerprint). Entries of a retired
 * version are dropped when the rack first serves the next one. A job
 * counts as compiling when any of its parts misses. Jobs are replayed
 * in harvest order, which within a batch may differ from the rack's.
 */
class CompileModel
{
  public:
    CompileModel(const Workload &w, const pb::Fleet &fleet,
                 const pb::SchedulePool &pool)
        : cap_(w.shape.programCacheEntries)
    {
        for (std::size_t i = 0; i < pool.size(); ++i)
            parts_.push_back(fleet.partFingerprints(pool, i));
    }

    /** Distinct shard programs the whole pool needs per calibration. */
    std::size_t
    poolPrograms() const
    {
        std::set<Key> keys;
        for (const auto &parts : parts_)
            for (std::size_t s = 0; s < parts.size(); ++s)
                keys.insert({s, parts[s]});
        return keys.size();
    }

    bool
    compiles(const Record &r)
    {
        Rack &rack = racks_[r.out.rack];
        if (rack.version != r.out.libraryVersion) {
            rack.lru.clear();
            rack.version = r.out.libraryVersion;
        }
        bool miss = false;
        const auto &parts = parts_.at(r.sched);
        for (std::size_t s = 0; s < parts.size(); ++s) {
            const Key key{s, parts[s]};
            const auto it = std::find(rack.lru.begin(), rack.lru.end(), key);
            if (it != rack.lru.end()) {
                rack.lru.splice(rack.lru.begin(), rack.lru, it);
                continue;
            }
            miss = true;
            rack.lru.push_front(key);
            if (rack.lru.size() > cap_)
                rack.lru.pop_back();
        }
        return miss;
    }

  private:
    using Key = std::pair<std::size_t, std::uint64_t>;
    struct Rack
    {
        std::uint64_t version = 0;
        std::list<Key> lru;
    };
    std::size_t cap_;
    std::vector<std::vector<std::uint64_t>> parts_;
    std::map<int, Rack> racks_;
};

/** Lowest share of the generator-measured job latency the queue and
 *  execute spans must cover in a traced run. */
constexpr double kMinCoverage = 0.9;

int
run(const Args &args)
{
    const Workload w = workload(args.workload);
    const pb::HostInfo host = pb::hostInfo();
    Tracer tr(args.trace);
    Tracer off(false);

    const pb::SchedulePool pool = w.machine == pb::Machine::SurfaceD5
                                      ? pb::qecPool(args.seed, w.pool)
                                      : pb::churnPool(args.seed, w.pool);
    std::vector<std::string> tenantNames;
    for (std::size_t t = 0; t < w.tenants; ++t)
        tenantNames.push_back(
            (w.machine == pb::Machine::SurfaceD5 ? "patch-" : "tenant-") +
            std::to_string(t));
    const auto jobs = static_cast<std::size_t>(
        std::llround(w.jobsPerSecond * args.seconds));
    const Plan plan = makePlan(w, args.seed, jobs);

    int nextCal = 1;
    std::vector<double> setups, recals;
    std::uint64_t attempted = 0, failed = 0, swaps = 0;
    Setup sut = setUp(w, pool, tenantNames, args.seed, tr);
    setups.push_back(sut.seconds);
    CompileModel model(w, *sut.fleet, pool);

    // Correctness references (untimed): every pool schedule under the
    // initial calibration, and the decode replay of its library.
    Reference ref(w, pool);
    std::vector<std::size_t> all(pool.size());
    std::iota(all.begin(), all.end(), 0);
    ref.compute(0, all);
    const pb::Library lib0 = pb::compileLibrary(pb::Device(w.machine, 0), 1);
    {
        std::uint64_t windows = 0;
        const std::uint64_t bad = decodeReplay(lib0, off, 1, &windows);
        ++attempted;
        failed += bad != 0;
        if (bad)
            std::cerr << "decode replay: " << bad
                      << " channels differ from decodeInto\n";
    }

    // Measured blocks, each followed by one more timed set-up. The
    // traced run alternates untraced and traced blocks, so the tracing
    // overhead compares interleaved blocks.
    std::vector<LoopResult> loops;
    std::vector<bool> tracedBlock;
    FleetDelta delta;
    std::size_t segment = 0;
    for (std::size_t k = 0; k < kBlocks; ++k) {
        const bool traced = tr.on() && k % 2 == 1;
        const pb::FleetStats before = sut.fleet->stats();
        loops.push_back(runLoop(w, sut, nextCal, pool, plan, k, kBlocks,
                                tenantNames, traced ? tr : off, segment));
        tracedBlock.push_back(traced);
        if (traced)
            delta.add(before, sut.fleet->stats());
        recals.insert(recals.end(), loops.back().recalSeconds.begin(),
                      loops.back().recalSeconds.end());
        swaps += loops.back().swaps;
        failed += loops.back().failedSwaps;
        setups.push_back(setUp(w, pool, tenantNames, args.seed, tr).seconds);
    }

    // The registry metrics come from inline swaps only. A workload
    // without them ends its traced run with a tail of its own stream
    // that swaps every kTailJobsPerSlot jobs per slot. The tail has a
    // tracer of its own, so the job-level layer metrics cover the
    // measured blocks alone.
    LoopResult tail;
    Tracer tailTr(tr.on());
    if (tr.on() && w.recalEvery == 0) {
        Workload tw = w;
        tw.recalEvery = w.slots * kTailJobsPerSlot;
        std::size_t tailSegment = 0;
        tail = runLoop(tw, sut, nextCal, pool,
                       makePlan(w, args.seed ^ 0x7a11ull,
                                tw.recalEvery * (kTailSwaps + 1)),
                       0, 1, tenantNames, tailTr, tailSegment);
        recals.insert(recals.end(), tail.recalSeconds.begin(),
                      tail.recalSeconds.end());
        swaps += tail.swaps;
        failed += tail.failedSwaps;
    }
    attempted += swaps;

    // References for every later calibration that served a job, then
    // the check of every job.
    std::map<int, std::vector<std::size_t>> needed;
    const auto eachRecord = [&](const auto &f) {
        for (const LoopResult &l : loops)
            for (const Record &r : l.records)
                f(r);
        for (const Record &r : tail.records)
            f(r);
    };
    eachRecord([&](const Record &r) {
        if (r.cal > 0)
            needed[r.cal].push_back(r.sched);
    });
    for (const auto &[cal, scheds] : needed)
        ref.compute(cal, scheds);
    std::uint64_t mismatches = 0;
    eachRecord([&](const Record &r) {
        ++attempted;
        const std::string why = ref.check(r);
        if (!why.empty()) {
            ++failed;
            if (mismatches++ < 5)
                std::cerr << "job (schedule " << r.sched << "): " << why
                          << '\n';
        }
    });

    // Throughput metrics are medians over the untraced blocks, so a
    // slow spell of the host that covers a few blocks moves them less.
    Totals untraced, traced;
    std::vector<double> blockRate, blockP50, blockCpu;
    for (std::size_t k = 0; k < kBlocks; ++k) {
        if (tracedBlock[k]) {
            traced.add(loops[k]);
            continue;
        }
        untraced.add(loops[k]);
        Totals b;
        b.add(loops[k]);
        blockRate.push_back(b.rate());
        blockP50.push_back(quantile(b.latency, 0.50));
        blockCpu.push_back(b.cpu / b.samples);
    }

    // Reproducibility header (one line, before the result line).
    std::cout << "{\"header\": {\"workload\": \"" << w.name
              << "\", \"seed\": " << args.seed << ", \"seconds\": "
              << args.seconds << ", \"nproc\": " << host.hardwareThreads
              << ", \"simd_backend\": \"" << host.simdBackend
              << "\", \"compiler\": \"" << PERFBENCH_CXX_ID
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"cxx_flags\": \"" << PERFBENCH_CXX_FLAGS
              << "\", \"program_threads\": "
              << w.shape.racks * w.shape.workers
              << ", \"generator_threads\": 1, \"racks\": " << w.shape.racks
              << ", \"shards\": " << w.shape.shards
              << ", \"workers_per_rack\": " << w.shape.workers
              << ", \"store_windows\": " << w.shape.storeWindows
              << ", \"program_cache_entries\": "
              << w.shape.programCacheEntries
              << ", \"pool_shard_programs\": " << model.poolPrograms()
              << ", \"outstanding\": " << w.slots
              << ", \"tenants\": " << w.tenants
              << ", \"pool\": " << pool.size() << ", \"jobs\": " << jobs
              << ", \"blocks\": " << kBlocks
              << ", \"latency_samples\": " << untraced.latency.size()
              << ", \"recal_samples\": " << recals.size()
              << ", \"setup_samples\": " << setups.size()
              << ", \"measured_wall_s\": " << num(untraced.wall + traced.wall)
              << "}}\n";

    Metrics m;
    if (!tr.on()) {
        m.add("setup_s", median(setups), "s");
        m.add("samples_per_s", median(blockRate), "1/s");
        m.add("latency_p50_ms", 1e3 * median(blockP50), "ms");
        m.add("cpu_ns_per_sample", 1e9 * median(blockCpu), "ns");
        m.add("bandwidth_reduction_x", untraced.demand / untraced.words, "x");
        m.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        // Separation count: the compile model runs over every block
        // in order and counts on the traced ones.
        double compiles = 0.0;
        for (std::size_t k = 0; k < kBlocks; ++k)
            for (const Record &r : loops[k].records)
                if (model.compiles(r) && tracedBlock[k])
                    compiles += 1.0;

        // Layer probes on the idle fleet: isa compile + interpret of
        // distinct pool schedules, and the batch decode kernel.
        sut.fleet->drain();
        double instrs = 0.0;
        const std::size_t distinct = std::min<std::size_t>(pool.size(), 32);
        for (int rep = 0; rep < 4; ++rep)
            for (std::size_t i = 0; i < distinct; ++i) {
                const pb::Program prog = timed(tr, "isa.compile", [&] {
                    return sut.fleet->compile(pool, i);
                });
                const pb::Interpreted ran = timed(tr, "isa.interpret", [&] {
                    return sut.fleet->interpret(prog);
                });
                instrs += static_cast<double>(ran.instructions);
            }
        std::uint64_t windows = 0;
        ++attempted;
        failed += decodeReplay(lib0, tr, 20, &windows) != 0;

        // Spans of the measured run and of the recalibration tail.
        const auto spans = [&](const char *name) {
            std::vector<double> d = tr.durations(name);
            const std::vector<double> t = tailTr.durations(name);
            d.insert(d.end(), t.begin(), t.end());
            return d;
        };
        const double coverage =
            (tr.total("server.queue") + tr.total("server.execute")) /
            tr.total("job");
        ++attempted;
        if (!(coverage >= kMinCoverage)) {
            ++failed;
            std::cerr << "trace coverage " << coverage << " is below "
                      << kMinCoverage << '\n';
        }

        const double n = static_cast<double>(traced.latency.size());
        const double rackMean =
            std::accumulate(delta.rackDone.begin(), delta.rackDone.end(),
                            0.0) /
            static_cast<double>(delta.rackDone.size());
        m.add("runtime.server.submit_us",
              1e6 * median(tr.durations("server.submit")), "us");
        m.add("runtime.server.queue_ms",
              1e3 * median(tr.durations("server.queue")), "ms");
        m.add("runtime.server.execute_ms",
              1e3 * median(tr.durations("server.execute")), "ms");
        m.add("runtime.server.batch_fill", delta.jobs / delta.batches,
              "jobs");
        m.add("runtime.server.rack_imbalance",
              *std::max_element(delta.rackDone.begin(),
                                delta.rackDone.end()) /
                  rackMean,
              "x");
        m.add("runtime.store.hit_rate",
              delta.hits / (delta.hits + delta.misses), "ratio");
        m.add("runtime.store.misses_per_job", delta.misses / delta.jobs,
              "count");
        m.add("host.sys_cpu_frac", traced.sys / (traced.cpu + 1e-12),
              "ratio");
        m.add("runtime.registry.swap_us",
              1e6 * median(spans("server.swap")), "us");
        m.add("runtime.registry.versions_live",
              static_cast<double>(sut.fleet->stats().versionsLive), "count");
        m.add("runtime.registry.recal_ms", 1e3 * median(recals), "ms");
        m.add("isa.compiler.compile_us",
              1e6 * median(tr.durations("isa.compile")), "us");
        m.add("isa.compiles_per_job", compiles / n, "count");
        m.add("isa.interpreter.ns_per_instruction",
              1e9 * tr.total("isa.interpret") / instrs, "ns");
        m.add("core.codec.decode_ns_per_window",
              1e9 * tr.total("codec.decode_windows") /
                  static_cast<double>(windows),
              "ns");
        m.add("core.library_compiler.compile_ms",
              1e3 * median(spans("library.compile")), "ms");
        m.add("uarch.words_read_per_job", traced.words / n, "count");
        m.add("uarch.peak_bandwidth_gbps",
              median(traced.peakBandwidth) / 1e9, "GB/s");
        m.add("trace.overhead_frac", 1.0 - traced.rate() / untraced.rate(),
              "ratio");
        m.add("trace.coverage", coverage, "ratio");
        if (!args.traceOut.empty()) {
            tr.absorb(tailTr);
            tr.write(args.traceOut);
        }
    }

    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": "
              << failed << ", \"metrics\": {" << m.str() << "}}"
              << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 2;
    }
}
