/**
 * @file
 * Every call the benchmark makes into the compaqt library (see
 * adapter.hh for the surfaces it restricts itself to). The compiled
 * back end is selected here, in fleetConfig(), and nowhere else.
 */

#include "adapter.hh"

#include <future>
#include <map>
#include <numeric>
#include <thread>
#include <utility>

#include "circuits/benchmarks.hh"
#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "circuits/transpiler.hh"
#include "common/rng.hh"
#include "core/codec.hh"
#include "core/library_compiler.hh"
#include "dsp/simd.hh"
#include "isa/compiler.hh"
#include "isa/interpreter.hh"
#include "runtime/server.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

using namespace compaqt;

namespace perfbench
{

// ------------------------------------------------------------ device

struct Device::Impl
{
    waveform::DeviceModel model;
};

namespace
{

circuits::SurfaceCode
patchD5()
{
    return circuits::makeSurfaceCode(5, circuits::SurfaceLayout::Rotated,
                                     1);
}

waveform::DeviceModel
makeModel(Machine m, int calibration)
{
    const std::string cal = "-cal" + std::to_string(calibration);
    if (m == Machine::SurfaceD5) {
        const auto sc = patchD5();
        return waveform::DeviceModel::synthetic(
            "perfbench-d5" + cal, sc.totalQubits(),
            sc.nativeCoupling().edges());
    }
    auto base = waveform::DeviceModel::ibm("washington");
    if (calibration == 0)
        return base;
    return waveform::DeviceModel::synthetic(
        "washington" + cal, base.numQubits(), base.coupling());
}

} // namespace

Device::Device(Machine m, int calibration)
    : impl_(std::make_unique<Impl>(Impl{makeModel(m, calibration)}))
{
}

Device::~Device() = default;

// ----------------------------------------------------------- library

struct Library::Impl
{
    std::shared_ptr<const core::CompressedLibrary> lib;
};

Library
compileLibrary(const Device &dev, int workers)
{
    core::LibraryCompilerConfig cfg;
    cfg.fidelity.base.codec = "int-dct";
    cfg.fidelity.base.windowSize = 16;
    cfg.fidelity.targetMse = 1e-5;
    cfg.workers = workers;
    auto result = core::LibraryCompiler(cfg).compile(
        waveform::PulseLibrary::build(dev.impl().model));
    return Library(std::make_shared<const Library::Impl>(
        Library::Impl{std::make_shared<const core::CompressedLibrary>(
            std::move(result.library))}));
}

// --------------------------------------------------------- schedules

struct SchedulePool::Impl
{
    std::vector<circuits::Schedule> schedules;
};

SchedulePool::SchedulePool() : impl_(std::make_unique<Impl>()) {}
SchedulePool::~SchedulePool() = default;
SchedulePool::SchedulePool(SchedulePool &&) noexcept = default;
SchedulePool &SchedulePool::operator=(SchedulePool &&) noexcept = default;

std::size_t
SchedulePool::size() const
{
    return impl_->schedules.size();
}

namespace
{

/** `n` distinct values of [0, bound), drawn from `rng`. */
std::vector<int>
distinctDraw(Rng &rng, int bound, int n)
{
    std::vector<int> all(static_cast<std::size_t>(bound));
    std::iota(all.begin(), all.end(), 0);
    for (int i = 0; i < n; ++i) {
        const auto j = static_cast<std::size_t>(i) +
                       rng.next() % static_cast<std::uint64_t>(bound - i);
        std::swap(all[static_cast<std::size_t>(i)], all[j]);
    }
    all.resize(static_cast<std::size_t>(n));
    return all;
}

/** A connected region of `n` qubits grown from a seeded start by
 *  randomized BFS over the coupling map. */
std::vector<int>
region(Rng &rng, const waveform::DeviceModel &dev, int n)
{
    const int nq = static_cast<int>(dev.numQubits());
    std::vector<char> seen(static_cast<std::size_t>(nq), 0);
    std::vector<int> out{static_cast<int>(rng.next() %
                                          static_cast<std::uint64_t>(nq))};
    seen[static_cast<std::size_t>(out[0])] = 1;
    for (std::size_t head = 0;
         head < out.size() && static_cast<int>(out.size()) < n; ++head) {
        auto next = dev.neighbors(out[head]);
        for (std::size_t i = next.size(); i > 1; --i)
            std::swap(next[i - 1], next[rng.next() % i]);
        for (int q : next) {
            if (static_cast<int>(out.size()) >= n)
                break;
            if (!seen[static_cast<std::size_t>(q)]) {
                seen[static_cast<std::size_t>(q)] = 1;
                out.push_back(q);
            }
        }
    }
    return out;
}

/** Random CX layers with single-qubit dressing on n logical qubits. */
circuits::Circuit
randomLayers(Rng &rng, int n, int layers)
{
    circuits::Circuit c(static_cast<std::size_t>(n));
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < n; ++q) {
            if (rng.next() % 2)
                c.sx(q);
            else
                c.x(q);
        }
        const auto order = distinctDraw(rng, n, n);
        for (int i = 0; i + 1 < n; i += 2)
            c.cx(order[static_cast<std::size_t>(i)],
                 order[static_cast<std::size_t>(i + 1)]);
    }
    return c;
}

/** Pool circuit i on n logical qubits. The kind cycles with i (and
 *  the random-layer depth with i / 16), so every pool holds the same
 *  mix of circuit kinds and sizes and only their contents and
 *  placement vary with the seed. */
circuits::Circuit
logicalCircuit(Rng &rng, std::size_t i, int n)
{
    switch (i % 4) {
      case 0:
        return circuits::qft(static_cast<std::size_t>(n));
      case 1:
        return circuits::qaoa(
            static_cast<std::size_t>(n),
            circuits::randomGraph(static_cast<std::size_t>(n), 0.4,
                                  rng.next()),
            1);
      case 2: {
          std::string secret(static_cast<std::size_t>(n - 1), '0');
          for (auto &ch : secret)
              ch = rng.next() % 2 ? '1' : '0';
          return circuits::bernsteinVazirani(secret);
      }
      default:
        return randomLayers(rng, n, 3 + static_cast<int>(i / 16 % 4));
    }
}

} // namespace

SchedulePool
qecPool(std::uint64_t seed, std::size_t variants)
{
    const auto sc = patchD5();
    const int data = static_cast<int>(sc.dataQubits.size());
    Rng rng(seed ^ 0x9ecc7c1e5ull);
    SchedulePool pool;
    for (std::size_t v = 0; v < variants; ++v) {
        circuits::Circuit c = sc.circuit;
        c.barrier();
        for (int q : distinctDraw(rng, data, 1 + static_cast<int>(v % 3)))
            c.x(sc.dataQubits[static_cast<std::size_t>(q)]);
        pool.impl().schedules.push_back(circuits::schedule(c, {}));
    }
    return pool;
}

SchedulePool
churnPool(std::uint64_t seed, std::size_t count)
{
    const auto dev = waveform::DeviceModel::ibm("washington");
    const circuits::CouplingMap map(dev.numQubits(), dev.coupling());
    Rng rng(seed ^ 0xc42a7ull);
    SchedulePool pool;
    pool.impl().schedules.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const int n = 6 + static_cast<int>(i / 4 % 4);
        const auto logical = circuits::decompose(logicalCircuit(rng, i, n));
        const auto where = region(rng, dev, n);
        circuits::Circuit placed(dev.numQubits());
        for (const auto &g : logical.gates()) {
            if (g.op == circuits::Op::Measure)
                continue;
            std::vector<int> qs;
            for (int q : g.qubits)
                qs.push_back(where[static_cast<std::size_t>(q)]);
            placed.add(g.op, std::move(qs), g.param);
        }
        for (int q : where)
            placed.measure(q);
        pool.impl().schedules.push_back(
            circuits::schedule(circuits::route(placed, map), {}));
    }
    return pool;
}

// ------------------------------------------------------------- fleet

struct Program::Impl
{
    isa::CompiledSchedule compiled;
};

struct Fleet::Impl
{
    runtime::Server server;
    std::vector<runtime::ScheduledCircuit> staged;
    std::vector<std::future<runtime::JobResult>> slots;
};

namespace
{

/** The one place the benchmark picks the execution back end. */
runtime::FleetConfig
fleetConfig(const FleetShape &shape)
{
    runtime::FleetConfig fc;
    fc.racks = shape.racks;
    fc.rack.numShards = shape.shards;
    fc.rack.policy = runtime::ShardPolicy::LocalityAware;
    fc.rack.controller.compressed = true;
    fc.rack.controller.windowSize = 16;
    fc.rack.controller.memoryWidth = shape.memoryWidth;
    fc.rack.cacheWindows = shape.storeWindows;
    fc.workers = shape.workers;
    fc.queueDepth = shape.queueDepth;
    fc.maxBatch = shape.maxBatch;
    fc.routing = runtime::RoutingPolicy::ConsistentHash;
    fc.backend = runtime::DispatchBackend::Compiled;
    fc.programCacheEntries = shape.programCacheEntries;
    return fc;
}

JobFacts
factsOf(const runtime::RackStats &s)
{
    JobFacts f;
    f.gates = s.totalGates;
    f.samples = s.totalSamples;
    f.windows = s.totalWindows;
    f.peakBanks = s.fleetPeakBanks;
    f.missingGates = s.missingGates;
    f.unownedEvents = s.unownedEvents;
    f.peakBandwidth = s.fleetPeakBandwidthBytesPerSec;
    for (const auto &sh : s.shards) {
        f.wordsRead += sh.demand.totalWordsRead;
        f.demandSamples += sh.demand.totalSamples;
    }
    return f;
}

} // namespace

Fleet::Fleet(const Device &dev, const Library &lib,
             const FleetShape &shape, std::size_t slots)
    : impl_(new Impl{runtime::Server(dev.impl().model, lib.impl().lib,
                                     fleetConfig(shape)),
                     std::vector<runtime::ScheduledCircuit>(slots),
                     std::vector<std::future<runtime::JobResult>>(slots)})
{
}

Fleet::~Fleet() = default;

void
Fleet::stage(std::size_t slot, const std::string &tenant,
             const SchedulePool &pool, std::size_t sched)
{
    auto &job = impl_->staged.at(slot);
    job.tenant = tenant;
    job.schedule = pool.impl().schedules.at(sched);
}

void
Fleet::submit(std::size_t slot)
{
    impl_->slots.at(slot) =
        impl_->server.submit(std::move(impl_->staged.at(slot)));
}

bool
Fleet::ready(std::size_t slot) const
{
    return impl_->slots.at(slot).wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

void
Fleet::wait(std::size_t slot, double seconds) const
{
    impl_->slots.at(slot).wait_for(std::chrono::duration<double>(seconds));
}

JobOutcome
Fleet::take(std::size_t slot)
{
    const runtime::JobResult r = impl_->slots.at(slot).get();
    JobOutcome o;
    o.completed = r.status == runtime::JobStatus::Completed;
    o.status = runtime::jobStatusName(r.status);
    o.error = r.error;
    o.libraryVersion = r.libraryVersion;
    o.rack = r.rack;
    o.queueSeconds = r.timing.queueSeconds;
    o.executeSeconds = r.timing.executeSeconds;
    if (o.completed)
        o.facts = factsOf(r.stats);
    return o;
}

std::uint64_t
Fleet::swapLibrary(const Library &lib)
{
    return impl_->server.swapLibrary(lib.impl().lib);
}

FleetStats
Fleet::stats() const
{
    const runtime::ServerStats s = impl_->server.stats();
    FleetStats f;
    f.completed = s.completed;
    f.batches = s.batchesDispatched;
    f.storeHits = s.cache.hits;
    f.storeMisses = s.cache.misses;
    for (const auto &r : s.racks)
        f.rackCompleted.push_back(r.completed);
    f.libraryVersion = s.libraryVersion;
    f.versionsLive = s.libraryVersionsLive;
    return f;
}

void
Fleet::drain()
{
    impl_->server.drain();
}

Program
Fleet::compile(const SchedulePool &pool, std::size_t sched) const
{
    const isa::Compiler compiler(impl_->server.rack(0));
    return {std::make_shared<Program::Impl>(
        Program::Impl{compiler.compile(pool.impl().schedules.at(sched))})};
}

Interpreted
Fleet::interpret(const Program &prog) const
{
    isa::Interpreter interp(impl_->server.rack(0));
    Interpreted out;
    for (const auto &program : prog.impl->compiled.programs) {
        const isa::InterpreterResult r = interp.run(program);
        out.instructions += r.stats.instructions;
    }
    return out;
}

std::vector<std::uint64_t>
Fleet::partFingerprints(const SchedulePool &pool, std::size_t sched) const
{
    const runtime::Rack &rack = impl_->server.rack(0);
    std::vector<std::uint64_t> out;
    for (const auto &part : circuits::partitionByOwner(
             pool.impl().schedules.at(sched), rack.plan().owner,
             rack.numShards()))
        out.push_back(circuits::scheduleFingerprint(part));
    return out;
}

// ------------------------------------------------------------- codec

struct CodecProbe::Impl
{
    std::shared_ptr<const core::CompressedLibrary> lib;
    std::vector<std::unique_ptr<core::ICodec>> codecs;
    std::vector<const core::CompressedChannel *> channels;
    std::vector<const core::ICodec *> codecOf;
};

CodecProbe::CodecProbe(const Library &lib)
    : impl_(std::make_unique<Impl>())
{
    impl_->lib = lib.impl().lib;
    std::map<std::pair<std::string, std::size_t>, const core::ICodec *>
        byKey;
    for (const auto &[id, entry] : impl_->lib->entries()) {
        for (const core::CompressedChannel *ch :
             {&entry.cw.i, &entry.cw.q}) {
            if (ch->isAdaptive() || ch->windowSize == 0)
                continue;
            auto &codec = byKey[{entry.cw.codec, ch->windowSize}];
            if (!codec) {
                impl_->codecs.push_back(
                    core::CodecRegistry::instance().create(
                        entry.cw.codec, ch->windowSize));
                codec = impl_->codecs.back().get();
            }
            impl_->channels.push_back(ch);
            impl_->codecOf.push_back(codec);
            channels_.push_back({ch->numWindows(), ch->numSamples});
        }
    }
}

CodecProbe::~CodecProbe() = default;

std::size_t
CodecProbe::decodeWindows(std::size_t i, double *out) const
{
    const core::CompressedChannel &ch = *impl_->channels.at(i);
    return impl_->codecOf[i]->decodeWindowsInto(
        ch, 0, ch.numWindows(), SampleSpan(out, ch.numSamples));
}

void
CodecProbe::decodeWhole(std::size_t i, double *out) const
{
    const core::CompressedChannel &ch = *impl_->channels.at(i);
    impl_->codecOf[i]->decodeInto(ch,
                                  SampleSpan(out, ch.numSamples));
}

HostInfo
hostInfo()
{
    HostInfo h;
    h.simdBackend = std::string(
        dsp::simd::backendName(dsp::simd::activeBackend()));
    h.hardwareThreads = std::thread::hardware_concurrency();
    return h;
}

} // namespace perfbench
