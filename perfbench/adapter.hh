/**
 * @file
 * The benchmark's only view of the compaqt library. Every call into
 * src/ lives in adapter.cc; the benchmark program (main.cc) sees the
 * opaque types below and includes no compaqt header, so a refactor of
 * the library touches this pair of files and nothing else.
 *
 * Surfaces used: the fleet runtime::Server constructor, submit(),
 * swapLibrary(), stats() and the per-rack accessor; RackStats on
 * each JobResult; core::LibraryCompiler; ICodec::decodeWindowsInto
 * and decodeInto; isa::Compiler and isa::Interpreter; the rack's
 * shard plan with circuits::partitionByOwner and scheduleFingerprint
 * (for the program-cache model). The store's
 * own API, the single-rack Server constructor, the direct back end
 * and RuntimeService are deliberately not used.
 */

#ifndef PERFBENCH_ADAPTER_HH
#define PERFBENCH_ADAPTER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

/** The two machines the workloads drive. */
enum class Machine
{
    /** Synthetic distance-5 rotated surface-code patch (49 qubits). */
    SurfaceD5,
    /** The canned 127-qubit heavy-hex machine. */
    Washington,
};

/** A calibrated machine: calibration 0 is the machine itself, k > 0
 *  a synthetic twin with the same coupling whose name carries k, so
 *  every drifted calibration is deterministic. */
class Device
{
  public:
    Device(Machine m, int calibration);
    ~Device();
    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    struct Impl;
    const Impl &impl() const { return *impl_; }

  private:
    std::unique_ptr<Impl> impl_;
};

/** A compiled compressed pulse library (immutable, shareable). */
class Library
{
  public:
    struct Impl;
    explicit Library(std::shared_ptr<const Impl> impl)
        : impl_(std::move(impl))
    {
    }
    const Impl &impl() const { return *impl_; }

  private:
    std::shared_ptr<const Impl> impl_;
};

/** LibraryCompiler::compile over the device's pulse library at the
 *  paper operating point (int-DCT, WS=16, MSE 1e-5). */
Library compileLibrary(const Device &dev, int workers);

/** Seeded, immutable set of scheduled circuits. */
class SchedulePool
{
  public:
    SchedulePool();
    ~SchedulePool();
    SchedulePool(SchedulePool &&) noexcept;
    SchedulePool &operator=(SchedulePool &&) noexcept;

    std::size_t size() const;

    struct Impl;
    const Impl &impl() const { return *impl_; }
    Impl &impl() { return *impl_; }

  private:
    std::unique_ptr<Impl> impl_;
};

/**
 * Decoder-feedback cycles on the d=5 patch: `variants` schedules,
 * each one syndrome round followed by a seeded X correction on a few
 * data qubits (the decoder's output for the previous round).
 */
SchedulePool qecPool(std::uint64_t seed, std::size_t variants);

/**
 * Transpiled benchmark circuits (qft, qaoa, Bernstein-Vazirani,
 * random CX layers) on 6-9 qubits, placed on seeded connected regions
 * of the washington coupling map; `count` distinct schedules. Kinds
 * and sizes cycle with the index, so only contents and placement vary
 * with the seed.
 */
SchedulePool churnPool(std::uint64_t seed, std::size_t count);

/** Deterministic per-job fields; equal to the synchronous
 *  reference for the same (schedule, calibration). */
struct JobFacts
{
    std::uint64_t gates = 0;
    std::uint64_t samples = 0;
    std::uint64_t windows = 0;
    std::uint64_t peakBanks = 0;
    std::uint64_t missingGates = 0;
    std::uint64_t unownedEvents = 0;
    /** Sum over shards of ExecutionStats::totalWordsRead. */
    std::uint64_t wordsRead = 0;
    /** Sum over shards of the uncompressed samples those words
     *  stand for (ExecutionStats::totalSamples). */
    std::uint64_t demandSamples = 0;
    /** Fleet peak waveform-memory bandwidth, bytes/s. */
    double peakBandwidth = 0.0;

    bool operator==(const JobFacts &) const = default;
};

/** What one job's future resolved to. */
struct JobOutcome
{
    bool completed = false;
    /** "Completed", "Rejected", "Cancelled" or "Failed". */
    std::string status;
    std::string error;
    JobFacts facts;
    std::uint64_t libraryVersion = 0;
    int rack = -1;
    double queueSeconds = 0.0;
    double executeSeconds = 0.0;
};

/** Serving-fleet shape. */
struct FleetShape
{
    int racks = 1;
    int shards = 2;
    int workers = 2;
    std::size_t storeWindows = 4096;
    std::size_t maxBatch = 32;
    std::size_t queueDepth = 256;
    std::size_t programCacheEntries = 256;
    /** Controller memory width in words per window; must cover every
     *  calibration the fleet will be swapped to. */
    std::size_t memoryWidth = 3;
};

/** ServerStats fields the benchmark reads. */
struct FleetStats
{
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    std::vector<std::uint64_t> rackCompleted;
    std::uint64_t libraryVersion = 0;
    std::size_t versionsLive = 0;
};

/** A compiled per-shard instruction program set (isa layer probe). */
struct Program
{
    struct Impl;
    std::shared_ptr<const Impl> impl;
};

/** Instructions one interpreted program set executed. */
struct Interpreted
{
    std::uint64_t instructions = 0;
};

/**
 * The system under test: a fleet runtime::Server on the compiled
 * back end, plus a fixed set of outstanding-job slots the closed-loop
 * generator submits into and harvests from.
 */
class Fleet
{
  public:
    Fleet(const Device &dev, const Library &lib, const FleetShape &shape,
          std::size_t slots);
    ~Fleet();
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** Copy schedule `sched` of `pool` into an empty slot as
     *  `tenant`'s next job. */
    void stage(std::size_t slot, const std::string &tenant,
               const SchedulePool &pool, std::size_t sched);
    /** Server::submit() of the staged job. */
    void submit(std::size_t slot);
    /** True once the slot's future is ready (never blocks). */
    bool ready(std::size_t slot) const;
    /** Wait up to `seconds` for the slot's future. */
    void wait(std::size_t slot, double seconds) const;
    /** Block for the slot's result and empty the slot. */
    JobOutcome take(std::size_t slot);

    /** Validate and publish a recalibrated library; returns its
     *  version. */
    std::uint64_t swapLibrary(const Library &lib);
    FleetStats stats() const;
    void drain();

    /** isa::Compiler::compile of one schedule on rack 0 against the
     *  current calibration. */
    Program compile(const SchedulePool &pool, std::size_t sched) const;
    /** isa::Interpreter::run of every shard program on rack 0. */
    Interpreted interpret(const Program &prog) const;
    /** The content fingerprint of each shard's part of schedule
     *  `sched` (index = shard): with the shard and the library
     *  version, the key a rack's program cache files that part's
     *  program under. Every empty part hashes alike. */
    std::vector<std::uint64_t> partFingerprints(const SchedulePool &pool,
                                                std::size_t sched) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** One non-adaptive channel of a library, for the codec probe. */
struct Channel
{
    std::size_t windows = 0;
    std::size_t samples = 0;
};

/** Codec probe over one library: a codec instance per window size
 *  and the library's window-decodable channels. */
class CodecProbe
{
  public:
    explicit CodecProbe(const Library &lib);
    ~CodecProbe();
    CodecProbe(const CodecProbe &) = delete;
    CodecProbe &operator=(const CodecProbe &) = delete;

    const std::vector<Channel> &channels() const { return channels_; }
    /** ICodec::decodeWindowsInto over every window of channel i;
     *  `out` holds channels()[i].samples. */
    std::size_t decodeWindows(std::size_t i, double *out) const;
    /** ICodec::decodeInto of the whole channel (the reference). */
    void decodeWhole(std::size_t i, double *out) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    std::vector<Channel> channels_;
};

/** Build environment facts for the reproducibility header. */
struct HostInfo
{
    std::string simdBackend;
    unsigned hardwareThreads = 0;
};
HostInfo hostInfo();

} // namespace perfbench

#endif // PERFBENCH_ADAPTER_HH
