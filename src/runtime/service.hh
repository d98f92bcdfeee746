/**
 * @file
 * The rack's execution front end: accept a batch of scheduled
 * circuits, split every schedule across the fleet by qubit ownership,
 * execute the (circuit, shard) grid concurrently on a worker pool,
 * and roll the per-shard ExecutionStats up into one RackStats record
 * (fleet demand, waveform-memory model counters, wall-clock
 * throughput).
 *
 * Playback decodes every window of every scheduled gate's I/Q
 * channels, the way a COMPAQT controller IDCT-decodes its compressed
 * waveforms on the fly, and records each access in the shard's
 * waveform-memory model (hit rates, tier penalties, SRAM power).
 */

#ifndef COMPAQT_RUNTIME_SERVICE_HH
#define COMPAQT_RUNTIME_SERVICE_HH

#include <cstdint>
#include <vector>

#include "circuits/scheduler.hh"
#include "common/executor.hh"
#include "isa/compiler.hh"
#include "isa/program_cache.hh"
#include "runtime/rack.hh"

namespace compaqt::runtime
{

/** One shard's aggregate over a batch. */
struct ShardStats
{
    /** Bank/bandwidth demand: peaks are maxima over the batch,
     *  totals are sums. */
    uarch::ExecutionStats demand;
    /** Physical gate pulses played on this shard. */
    std::uint64_t gatesPlayed = 0;
    /** Compressed windows decoded. */
    std::uint64_t windowsDecoded = 0;
    /** Samples reconstructed for the shard's DACs. */
    std::uint64_t samplesDecoded = 0;
    /** Of samplesDecoded, samples served by the adaptive IDCT
     *  bypass as constant fills (never decoded, never modeled). */
    std::uint64_t samplesBypassed = 0;
    /** PREFETCH ops that warmed a cold window (instruction-stream
     *  back end only; zero on the direct path). Excluded from the
     *  two back ends' bit-identity contract, like the model
     *  counters. */
    std::uint64_t prefetchesIssued = 0;
};

/** Fleet-level rollup of one batch execution. */
struct RackStats
{
    std::vector<ShardStats> shards;

    // Fleet demand: per-shard peaks summed (each shard is its own
    // RFSoC, so the rack must provision the sum), feasible iff every
    // shard fit its bank budget.
    std::size_t fleetPeakBanks = 0;
    int fleetPeakChannels = 0;
    double fleetPeakBandwidthBytesPerSec = 0.0;
    bool feasible = true;

    std::uint64_t totalGates = 0;
    std::uint64_t totalSamples = 0;
    std::uint64_t totalBypassSamples = 0;
    std::uint64_t totalWindows = 0;
    std::uint64_t missingGates = 0;
    /** Scheduled events no shard owns (a qubit outside the rack's
     *  plan): dropped by partitioning, reported here so a
     *  schedule/device size mismatch is visible, not silent. */
    std::uint64_t unownedEvents = 0;
    /** Fleet sum of ShardStats::prefetchesIssued (zero on the direct
     *  path; excluded from back-end bit-identity). */
    std::uint64_t prefetchesIssued = 0;

    /** Waveform-memory model counters over this batch: the sum of
     *  each shard's column delta, with residency summed over the
     *  shards' models after the batch. Each column runs under its
     *  shard's lock in batch order, so the counters are identical at
     *  any worker count. */
    TieredStoreStats cache;
    double cacheHitRate = 0.0;

    // Wall-clock throughput of the batch execution.
    double wallSeconds = 0.0;
    double gatesPerSec = 0.0;
    double samplesPerSec = 0.0;
};

/** Service tuning knobs. */
struct ServiceConfig
{
    /** Worker threads (including the caller); >= 1. */
    int workers = 1;
    /**
     * Capacity of the compiled-program cache (entries, LRU). Keyed by
     * (schedule fingerprint, shard, library version), so a hot-swap
     * never serves a stale artifact — the old version's entries are
     * simply unreachable and get swept. 0 disables caching.
     */
    std::size_t programCacheEntries = 256;
};

/**
 * One batch execution with per-schedule attribution — the serving
 * plane's hook: runtime::Server coalesces jobs from many tenants into
 * one rack batch but must report each job its own result.
 */
struct BatchExecution
{
    /** Whole-batch rollup, identical to executeBatch()'s return. */
    RackStats total;
    /**
     * The library epoch the whole batch executed under. Batches pin
     * one epoch up front, so a hot-swap landing mid-batch never
     * splits a batch across calibrations — the swap takes effect at
     * the next batch.
     */
    std::uint64_t libraryVersion = 0;
    /**
     * Per-schedule rollups: jobs[j] covers only batch[j]'s cells of
     * the execution grid. Every field is a pure function of
     * (rack, batch[j]) — independent of batch composition, submission
     * interleaving, and worker count — except the model counters and
     * wall-clock throughput, which attribute only to the whole batch
     * and stay zero here.
     */
    std::vector<RackStats> jobs;
};

/**
 * Executes batches of scheduled circuits on one Rack. RackStats is
 * bit-identical across worker counts, wall-clock rates aside: every
 * (circuit, shard) cell is a pure function of its schedule slice,
 * each shard's column runs in batch order against that shard's own
 * model, and results reduce in a fixed order.
 */
class RuntimeService
{
  public:
    RuntimeService(const Rack &rack, const ServiceConfig &cfg = {});

    int workers() const { return exec_.workers(); }

    /** Execute one scheduled circuit (a batch of one). */
    RackStats execute(const circuits::Schedule &sched);

    /** Execute a batch of scheduled circuits across the fleet. */
    RackStats
    executeBatch(const std::vector<circuits::Schedule> &batch);

    /** Execute a batch and additionally roll up each schedule's own
     *  cells (see BatchExecution). */
    BatchExecution
    executeBatchPerJob(const std::vector<circuits::Schedule> &batch);

    /**
     * Execute through the instruction-stream back end: each cell is
     * lowered to a per-shard PLAY/WAIT/PREFETCH program by
     * isa::Compiler and driven by isa::Interpreter against the same
     * models. Every playback and demand field of RackStats (per-shard
     * demand and playback tallies, fleet rollups, missingGates,
     * unownedEvents, feasible) is bit-identical to executeBatch() at
     * any worker count; the model counters, wall-clock rates, and
     * prefetchesIssued differ by design — prefetching is the point.
     * @throws std::invalid_argument when a shard's mandatory stream
     *         exceeds cfg.instructionMemoryWords
     */
    RackStats
    executeCompiled(const circuits::Schedule &sched,
                    const isa::CompilerConfig &cfg = {});

    /** Batch form of executeCompiled(). */
    RackStats
    executeBatchCompiled(const std::vector<circuits::Schedule> &batch,
                         const isa::CompilerConfig &cfg = {});

    /** Compiled back end with per-schedule rollups. */
    BatchExecution executeBatchCompiledPerJob(
        const std::vector<circuits::Schedule> &batch,
        const isa::CompilerConfig &cfg = {});

    /** Compiled-program cache counters (hits/misses/stale sweeps). */
    isa::ProgramCacheStats
    programCacheStats() const
    {
        return progCache_.stats();
    }

  private:
    const Rack &rack_;
    common::Executor exec_;
    /** Compiled artifacts keyed by (schedule, shard, library
     *  version); shared across batches so steady-state serving of a
     *  repeating workload skips the compiler entirely. */
    mutable isa::ProgramCache progCache_;
};

} // namespace compaqt::runtime

#endif // COMPAQT_RUNTIME_SERVICE_HH
