/**
 * @file
 * Tests for the sharded control-rack runtime: shard-plan determinism
 * and locality, schedule partitioning, the per-shard waveform-memory
 * model (LRU and tier behavior against a reference LRU and against
 * per-window access), the worker pool, and the headline concurrency
 * contract — N-worker batch execution produces bit-identical per-shard
 * demand and model counters to 1-worker execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <list>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "core/adaptive.hh"
#include "core/decompressor.hh"
#include "core/pipeline.hh"
#include "dsp/int_dct.hh"
#include "common/executor.hh"
#include "runtime/playback.hh"
#include "runtime/rack.hh"
#include "runtime/service.hh"
#include "runtime/tiered_store.hh"
#include "telemetry/metrics.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

namespace compaqt::runtime
{
namespace
{

core::CompressedLibrary
buildCompressed(const waveform::PulseLibrary &lib, std::size_t ws = 16)
{
    return core::CompressionPipeline::with("int-dct")
        .window(ws)
        .mseTarget(1e-5)
        .build()
        .compressLibrary(lib);
}

uarch::ControllerConfig
controllerConfig(const core::CompressedLibrary &clib)
{
    uarch::ControllerConfig cc;
    cc.compressed = true;
    cc.windowSize = 16;
    cc.memoryWidth = clib.worstCaseWindowWords();
    return cc;
}

// ----------------------------------------------------------- shard plans

TEST(ShardPlan, RoundRobinAssignment)
{
    const auto dev = waveform::DeviceModel::ibm("guadalupe");
    const auto plan =
        makeShardPlan(dev, 4, ShardPolicy::RoundRobin);
    ASSERT_EQ(plan.owner.size(), 16u);
    for (std::size_t q = 0; q < plan.owner.size(); ++q)
        EXPECT_EQ(plan.owner[q], static_cast<int>(q) % 4);
    for (const auto &qs : plan.shards)
        EXPECT_EQ(qs.size(), 4u);
}

TEST(ShardPlan, PlansAreDeterministic)
{
    const auto dev = waveform::DeviceModel::ibm("guadalupe");
    for (const auto policy :
         {ShardPolicy::RoundRobin, ShardPolicy::LocalityAware}) {
        const auto a = makeShardPlan(dev, 3, policy);
        const auto b = makeShardPlan(dev, 3, policy);
        EXPECT_EQ(a.owner, b.owner) << shardPolicyName(policy);
        EXPECT_EQ(a.shards, b.shards) << shardPolicyName(policy);
    }
}

TEST(ShardPlan, LocalityCoversAndBalances)
{
    const auto dev = waveform::DeviceModel::ibm("toronto"); // 27 q
    const auto plan =
        makeShardPlan(dev, 4, ShardPolicy::LocalityAware);
    std::set<int> seen;
    std::size_t total = 0;
    for (const auto &qs : plan.shards) {
        // 27 over 4: blocks of 7/7/7/6.
        EXPECT_GE(qs.size(), 6u);
        EXPECT_LE(qs.size(), 7u);
        total += qs.size();
        seen.insert(qs.begin(), qs.end());
        for (int q : qs)
            EXPECT_EQ(plan.owner[static_cast<std::size_t>(q)],
                      plan.owner[static_cast<std::size_t>(qs[0])]);
    }
    EXPECT_EQ(total, 27u);
    EXPECT_EQ(seen.size(), 27u);
}

TEST(ShardPlan, LocalityKeepsMoreCouplingsLocal)
{
    const auto dev = waveform::DeviceModel::ibm("brooklyn"); // 65 q
    const auto local =
        makeShardPlan(dev, 4, ShardPolicy::LocalityAware);
    const auto rr = makeShardPlan(dev, 4, ShardPolicy::RoundRobin);
    auto intra = [&](const ShardPlan &p) {
        int n = 0;
        for (const auto &[a, b] : dev.coupling())
            if (p.owner[static_cast<std::size_t>(a)] ==
                p.owner[static_cast<std::size_t>(b)])
                ++n;
        return n;
    };
    EXPECT_GT(intra(local), intra(rr));
}

TEST(ShardPlan, RejectsZeroShards)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    EXPECT_THROW(makeShardPlan(dev, 0, ShardPolicy::RoundRobin),
                 std::invalid_argument);
}

// ---------------------------------------------------------- partitioning

TEST(Partition, SplitsByFirstQubitOwner)
{
    circuits::Circuit c(4);
    c.x(0);
    c.cx(1, 2); // owned by qubit 1's shard
    c.x(3);
    c.measureAll();
    const auto sched = circuits::schedule(c, {});
    const std::vector<int> owner = {0, 0, 1, 1};
    const auto parts = circuits::partitionByOwner(sched, owner, 2);
    ASSERT_EQ(parts.size(), 2u);
    std::size_t total = 0;
    for (std::size_t p = 0; p < parts.size(); ++p) {
        for (const auto &e : parts[p].events) {
            EXPECT_EQ(owner[static_cast<std::size_t>(
                          e.gate.qubits[0])],
                      static_cast<int>(p));
            EXPECT_LE(e.start + e.duration, parts[p].makespan);
        }
        total += parts[p].events.size();
    }
    EXPECT_EQ(total, sched.events.size());
    // The CX on (1, 2) crosses the cut and lands on qubit 1's shard.
    EXPECT_EQ(parts[0].events.size(), 4u); // X0, CX(1,2), M0, M1
    EXPECT_EQ(parts[1].events.size(), 3u); // X3, M2, M3
}

TEST(Partition, PreservesGlobalStartTimes)
{
    const auto sc = circuits::surface17();
    const auto sched = circuits::schedule(sc.circuit, {});
    std::vector<int> owner(sc.totalQubits());
    for (std::size_t q = 0; q < owner.size(); ++q)
        owner[q] = static_cast<int>(q) % 3;
    const auto parts = circuits::partitionByOwner(sched, owner, 3);
    for (const auto &part : parts) {
        for (const auto &e : part.events)
            EXPECT_LE(e.start + e.duration, sched.makespan);
        EXPECT_LE(part.makespan, sched.makespan);
    }
}

// ------------------------------------------------ waveform-memory model

DecodedWindowKey
key(int q, std::uint32_t w)
{
    return {waveform::GateId{waveform::GateType::X, q, -1}, 0, w};
}

TEST(TieredStore, LruEvictionOrder)
{
    TieredWindowStore store(2);
    EXPECT_FALSE(store.access(key(0, 0), 8));
    EXPECT_FALSE(store.access(key(1, 0), 8));
    EXPECT_TRUE(store.access(key(0, 0), 8));  // qubit 0 becomes MRU
    EXPECT_FALSE(store.access(key(2, 0), 8)); // evicts qubit 1 (LRU)
    EXPECT_TRUE(store.access(key(0, 0), 8));  // still resident
    EXPECT_FALSE(store.access(key(1, 0), 8)); // evicted above

    const auto s = store.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.residentSamples, 16u); // one window size per tag
    EXPECT_NEAR(s.hitRate(), 2.0 / 6.0, 1e-12);
}

TEST(TieredStore, CapacityZeroHoldsNothing)
{
    TieredWindowStore store(0);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(store.access(key(0, 0), 8));
    const auto s = store.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.entries, 0u);
}

/** A seeded trace of replayed window ranges: a few channels under a
 *  few library versions, each played from a random first window for a
 *  random length, so runs form, overlap, split and get evicted, and
 *  channel slot vectors grow (windows up to ~300), drain and get
 *  reused. */
struct RangeTrace
{
    std::uint64_t state = 12345;

    std::uint32_t
    next(std::uint32_t bound)
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>((state >> 33) % bound);
    }

    /** (first key, count) of the next range. */
    std::pair<DecodedWindowKey, std::uint32_t>
    range()
    {
        DecodedWindowKey k = key(static_cast<int>(next(6)),
                                 next(8) == 0 ? next(300) : next(4));
        k.channel = static_cast<std::uint8_t>(next(2));
        k.libVersion = next(3);
        return {k, 1 + next(next(4) == 0 ? 12 : 3)};
    }
};

TEST(TieredStore, MatchesReferenceLruOnRandomTrace)
{
    // The intrusive LRU lists and the recorded-run block moves must
    // behave exactly like a textbook per-window LRU.
    constexpr std::size_t kCapacity = 17;
    TieredWindowStore store(kCapacity);
    std::list<DecodedWindowKey> ref; // MRU at the front
    RangeTrace trace;
    for (int i = 0; i < 20000; ++i) {
        const auto [first, count] = trace.range();
        std::uint32_t want = 0;
        for (DecodedWindowKey k = first; k.window < first.window + count;
             ++k.window) {
            const auto it = std::find(ref.begin(), ref.end(), k);
            if (it != ref.end()) {
                ++want;
                ref.erase(it);
            }
            ref.push_front(k);
            if (ref.size() > kCapacity)
                ref.pop_back();
        }
        ASSERT_EQ(store.access(first, 8, count), want) << "access " << i;
    }
    EXPECT_EQ(store.stats().entries, kCapacity);
}

TEST(TieredStore, RangeAccessMatchesPerWindowAccess)
{
    // One range access is exactly `count` single-window accesses, on
    // every model shape, with prefetches mixed in.
    for (const auto policy :
         {AdmissionPolicy::AdmitAlways, AdmissionPolicy::TinyLfu}) {
        for (const std::size_t tier1 : {0, 9}) {
            const TieredStoreConfig cfg{7, tier1, policy};
            TieredWindowStore ranged(cfg);
            TieredWindowStore single(cfg);
            RangeTrace trace;
            for (int i = 0; i < 20000; ++i) {
                const auto [first, count] = trace.range();
                if (trace.next(8) == 0) {
                    const auto tier = static_cast<std::uint8_t>(trace.next(2));
                    ASSERT_EQ(ranged.prefetch(first, 8, tier),
                              single.prefetch(first, 8, tier));
                    continue;
                }
                std::uint32_t hits = 0;
                for (DecodedWindowKey k = first;
                     k.window < first.window + count; ++k.window)
                    hits += single.access(k, 8);
                ASSERT_EQ(ranged.access(first, 8, count), hits)
                    << admissionPolicyName(policy) << " tier1 " << tier1
                    << " access " << i;
            }
            const auto a = ranged.stats(), b = single.stats();
            EXPECT_EQ(a.hits, b.hits);
            EXPECT_EQ(a.evictions, b.evictions);
            EXPECT_EQ(a.promotions, b.promotions);
            EXPECT_EQ(a.demotions, b.demotions);
            EXPECT_EQ(a.prefetchHits, b.prefetchHits);
            EXPECT_EQ(a.prefetchWasted, b.prefetchWasted);
            EXPECT_EQ(a.tier[0].admitRejected, b.tier[0].admitRejected);
            EXPECT_EQ(a.tier[1].entries, b.tier[1].entries);
            EXPECT_GT(a.hits, 0u);
            EXPECT_GT(a.evictions + a.demotions, 0u);
        }
    }
}

TEST(TieredStore, RetiredVersionsReleaseTheirSlots)
{
    // Every library version is a new set of channels; once a retired
    // version's tags age out, its slot vectors must go with them, so
    // the index never holds more channels than resident tags.
    for (const auto policy :
         {AdmissionPolicy::AdmitAlways, AdmissionPolicy::TinyLfu}) {
        TieredWindowStore store(TieredStoreConfig{12, 5, policy});
        for (std::uint64_t v = 1; v <= 1000; ++v) {
            for (int q = 0; q < 3; ++q) {
                DecodedWindowKey k = key(q, 0);
                k.libVersion = v;
                store.access(k, 8, 6);
                k.window = 40;
                store.prefetch(k, 8, static_cast<std::uint8_t>(v & 1));
                ASSERT_LE(store.indexedChannels(), store.stats().entries)
                    << admissionPolicyName(policy) << " version " << v;
            }
        }
        EXPECT_GT(store.stats().evictions, 1000u);
        EXPECT_LE(store.indexedChannels(), 17u);
    }
}

TEST(TieredStore, SingleWindowMoveSplitsARecordedRun)
{
    // A replayed range is recorded as a run and later moves as one
    // block; touching one of its windows alone (here a PREFETCH of a
    // resident window) must split it, or the next replay would move
    // a block that no longer holds the run.
    TieredWindowStore store(6);
    const auto w = [](std::uint32_t i) { return key(0, i); };
    EXPECT_EQ(store.access(w(0), 8, 4), 0u); // [w3 w2 w1 w0]
    EXPECT_EQ(store.access(w(0), 8, 4), 4u); // recorded as a run
    EXPECT_EQ(store.access(w(0), 8, 4), 4u); // moved as one block
    EXPECT_FALSE(store.prefetch(w(2), 8));   // [w2 w3 w1 w0]
    store.access(key(1, 0), 8, 2);           // [q1w1 q1w0 w2 w3 w1 w0]
    EXPECT_EQ(store.access(w(0), 8, 4), 4u); // [w3 w2 w1 w0 q1w1 q1w0]
    store.access(key(2, 0), 8);              // evicts q1w0, not w2
    EXPECT_EQ(store.access(w(2), 8), 1u);
    EXPECT_EQ(store.access(key(1, 1), 8), 1u);
    EXPECT_EQ(store.access(key(1, 0), 8), 0u);
}

TEST(TieredStore, PrefetchCountersTrackClaims)
{
    TieredWindowStore store(2);
    // Cold prefetch: placed, touching neither demand counter.
    EXPECT_TRUE(store.prefetch(key(0, 0), 8));
    auto s = store.stats();
    EXPECT_EQ(s.prefetches, 1u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);

    // First demand access claims it: a hit plus exactly one
    // prefetchHit; later accesses are plain hits.
    EXPECT_TRUE(store.access(key(0, 0), 8));
    EXPECT_TRUE(store.access(key(0, 0), 8));
    s = store.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.prefetchHits, 1u);
    EXPECT_EQ(s.prefetchWasted, 0u);
}

TEST(TieredStore, UnclaimedPrefetchCountsWasted)
{
    TieredWindowStore store(1);
    store.prefetch(key(0, 0), 8);
    // Evicted by demand traffic before any access touched it.
    store.access(key(1, 0), 8);
    const auto s = store.stats();
    EXPECT_EQ(s.prefetches, 1u);
    EXPECT_EQ(s.prefetchHits, 0u);
    EXPECT_EQ(s.prefetchWasted, 1u);
}

TEST(TieredStore, PrefetchIsANoOpWhenDisabledOrResident)
{
    TieredWindowStore off(0);
    EXPECT_FALSE(off.prefetch(key(0, 0), 8));
    EXPECT_EQ(off.stats().prefetches, 0u);

    // Resident key: recency refresh only — no counters, but the tag
    // becomes MRU and survives the next eviction.
    TieredWindowStore store(2);
    store.access(key(0, 0), 8);                // [k0]
    store.access(key(1, 0), 8);                // [k1 k0]
    EXPECT_FALSE(store.prefetch(key(0, 0), 8)); // [k0 k1]
    EXPECT_EQ(store.stats().prefetches, 0u);
    store.access(key(2, 0), 8); // evicts k1, not k0
    EXPECT_TRUE(store.access(key(0, 0), 8));
    const auto s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.evictions, 1u);
}

TEST(WindowDecode, DefaultWindowHookMatchesChannelSlice)
{
    // The base-class decompressWindow (decode-and-slice) must agree
    // with decompressChannel for codecs that do not override it.
    const auto wf = waveform::drag(144, 36.0, 0.2, 1.2);
    const core::Compressor comp({"dct-w", 16, 1e-3});
    const auto cw = comp.compress(wf);
    const core::Decompressor dec;
    const auto golden = dec.decompressChannel(cw.i, cw.codec);
    std::vector<double> assembled;
    std::vector<double> window;
    for (std::uint32_t w = 0; w < cw.i.windows.size(); ++w) {
        dec.decompressWindow(cw.i, cw.codec, w, window);
        assembled.insert(assembled.end(), window.begin(),
                         window.end());
    }
    EXPECT_EQ(assembled, golden);

    // DCT-N's single whole-waveform window slices the same way.
    const core::Compressor whole({"dct-n", 0, 1e-3});
    const auto cwn = whole.compress(wf);
    ASSERT_EQ(cwn.i.windows.size(), 1u);
    dec.decompressWindow(cwn.i, cwn.codec, 0, window);
    EXPECT_EQ(window, dec.decompressChannel(cwn.i, cwn.codec));
}

// ----------------------------------------------- hierarchical model

TEST(TieredStore, AdmitAlwaysDemotesAndPromotesAcrossTiers)
{
    TieredWindowStore store({1, 2, AdmissionPolicy::AdmitAlways});

    store.access(key(0, 0), 8); // A -> tier 0
    store.access(key(1, 0), 8); // B -> t0, A -> t1
    auto s = store.stats();
    EXPECT_EQ(s.demotions, 1u);
    EXPECT_EQ(s.tier[0].entries, 1u);
    EXPECT_EQ(s.tier[1].entries, 1u);

    // A is served from tier 1 (penalty charged, tier-0 miss + tier-1
    // hit recorded) and — having proven reuse by being demoted —
    // promotes straight back, demoting B.
    EXPECT_TRUE(store.access(key(0, 0), 8));
    s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.tier[1].hits, 1u);
    EXPECT_EQ(s.tier[0].misses, 3u); // 2 cold + 1 tier-1-served
    EXPECT_EQ(s.promotions, 1u);
    EXPECT_EQ(s.demotions, 2u);
    // tier-1 traffic: demote A, hit A, demote B.
    EXPECT_EQ(s.tier1Accesses, 3u);
    EXPECT_EQ(s.penaltyCycles, 3u * kTier1PenaltyCycles);
    EXPECT_EQ(s.tier[0].hits, 0u);
    EXPECT_NEAR(s.hitRate(), 1.0 / 3.0, 1e-12);
}

TEST(TieredStore, TinyLfuChallengesTheVictimFrequency)
{
    TieredWindowStore store({2, 0, AdmissionPolicy::TinyLfu});

    // Warm A and B to frequency 2 each (every access feeds the
    // sketch).
    for (int pass = 0; pass < 2; ++pass) {
        store.access(key(0, 0), 8);
        store.access(key(1, 0), 8);
    }
    ASSERT_EQ(store.stats().hits, 2u);

    // A cold challenger cannot displace a warmer victim: the first
    // two C accesses lose the frequency duel and are held nowhere.
    EXPECT_FALSE(store.access(key(2, 0), 8));
    EXPECT_FALSE(store.access(key(2, 0), 8));
    auto s = store.stats();
    EXPECT_EQ(s.tier[0].admitRejected, 2u);
    EXPECT_EQ(s.evictions, 0u);

    // Third access: C's estimate (3) now beats the LRU victim's (2),
    // so it is admitted and the victim is dropped.
    EXPECT_FALSE(store.access(key(2, 0), 8));
    s = store.stats();
    EXPECT_EQ(s.tier[0].admitted, 3u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_TRUE(store.access(key(2, 0), 8));
    EXPECT_EQ(store.stats().hits, 3u); // warm passes + resident C
}

TEST(TieredStore, RegistryCountersTrackTierTraffic)
{
    auto &reg = telemetry::Registry::global();
    const std::uint64_t hit0 = reg.counter("cache.tier0.hit").value();
    const std::uint64_t hit1 = reg.counter("cache.tier1.hit").value();
    const std::uint64_t miss0 =
        reg.counter("cache.tier0.miss").value();
    const std::uint64_t promote0 =
        reg.counter("cache.tier0.promote").value();
    const std::uint64_t demote0 =
        reg.counter("cache.tier0.demote").value();
    const std::uint64_t rejected0 =
        reg.counter("cache.tier0.admit_rejected").value();

    TieredWindowStore store({1, 2, AdmissionPolicy::AdmitAlways});
    store.access(key(0, 0), 8);
    store.access(key(1, 0), 8); // demotes A
    store.access(key(0, 0), 8); // t1 hit, promotes
    store.access(key(0, 0), 8); // t0 hit
    // Deltas reach the registry in batches, never per access.
    EXPECT_EQ(reg.counter("cache.tier0.hit").value(), hit0);
    store.publishMetrics();
    const auto s = store.stats();

    EXPECT_EQ(reg.counter("cache.tier0.hit").value() - hit0,
              s.tier[0].hits);
    EXPECT_EQ(reg.counter("cache.tier1.hit").value() - hit1,
              s.tier[1].hits);
    EXPECT_EQ(reg.counter("cache.tier0.miss").value() - miss0,
              s.tier[0].misses);
    EXPECT_EQ(reg.counter("cache.tier0.promote").value() - promote0,
              s.promotions);
    EXPECT_EQ(reg.counter("cache.tier0.demote").value() - demote0,
              s.demotions);
    EXPECT_EQ(
        reg.counter("cache.tier0.admit_rejected").value() - rejected0,
        s.tier[0].admitRejected);
    EXPECT_GT(s.tier[1].hits, 0u);
    EXPECT_GT(s.promotions, 0u);
}

TEST(TieredStore, StatsAccumulateAdvanceAndDeltaRoundTrip)
{
    TieredWindowStore store({1, 2, AdmissionPolicy::AdmitAlways});
    store.access(key(0, 0), 8);
    const auto before = store.stats();
    store.access(key(1, 0), 8);
    store.access(key(0, 0), 8);
    const auto after = store.stats();

    const auto d = TieredStoreStats::delta(before, after);
    EXPECT_EQ(d.hits, after.hits - before.hits);
    EXPECT_EQ(d.misses, 1u);
    EXPECT_EQ(d.tier1Accesses, after.tier1Accesses - before.tier1Accesses);
    EXPECT_EQ(d.entries, after.entries); // residency takes the endpoint
    EXPECT_EQ(d.residentSamples, after.residentSamples);

    // accumulate() folds disjoint models (shards, racks): everything
    // sums, residency included.
    TieredStoreStats sum;
    sum.accumulate(after);
    sum.accumulate(after);
    EXPECT_EQ(sum.hits, 2 * after.hits);
    EXPECT_EQ(sum.tier[1].hits, 2 * after.tier[1].hits);
    EXPECT_EQ(sum.penaltyCycles, 2 * after.penaltyCycles);
    EXPECT_EQ(sum.entries, 2 * after.entries);
    EXPECT_EQ(sum.tier[1].residentSamples,
              2 * after.tier[1].residentSamples);

    // advance() folds successive deltas of one model: counters sum,
    // residency is the latest.
    TieredStoreStats run;
    run.advance(before);
    run.advance(d);
    EXPECT_EQ(run.hits, after.hits);
    EXPECT_EQ(run.misses, after.misses);
    EXPECT_EQ(run.demotions, after.demotions);
    EXPECT_EQ(run.entries, after.entries);
    EXPECT_EQ(run.residentSamples, after.residentSamples);
}

// --------------------------------------------------------------- executor

TEST(Executor, RunsEveryJobExactlyOnce)
{
    for (const int workers : {1, 2, 8}) {
        common::Executor exec(workers);
        std::vector<int> counts(257, 0);
        exec.forEach(counts.size(), [&](std::size_t i) {
            // Each index is claimed by exactly one worker, so no
            // synchronization is needed on counts[i].
            counts[i] += 1;
        });
        for (std::size_t i = 0; i < counts.size(); ++i)
            ASSERT_EQ(counts[i], 1)
                << "workers=" << workers << " i=" << i;
    }
}

TEST(Executor, PropagatesFirstException)
{
    for (const int workers : {1, 4}) {
        common::Executor exec(workers);
        EXPECT_THROW(exec.forEach(16,
                                  [](std::size_t i) {
                                      if (i == 5)
                                          throw std::runtime_error(
                                              "job failed");
                                  }),
                     std::runtime_error)
            << "workers=" << workers;
    }
}

TEST(Executor, ReusableAcrossBatches)
{
    common::Executor exec(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> ran{0};
        exec.forEach(32, [&](std::size_t) { ++ran; });
        ASSERT_EQ(ran.load(), 32);
    }
}

// ------------------------------------------- rack + service end to end

/** Shared 49-qubit surface-code fixture (expensive to compress; built
 *  once for the suite). */
class RackSurface49 : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        const auto sc = circuits::makeSurfaceCode(
            5, circuits::SurfaceLayout::Rotated, 1);
        dev_ = new waveform::DeviceModel(
            waveform::DeviceModel::synthetic(
                "surface49-device", sc.totalQubits(),
                sc.nativeCoupling().edges()));
        lib_ = new waveform::PulseLibrary(
            waveform::PulseLibrary::build(*dev_));
        clib_ = new core::CompressedLibrary(buildCompressed(*lib_));
        sched_ = new circuits::Schedule(
            circuits::schedule(sc.circuit, {}));
    }

    static void
    TearDownTestSuite()
    {
        delete sched_;
        delete clib_;
        delete lib_;
        delete dev_;
        sched_ = nullptr;
        clib_ = nullptr;
        lib_ = nullptr;
        dev_ = nullptr;
    }

    RackConfig
    rackConfig(int shards, std::size_t cache_windows) const
    {
        RackConfig rc;
        rc.numShards = shards;
        rc.policy = ShardPolicy::LocalityAware;
        rc.controller = controllerConfig(*clib_);
        rc.cacheWindows = cache_windows;
        return rc;
    }

    static waveform::DeviceModel *dev_;
    static waveform::PulseLibrary *lib_;
    static core::CompressedLibrary *clib_;
    static circuits::Schedule *sched_;
};

waveform::DeviceModel *RackSurface49::dev_ = nullptr;
waveform::PulseLibrary *RackSurface49::lib_ = nullptr;
core::CompressedLibrary *RackSurface49::clib_ = nullptr;
circuits::Schedule *RackSurface49::sched_ = nullptr;

TEST_F(RackSurface49, StatsRollupIsConsistent)
{
    // Cache sized to the workload's unique-window working set, so
    // the batch's second circuit replays from cache.
    const Rack rack(*dev_, *clib_, rackConfig(4, 1 << 15));
    RuntimeService svc(rack, {.workers = 1});
    const auto stats = svc.executeBatch({*sched_, *sched_});

    ASSERT_EQ(stats.shards.size(), 4u);
    std::uint64_t gates = 0, samples = 0, windows = 0;
    std::size_t banks = 0;
    for (const auto &sh : stats.shards) {
        gates += sh.gatesPlayed;
        samples += sh.samplesDecoded;
        windows += sh.windowsDecoded;
        banks += sh.demand.peakBanks;
        // Every sample the demand model charges is decoded by
        // playback, and vice versa.
        EXPECT_EQ(sh.samplesDecoded, sh.demand.totalSamples);
        EXPECT_EQ(sh.demand.missingGates, 0u);
    }
    EXPECT_EQ(stats.totalGates, gates);
    EXPECT_EQ(stats.totalSamples, samples);
    EXPECT_EQ(stats.totalWindows, windows);
    EXPECT_EQ(stats.fleetPeakBanks, banks);
    EXPECT_GT(stats.totalGates, 0u);
    EXPECT_TRUE(stats.feasible);
    // Same schedule twice through a shared cache: plenty of hits.
    EXPECT_GT(stats.cacheHitRate, 0.4);
    EXPECT_EQ(stats.cache.hits + stats.cache.misses,
              stats.totalWindows);
}

TEST_F(RackSurface49, WorkerCountDoesNotChangeDemand)
{
    // The acceptance contract: 8-worker execution of a 49-qubit
    // surface-code batch is bit-identical, shard by shard, to
    // 1-worker execution.
    const std::vector<circuits::Schedule> batch = {*sched_, *sched_,
                                                   *sched_};
    std::vector<RackStats> runs;
    for (const int workers : {1, 8}) {
        const Rack rack(*dev_, *clib_, rackConfig(8, 4096));
        RuntimeService svc(rack, {.workers = workers});
        runs.push_back(svc.executeBatch(batch));
    }
    const auto &one = runs[0], &many = runs[1];
    ASSERT_EQ(one.shards.size(), many.shards.size());
    for (std::size_t s = 0; s < one.shards.size(); ++s) {
        const auto &a = one.shards[s].demand;
        const auto &b = many.shards[s].demand;
        EXPECT_EQ(a.peakBanks, b.peakBanks) << "shard " << s;
        EXPECT_EQ(a.peakChannels, b.peakChannels) << "shard " << s;
        EXPECT_EQ(a.feasible, b.feasible) << "shard " << s;
        EXPECT_EQ(a.totalSamples, b.totalSamples) << "shard " << s;
        EXPECT_EQ(a.totalWordsRead, b.totalWordsRead)
            << "shard " << s;
        EXPECT_EQ(a.missingGates, b.missingGates) << "shard " << s;
        // Bandwidth is a product of identical ints and doubles.
        EXPECT_EQ(a.peakBandwidthBytesPerSec,
                  b.peakBandwidthBytesPerSec)
            << "shard " << s;
        EXPECT_EQ(one.shards[s].gatesPlayed, many.shards[s].gatesPlayed);
        EXPECT_EQ(one.shards[s].samplesDecoded,
                  many.shards[s].samplesDecoded);
        EXPECT_EQ(one.shards[s].windowsDecoded,
                  many.shards[s].windowsDecoded);
    }
    EXPECT_EQ(one.fleetPeakBanks, many.fleetPeakBanks);
    EXPECT_EQ(one.totalGates, many.totalGates);
    EXPECT_EQ(one.totalSamples, many.totalSamples);
}

TEST_F(RackSurface49, TieredRackDemandMatchesFlatAtAnyWorkerCount)
{
    // The hierarchy is invisible to the playback contract: a tiered
    // rack under every admission policy reproduces the flat rack's
    // per-shard demand and decode totals bit-for-bit, at 1 and 8
    // workers, while windows really do flow through tier 1.
    const std::vector<circuits::Schedule> batch = {*sched_, *sched_};
    const Rack flat(*dev_, *clib_, rackConfig(8, 4096));
    RuntimeService ref(flat, {.workers = 1});
    const auto base = ref.executeBatch(batch);

    for (const auto policy :
         {AdmissionPolicy::AdmitAlways, AdmissionPolicy::TinyLfu}) {
        for (const int workers : {1, 8}) {
            RackConfig rc = rackConfig(8, 256);
            rc.tier1Windows = 4096;
            rc.admission = policy;
            const Rack rack(*dev_, *clib_, rc);
            RuntimeService svc(rack, {.workers = workers});
            const auto got = svc.executeBatch(batch);
            const std::string tag =
                std::string(admissionPolicyName(policy)) +
                " workers " + std::to_string(workers);
            ASSERT_EQ(base.shards.size(), got.shards.size()) << tag;
            for (std::size_t s = 0; s < base.shards.size(); ++s) {
                const auto &a = base.shards[s];
                const auto &b = got.shards[s];
                EXPECT_EQ(a.demand.totalSamples,
                          b.demand.totalSamples)
                    << tag << " shard " << s;
                EXPECT_EQ(a.demand.totalWordsRead,
                          b.demand.totalWordsRead)
                    << tag << " shard " << s;
                EXPECT_EQ(a.demand.peakBanks, b.demand.peakBanks)
                    << tag << " shard " << s;
                EXPECT_EQ(a.gatesPlayed, b.gatesPlayed)
                    << tag << " shard " << s;
                EXPECT_EQ(a.samplesDecoded, b.samplesDecoded)
                    << tag << " shard " << s;
                EXPECT_EQ(a.windowsDecoded, b.windowsDecoded)
                    << tag << " shard " << s;
            }
            EXPECT_EQ(base.totalGates, got.totalGates) << tag;
            EXPECT_EQ(base.totalSamples, got.totalSamples) << tag;
            EXPECT_EQ(base.totalWindows, got.totalWindows) << tag;
            // The tiny fast tier forces real tier-1 traffic.
            EXPECT_GT(got.cache.tier[1].admitted +
                          got.cache.demotions,
                      0u)
                << tag;
        }
    }
}

TEST_F(RackSurface49, ModelCountersIndependentOfWorkerCount)
{
    // Each shard's column plays its circuits in batch order against
    // the shard's own model, so every model counter is a pure
    // function of the batch — on both back ends, at any worker count,
    // even when a small tiered model evicts constantly.
    const std::vector<circuits::Schedule> batch = {*sched_, *sched_,
                                                   *sched_};
    for (const bool compiled : {false, true}) {
        std::vector<TieredStoreStats> runs;
        for (const int workers : {1, 4}) {
            RackConfig rc = rackConfig(4, 128);
            rc.tier1Windows = 256;
            rc.admission = AdmissionPolicy::TinyLfu;
            const Rack rack(*dev_, *clib_, rc);
            RuntimeService svc(rack, {.workers = workers});
            TieredStoreStats sum;
            for (int rep = 0; rep < 3; ++rep)
                sum.advance(compiled ? svc.executeBatchCompiled(batch).cache
                                     : svc.executeBatch(batch).cache);
            runs.push_back(sum);
        }
        const auto &a = runs[0], &b = runs[1];
        const char *tag = compiled ? "compiled" : "direct";
        EXPECT_GT(a.evictions, 0u) << tag;
        EXPECT_EQ(a.hits, b.hits) << tag;
        EXPECT_EQ(a.misses, b.misses) << tag;
        EXPECT_EQ(a.evictions, b.evictions) << tag;
        EXPECT_EQ(a.promotions, b.promotions) << tag;
        EXPECT_EQ(a.demotions, b.demotions) << tag;
        EXPECT_EQ(a.prefetches, b.prefetches) << tag;
        EXPECT_EQ(a.prefetchHits, b.prefetchHits) << tag;
        EXPECT_EQ(a.prefetchWasted, b.prefetchWasted) << tag;
        EXPECT_EQ(a.entries, b.entries) << tag;
        if (compiled) {
            EXPECT_GT(a.prefetches, 0u);
        }
    }
}

TEST_F(RackSurface49, HotBatchRunsAlmostEntirelyFromCache)
{
    const Rack rack(*dev_, *clib_, rackConfig(4, 1 << 15));
    RuntimeService svc(rack, {.workers = 2});
    svc.execute(*sched_); // cold pass fills the cache
    const auto warm = svc.execute(*sched_);
    EXPECT_GT(warm.cacheHitRate, 0.99);
    EXPECT_EQ(warm.cache.evictions, 0u);
}

TEST(RackUncompressed, BaselineRackSkipsDecodeAndCache)
{
    // An uncompressed-baseline rack never touches the compressed
    // payload, so even a non-windowed codec library executes fine
    // and the cache stays untouched.
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = core::CompressionPipeline::with("dct-n")
                          .mseTarget(1e-5)
                          .build()
                          .compressLibrary(lib);

    RackConfig rc;
    rc.numShards = 2;
    rc.controller.compressed = false;
    const Rack rack(dev, clib, rc);
    RuntimeService svc(rack, {.workers = 2});

    circuits::Circuit c(5);
    for (int q = 0; q < 5; ++q)
        c.x(q);
    c.measureAll();
    const auto stats = svc.execute(circuits::schedule(c, {}));
    EXPECT_EQ(stats.totalGates, 10u);
    EXPECT_GT(stats.totalSamples, 0u);
    EXPECT_EQ(stats.totalWindows, 0u);
    EXPECT_EQ(stats.cache.hits + stats.cache.misses, 0u);
    for (const auto &sh : stats.shards)
        EXPECT_EQ(sh.samplesDecoded, sh.demand.totalSamples);
}

TEST(RackMismatch, ReportsEventsNoShardOwns)
{
    // A schedule built for a larger machine than the rack's device:
    // the out-of-range events are dropped by partitioning but
    // reported, not silently lost.
    const auto dev = waveform::DeviceModel::ibm("bogota"); // 5 qubits
    const auto lib = waveform::PulseLibrary::build(dev);
    const auto clib = buildCompressed(lib);

    RackConfig rc;
    rc.numShards = 2;
    rc.controller = controllerConfig(clib);
    const Rack rack(dev, clib, rc);
    RuntimeService svc(rack);

    circuits::Circuit c(8);
    for (int q = 0; q < 8; ++q)
        c.x(q); // qubits 5-7 do not exist on the rack's device
    const auto stats = svc.execute(circuits::schedule(c, {}));
    EXPECT_EQ(stats.unownedEvents, 3u);
    EXPECT_EQ(stats.totalGates, 5u);
}

TEST_F(RackSurface49, PerJobRollupsSumToBatchTotal)
{
    const Rack rack(*dev_, *clib_, rackConfig(4, 4096));
    RuntimeService svc(rack, {.workers = 2});
    const auto exec =
        svc.executeBatchPerJob({*sched_, *sched_, *sched_});
    ASSERT_EQ(exec.jobs.size(), 3u);
    std::uint64_t gates = 0, samples = 0, windows = 0;
    for (const auto &job : exec.jobs) {
        gates += job.totalGates;
        samples += job.totalSamples;
        windows += job.totalWindows;
        // Cache counters and wall-clock attribute to the whole
        // batch, never to a job.
        EXPECT_EQ(job.cache.hits + job.cache.misses, 0u);
        EXPECT_EQ(job.wallSeconds, 0.0);
        ASSERT_EQ(job.shards.size(), exec.total.shards.size());
    }
    EXPECT_EQ(gates, exec.total.totalGates);
    EXPECT_EQ(samples, exec.total.totalSamples);
    EXPECT_EQ(windows, exec.total.totalWindows);
    // The batch-level rollup is the executeBatch() contract.
    EXPECT_GT(exec.total.cache.hits + exec.total.cache.misses, 0u);
    EXPECT_GT(exec.total.wallSeconds, 0.0);
}

TEST_F(RackSurface49, PerJobStatsIndependentOfBatchComposition)
{
    // A job's rollup is a pure function of (rack, schedule): the same
    // schedule reports identical per-job numbers alone and riding in
    // a larger coalesced batch — what makes serving-plane attribution
    // deterministic.
    const Rack rack(*dev_, *clib_, rackConfig(4, 1 << 15));
    RuntimeService svc(rack, {.workers = 4});
    const auto alone = svc.executeBatchPerJob({*sched_}).jobs[0];
    const auto mixed =
        svc.executeBatchPerJob({*sched_, *sched_, *sched_}).jobs[1];
    ASSERT_EQ(alone.shards.size(), mixed.shards.size());
    for (std::size_t s = 0; s < alone.shards.size(); ++s) {
        const auto &a = alone.shards[s];
        const auto &b = mixed.shards[s];
        EXPECT_EQ(a.demand.peakBanks, b.demand.peakBanks) << s;
        EXPECT_EQ(a.demand.totalSamples, b.demand.totalSamples) << s;
        EXPECT_EQ(a.demand.totalWordsRead, b.demand.totalWordsRead)
            << s;
        EXPECT_EQ(a.gatesPlayed, b.gatesPlayed) << s;
        EXPECT_EQ(a.windowsDecoded, b.windowsDecoded) << s;
        EXPECT_EQ(a.samplesDecoded, b.samplesDecoded) << s;
    }
    EXPECT_EQ(alone.totalGates, mixed.totalGates);
    EXPECT_EQ(alone.totalSamples, mixed.totalSamples);
    EXPECT_EQ(alone.fleetPeakBanks, mixed.fleetPeakBanks);
    EXPECT_EQ(alone.unownedEvents, mixed.unownedEvents);
}

TEST_F(RackSurface49, ShardCountPreservesFleetWork)
{
    // Total decoded work is invariant under the shard count; only
    // its distribution changes.
    std::vector<std::uint64_t> totals;
    for (const int shards : {1, 2, 8}) {
        const Rack rack(*dev_, *clib_, rackConfig(shards, 0));
        RuntimeService svc(rack, {.workers = 1});
        const auto stats = svc.execute(*sched_);
        totals.push_back(stats.totalSamples);
        EXPECT_EQ(static_cast<int>(stats.shards.size()), shards);
    }
    EXPECT_EQ(totals[0], totals[1]);
    EXPECT_EQ(totals[1], totals[2]);
}

// ------------------------------- adaptive playback through the rack

/** A bogota rack whose library was compiled with per-channel
 *  planning, plus a CX-heavy schedule that exercises the adaptive
 *  flat-top entries. */
struct AdaptiveRackFixture
{
    waveform::DeviceModel dev = waveform::DeviceModel::ibm("bogota");
    core::LibraryCompileResult compiled;
    circuits::Schedule sched;

    AdaptiveRackFixture()
    {
        const auto lib = waveform::PulseLibrary::build(dev);
        compiled = core::CompressionPipeline::with("int-dct")
                       .window(16)
                       .mseTarget(1e-5)
                       .planAdaptive()
                       .workers(2)
                       .build()
                       .compileLibrary(lib);
        circuits::Circuit c(5);
        for (const auto &[a, b] : dev.coupling())
            c.add(circuits::Op::CX, {a, b});
        for (int q = 0; q < 5; ++q)
            c.add(circuits::Op::X, {q});
        sched = circuits::schedule(c, {});
    }

    Rack
    makeRack(std::size_t cache_windows) const
    {
        RackConfig rc;
        rc.numShards = 2;
        rc.controller = controllerConfig(compiled.library);
        rc.cacheWindows = cache_windows;
        return Rack(dev, compiled.library, rc);
    }
};

TEST(RackAdaptive, FlatSegmentsBypassTheIdctDuringPlayback)
{
    const AdaptiveRackFixture fx;
    // The CR flat-tops went adaptive at compile time.
    ASSERT_GT(fx.compiled.stats.adaptiveChannels, 0u);

    const Rack rack = fx.makeRack(4096);
    RuntimeService svc(rack, {.workers = 2});
    const auto stats = svc.execute(fx.sched);

    // Expected bypass volume: the flat samples of every played gate.
    std::uint64_t expect_bypass = 0, expect_samples = 0;
    for (const auto &e : fx.sched.events) {
        const auto id = uarch::gateIdFor(e.gate);
        if (!id)
            continue;
        const auto &cw = fx.compiled.library.entry(*id).cw;
        expect_bypass +=
            cw.i.bypassSamples() + cw.q.bypassSamples();
        expect_samples += cw.stats().originalSamples;
    }
    ASSERT_GT(expect_bypass, 0u);
    EXPECT_EQ(stats.totalBypassSamples, expect_bypass);
    EXPECT_EQ(stats.totalSamples, expect_samples);
    // The demand model charges the same bypass the playback served.
    std::uint64_t demand_bypass = 0;
    for (const auto &sh : stats.shards)
        demand_bypass += sh.demand.bypassSamples;
    EXPECT_EQ(demand_bypass, expect_bypass);
    // Flat windows never enter the cache, so cache traffic covers
    // only the ramp windows.
    EXPECT_LT(stats.cache.hits + stats.cache.misses,
              stats.totalWindows);
}

TEST(RackAdaptive, CachedAndUncachedPlaybackAgree)
{
    const AdaptiveRackFixture fx;
    const Rack cachedRack = fx.makeRack(4096);
    const Rack uncachedRack = fx.makeRack(0);
    RuntimeService cached(cachedRack, {.workers = 1});
    RuntimeService uncached(uncachedRack, {.workers = 1});
    const auto a = cached.execute(fx.sched);
    const auto b = uncached.execute(fx.sched);
    EXPECT_EQ(a.totalSamples, b.totalSamples);
    EXPECT_EQ(a.totalBypassSamples, b.totalBypassSamples);
    EXPECT_EQ(a.totalWindows, b.totalWindows);
}

TEST(RackAdaptive, WorkerCountDoesNotChangeAdaptivePlayback)
{
    const AdaptiveRackFixture fx;
    std::vector<RackStats> runs;
    for (const int workers : {1, 8}) {
        const Rack rack = fx.makeRack(4096);
        RuntimeService svc(rack, {.workers = workers});
        runs.push_back(
            svc.executeBatch({fx.sched, fx.sched}));
    }
    EXPECT_EQ(runs[0].totalSamples, runs[1].totalSamples);
    EXPECT_EQ(runs[0].totalBypassSamples,
              runs[1].totalBypassSamples);
    EXPECT_EQ(runs[0].totalWindows, runs[1].totalWindows);
    for (std::size_t s = 0; s < runs[0].shards.size(); ++s) {
        EXPECT_EQ(runs[0].shards[s].samplesBypassed,
                  runs[1].shards[s].samplesBypassed);
        EXPECT_EQ(runs[0].shards[s].demand.bypassSamples,
                  runs[1].shards[s].demand.bypassSamples);
    }
}

TEST(RackAdaptive, ControllerPlaybackMatchesGoldenDecoder)
{
    // The acceptance contract: an adaptive entry plays back through
    // the hardware pipeline bit-exact with the software decoder,
    // with the IDCT engine bypassed on the flat segments.
    const AdaptiveRackFixture fx;
    uarch::Controller ctrl(controllerConfig(fx.compiled.library),
                           fx.compiled.library);
    const core::Decompressor dec;
    bool sawAdaptive = false;
    for (const auto &[id, e] : fx.compiled.library.entries()) {
        if (!e.cw.i.isAdaptive())
            continue;
        sawAdaptive = true;
        const auto played = ctrl.playGate(id);
        EXPECT_GT(played.stats.bypassSamples, 0u);
        const auto golden = dec.decompressChannel(e.cw.i, e.cw.codec);
        ASSERT_EQ(played.samples.size(), golden.size());
        for (std::size_t k = 0; k < golden.size(); ++k)
            ASSERT_EQ(played.samples[k],
                      dsp::IntDct::quantize(golden[k]))
                << waveform::toString(id) << " sample " << k;
    }
    EXPECT_TRUE(sawAdaptive);
}

/** Every counter and residency field of two model snapshots. */
void
expectSameModel(const TieredStoreStats &a, const TieredStoreStats &b,
                const std::string &tag)
{
    EXPECT_EQ(a.hits, b.hits) << tag;
    EXPECT_EQ(a.misses, b.misses) << tag;
    EXPECT_EQ(a.evictions, b.evictions) << tag;
    EXPECT_EQ(a.prefetches, b.prefetches) << tag;
    EXPECT_EQ(a.prefetchHits, b.prefetchHits) << tag;
    EXPECT_EQ(a.prefetchWasted, b.prefetchWasted) << tag;
    EXPECT_EQ(a.entries, b.entries) << tag;
    EXPECT_EQ(a.residentSamples, b.residentSamples) << tag;
    EXPECT_EQ(a.promotions, b.promotions) << tag;
    EXPECT_EQ(a.demotions, b.demotions) << tag;
    EXPECT_EQ(a.tier1Accesses, b.tier1Accesses) << tag;
    EXPECT_EQ(a.penaltyCycles, b.penaltyCycles) << tag;
    for (std::size_t t = 0; t < 2; ++t) {
        EXPECT_EQ(a.tier[t].hits, b.tier[t].hits) << tag;
        EXPECT_EQ(a.tier[t].misses, b.tier[t].misses) << tag;
        EXPECT_EQ(a.tier[t].evictions, b.tier[t].evictions) << tag;
        EXPECT_EQ(a.tier[t].admitted, b.tier[t].admitted) << tag;
        EXPECT_EQ(a.tier[t].admitRejected, b.tier[t].admitRejected)
            << tag;
        EXPECT_EQ(a.tier[t].entries, b.tier[t].entries) << tag;
        EXPECT_EQ(a.tier[t].residentSamples, b.tier[t].residentSamples)
            << tag;
    }
}

/** The per-window playback reference: locate each window's segment,
 *  fill a flat window through the bypass, or record one model access
 *  and decode one ramp window. */
PlaybackCounters
perWindowPlay(const waveform::GateId &id, const core::CompressedEntry &e,
              std::uint8_t ch, std::uint32_t first, std::uint32_t count,
              TieredWindowStore &store, std::uint64_t version)
{
    const core::CompressedChannel &channel = ch == 0 ? e.cw.i : e.cw.q;
    const std::size_t ws = channel.windowSize;
    const core::Decompressor dec;
    const core::ICodec &codec = dec.resolve(e.cw.codec, ws);
    std::vector<double> buf(ws);
    PlaybackCounters c;
    for (std::uint32_t w = first; w < first + count; ++w) {
        std::size_t local = 0;
        const core::AdaptiveSegment &seg =
            channel.segmentForWindow(w, local);
        ++c.windows;
        if (seg.isFlat) {
            const std::size_t len = channel.windowSamples(w);
            std::fill_n(buf.begin(), len, seg.value);
            c.samples += len;
            c.bypassed += len;
            continue;
        }
        store.access({id, ch, w, version}, ws, 1);
        c.samples += codec.decompressWindowInto(
            seg.windows, local, SampleSpan(buf.data(), ws));
    }
    return c;
}

TEST(RackAdaptive, PlayWindowsMatchesPerWindowOracle)
{
    // Segment-run playback of adaptive channels tallies exactly what
    // a window-at-a-time loop tallies, and leaves every model shape
    // in the same state, on ranges that start and end anywhere in
    // flat and ramp segments.
    const AdaptiveRackFixture fx;
    const Rack rack = fx.makeRack(0);
    const VersionedLibrary vlib = rack.currentLibrary();
    const TieredStoreConfig models[] = {
        {4, 3, AdmissionPolicy::AdmitAlways},
        {5, 0, AdmissionPolicy::TinyLfu},
    };
    // Every adaptive entry of the library, plus a flat-top whose
    // length is no whole number of windows (the library's are), so
    // the clamped tail window is played too.
    std::vector<std::pair<waveform::GateId, core::CompressedEntry>> entries;
    for (const auto &[id, e] : vlib.lib->entries())
        if (e.cw.i.isAdaptive() || e.cw.q.isAdaptive())
            entries.push_back({id, e});
    ASSERT_FALSE(entries.empty());
    core::CompressedEntry trimmed;
    trimmed.cw = core::AdaptiveCompressor({"int-dct", 16, 1e-3})
                     .compress(waveform::gaussianSquare(1000, 200, 0.12,
                                                        0.15));
    ASSERT_TRUE(trimmed.cw.i.isAdaptive());
    entries.push_back({{waveform::GateType::X, 99, -1}, trimmed});

    bool sawFlatCut = false, sawRampCut = false, sawTail = false;
    for (const auto &[id, e] : entries) {
        for (const std::uint8_t ch : {0, 1}) {
            const core::CompressedChannel &channel =
                ch == 0 ? e.cw.i : e.cw.q;
            if (!channel.isAdaptive())
                continue;
            const auto nwin =
                static_cast<std::uint32_t>(channel.numWindows());
            std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges =
                {{0, nwin}};
            for (std::uint32_t w = 0; w < nwin; ++w)
                ranges.push_back({w, 1});
            // One window into each segment, and one window short of
            // its end: ranges from there to either end of the channel
            // and to the same point of the next segment.
            std::vector<std::pair<std::uint32_t, bool>> cuts;
            std::uint32_t begin = 0;
            for (const auto &seg : channel.segments) {
                const auto span = static_cast<std::uint32_t>(
                    (seg.samples() + channel.windowSize - 1) /
                    channel.windowSize);
                if (span >= 3) {
                    cuts.push_back({begin + 1, seg.isFlat});
                    cuts.push_back({begin + span - 1, seg.isFlat});
                }
                begin += span;
            }
            for (std::size_t k = 0; k < cuts.size(); ++k) {
                const auto [cut, flat] = cuts[k];
                (flat ? sawFlatCut : sawRampCut) = true;
                ranges.push_back({cut, nwin - cut});
                ranges.push_back({0, cut});
                if (k + 2 < cuts.size())
                    ranges.push_back({cut, cuts[k + 2].first - cut});
            }
            sawTail = sawTail || channel.windowSamples(nwin - 1) <
                                     channel.windowSize;

            for (const auto &[first, count] : ranges) {
                for (const auto &cfg : models) {
                    TieredWindowStore played(cfg), reference(cfg);
                    WindowPlayer player(rack, vlib, &played);
                    PlaybackCounters got, want;
                    // Twice: the replay hits what the first pass
                    // placed.
                    for (int pass = 0; pass < 2; ++pass) {
                        player.playWindows(id, e, ch, first, count, got);
                        const PlaybackCounters r =
                            perWindowPlay(id, e, ch, first, count,
                                          reference, vlib.version);
                        want.windows += r.windows;
                        want.samples += r.samples;
                        want.bypassed += r.bypassed;
                    }
                    const std::string tag =
                        waveform::toString(id) + " ch " +
                        std::to_string(ch) + " [" +
                        std::to_string(first) + ", +" +
                        std::to_string(count) + ") " +
                        admissionPolicyName(cfg.admission);
                    EXPECT_EQ(got.gates, want.gates) << tag;
                    EXPECT_EQ(got.windows, want.windows) << tag;
                    EXPECT_EQ(got.samples, want.samples) << tag;
                    EXPECT_EQ(got.bypassed, want.bypassed) << tag;
                    expectSameModel(played.stats(), reference.stats(),
                                    tag);
                }
            }
        }
    }
    EXPECT_TRUE(sawFlatCut);
    EXPECT_TRUE(sawRampCut);
    EXPECT_TRUE(sawTail);
}

TEST(RackAdaptive, PlayerCountsEveryDecodedBatch)
{
    // decode.kernel.{batches,windows} count the batches the player
    // decodes: every ramp window of an adaptive channel, in chunks of
    // at most kBatchWindows per ramp run, and no flat window.
    const AdaptiveRackFixture fx;
    const Rack rack = fx.makeRack(0);
    const VersionedLibrary vlib = rack.currentLibrary();
    auto &batches =
        telemetry::Registry::global().counter("decode.kernel.batches");
    auto &windows =
        telemetry::Registry::global().counter("decode.kernel.windows");
    TieredWindowStore store(64);
    WindowPlayer player(rack, vlib, &store);
    std::size_t played = 0, flat = 0;
    for (const auto &[id, e] : vlib.lib->entries()) {
        for (const std::uint8_t ch : {0, 1}) {
            const core::CompressedChannel &channel =
                ch == 0 ? e.cw.i : e.cw.q;
            const auto nwin =
                static_cast<std::uint32_t>(channel.numWindows());
            // Oracle: each ramp (or plain) window extends the open
            // batch while it continues the same segment and the batch
            // is not full; flat windows are never decoded.
            std::uint64_t wantWindows = 0, wantBatches = 0;
            const core::AdaptiveSegment *prev = nullptr;
            std::uint32_t open = 0;
            for (std::uint32_t w = 0; w < nwin; ++w) {
                std::size_t local = 0;
                const core::AdaptiveSegment *seg =
                    channel.isAdaptive()
                        ? &channel.segmentForWindow(w, local)
                        : nullptr;
                const bool continues = w > 0 && seg == prev;
                prev = seg;
                if (seg && seg->isFlat) {
                    ++flat;
                    continue;
                }
                ++wantWindows;
                if (!continues || open == WindowPlayer::kBatchWindows) {
                    ++wantBatches;
                    open = 0;
                }
                ++open;
            }
            const auto b0 = batches.value(), w0 = windows.value();
            PlaybackCounters c;
            player.playWindows(id, e, ch, 0, nwin, c);
            EXPECT_EQ(windows.value() - w0, wantWindows)
                << waveform::toString(id) << " ch " << int{ch};
            EXPECT_EQ(batches.value() - b0, wantBatches)
                << waveform::toString(id) << " ch " << int{ch};
            played += nwin;
        }
    }
    EXPECT_GT(flat, 0u);
    EXPECT_GT(played, flat);
}

// --------------------------------------------------- library registry

TEST(LibraryRegistry, PublishAssignsMonotonicVersionsAndTracksLives)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    auto a = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib));
    auto b = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib, 32));

    LibraryRegistry reg(a);
    const std::uint64_t v1 = reg.currentVersion();
    EXPECT_GT(v1, 0u);
    EXPECT_EQ(reg.swaps(), 0u);
    EXPECT_EQ(reg.current().lib.get(), a.get());
    EXPECT_EQ(reg.current().version, v1);

    const std::uint64_t v2 = reg.publish(b);
    EXPECT_GT(v2, v1);
    EXPECT_EQ(reg.swaps(), 1u);
    EXPECT_EQ(reg.current().lib.get(), b.get());

    // Both epochs are alive: the test still holds `a`.
    EXPECT_EQ(reg.liveVersions(), 2u);
    bool saw_current = false;
    for (const auto &info : reg.versions())
        if (info.current) {
            saw_current = true;
            EXPECT_EQ(info.version, v2);
        }
    EXPECT_TRUE(saw_current);

    // Drop the last external pin on the retired epoch: it leaves the
    // live set (the registry holds retirees only weakly).
    a.reset();
    EXPECT_EQ(reg.liveVersions(), 1u);
}

TEST(LibraryRegistry, PinnedEpochSurvivesLaterPublishes)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    auto a = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib));
    LibraryRegistry reg(a);
    a.reset();

    // An in-flight batch pins the epoch it started under; the swap
    // must not invalidate it (RCU grace period by refcount).
    const VersionedLibrary pinned = reg.current();
    reg.publish(std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib, 32)));
    ASSERT_TRUE(pinned);
    EXPECT_GT(pinned->entries().size(), 0u);
    EXPECT_NE(pinned.version, reg.currentVersion());
    EXPECT_EQ(reg.liveVersions(), 2u); // `pinned` keeps it alive
}

TEST(RackSwap, SwapRejectsContractViolationsAndKeepsServing)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    auto good = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib));
    // Window size 32 violates a windowSize-16 controller contract.
    auto bad = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib, 32));

    RackConfig rc;
    rc.numShards = 2;
    rc.controller = controllerConfig(*good);
    Rack rack(dev, good, rc);
    const std::uint64_t v1 = rack.currentLibrary().version;
    EXPECT_THROW(rack.swapLibrary(nullptr), std::exception);
    EXPECT_THROW(rack.swapLibrary(bad), std::invalid_argument);
    // Failed swaps leave the current epoch untouched.
    EXPECT_EQ(rack.currentLibrary().version, v1);

    auto good2 = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib));
    const std::uint64_t v2 = rack.swapLibrary(good2);
    EXPECT_GT(v2, v1);
    EXPECT_EQ(rack.currentLibrary().version, v2);
}

TEST(RackSwap, StaleWindowsAgeOutWithoutAFlush)
{
    // Decoded-window keys carry the library version: after a swap the
    // old epoch's windows are unreachable (never served to the new
    // calibration) but NOT flushed — they age out through normal LRU
    // replacement while the new epoch's windows fill in beside them.
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    auto a = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib));
    auto b = std::make_shared<core::CompressedLibrary>(
        buildCompressed(lib));
    RackConfig rc;
    rc.numShards = 2;
    rc.controller = controllerConfig(*a);
    rc.cacheWindows = 1 << 14;
    Rack rack(dev, a, rc);
    RuntimeService svc(rack, {.workers = 1});

    circuits::Circuit c(5);
    for (int q = 0; q < 5; ++q)
        c.x(q);
    const auto sched = circuits::schedule(c, {});

    svc.execute(sched);                     // cold fill, epoch v1
    const auto warm = svc.execute(sched);   // all hits
    EXPECT_EQ(warm.cache.misses, 0u);
    EXPECT_GT(warm.cache.hits, 0u);

    rack.swapLibrary(b);
    // Same schedule, new epoch: the old windows are invisible, so
    // this pass decodes cold again — no flush was needed to keep the
    // calibrations apart.
    const auto fresh = svc.execute(sched);
    EXPECT_GT(fresh.cache.misses, 0u);
    const auto warm2 = svc.execute(sched);  // new epoch now warm
    EXPECT_EQ(warm2.cache.misses, 0u);
    EXPECT_GT(warm2.cache.hits, 0u);
}

} // namespace
} // namespace compaqt::runtime
