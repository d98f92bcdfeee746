/**
 * @file
 * Fleet serving and library hot-swap: drive a fleet of racks behind
 * runtime::Server through a racks x tenants sweep of mixed
 * syndrome/ping traffic, then replay a tenant stream across a
 * mid-run swapLibrary() to a recalibrated library.
 *
 * Three acceptance surfaces, each emitted as metrics so CI can
 * assert them:
 *
 *   1. Routing balance — with equal jobs per tenant and spill
 *      disabled, per-rack completed counts are a pure function of
 *      the consistent-hash ring, so the measured max/ideal balance
 *      is deterministic. The asserted config must land within 10%
 *      of ideal.
 *   2. Swap stalls no job — across the mid-run hot-swap, every
 *      submission completes (zero rejected, zero failed), both
 *      library epochs serve jobs, and the retired epoch's live
 *      count drops to one after drain.
 *   3. Stale-window reclaim — the decoded-window cache's hit rate
 *      collapses on the first post-swap wave (every cached window
 *      keys the old library version) and recovers by normal LRU
 *      aging, with no flush; the per-wave hit-rate curve is the
 *      reclaim evidence.
 *
 * Emits BENCH_fleet_swap.json so the fleet trajectory is tracked
 * across PRs.
 *
 * Usage: bench_fleet_swap [--tiny]
 *   --tiny  CI smoke mode: smallest sweep that still exercises every
 *           code path and emits the full JSON schema.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "circuits/scheduler.hh"
#include "circuits/surface_code.hh"
#include "common/table.hh"
#include "runtime/server.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

using namespace compaqt;

namespace
{

using Clock = std::chrono::steady_clock;

struct Workload
{
    waveform::DeviceModel dev;
    /** Calibration A (the paper operating point, mse 1e-5). */
    std::shared_ptr<const core::CompressedLibrary> libA;
    /** Recalibration B (mse 1e-3): same gates, different windows —
     *  the artifact a calibrator would publish mid-run. */
    std::shared_ptr<const core::CompressedLibrary> libB;
    circuits::Schedule syndrome;
    circuits::Schedule ping;

    /** Tenant streams interleave 3 pings per syndrome round. */
    const circuits::Schedule &
    job(int j) const
    {
        return j % 4 == 0 ? syndrome : ping;
    }
};

Workload
makeWorkload(int distance)
{
    const auto sc = circuits::makeSurfaceCode(
        distance, circuits::SurfaceLayout::Rotated, 1);
    auto dev = waveform::DeviceModel::synthetic(
        "fleet-surface-" + std::to_string(sc.totalQubits()),
        sc.totalQubits(), sc.nativeCoupling().edges());
    const auto lib = waveform::PulseLibrary::build(dev);
    auto libA = std::make_shared<const core::CompressedLibrary>(
        bench::buildCompressed(lib, "int-dct", 16));
    auto libB = std::make_shared<const core::CompressedLibrary>(
        bench::buildCompressed(lib, "int-dct", 16, 1e-3));
    const int n = static_cast<int>(sc.totalQubits());
    circuits::Circuit ping(n);
    for (int q = 0; q < std::min(n, 8); ++q)
        ping.x(q);
    return Workload{std::move(dev),
                    std::move(libA),
                    std::move(libB),
                    circuits::schedule(sc.circuit, {}),
                    circuits::schedule(ping, {})};
}

runtime::RackConfig
rackConfig(const Workload &w, int shards)
{
    runtime::RackConfig rc;
    rc.numShards = shards;
    rc.policy = runtime::ShardPolicy::LocalityAware;
    rc.controller.compressed = true;
    rc.controller.windowSize = 16;
    // Both calibrations must fit the controller's word budget.
    rc.controller.memoryWidth =
        std::max(w.libA->worstCaseWindowWords(),
                 w.libB->worstCaseWindowWords());
    rc.cacheWindows = 1u << 15;
    return rc;
}

runtime::FleetConfig
fleetConfig(const Workload &w, int racks, int shards, int workers)
{
    runtime::FleetConfig fc;
    fc.racks = racks;
    fc.rack = rackConfig(w, shards);
    fc.workers = workers;
    fc.queueDepth = 1u << 14;
    fc.maxBatch = 16;
    // 128 virtual nodes per rack: enough ring smoothing that a
    // uniform tenant mix lands within 10% of ideal (the sweep
    // measures exactly this).
    fc.virtualNodes = 128;
    // Spill disabled so per-rack completed counts measure the ring
    // itself, not the load-balancer correcting it.
    fc.spillQueueDepth = 1u << 20;
    return fc;
}

std::vector<std::string>
tenantNames(int tenants)
{
    std::vector<std::string> names;
    names.reserve(static_cast<std::size_t>(tenants));
    for (int t = 0; t < tenants; ++t)
        names.push_back("tenant-" + std::to_string(t));
    return names;
}

/** Submit every tenant's stream concurrently and wait it out. */
void
wave(runtime::Server &server, const Workload &w,
     const std::vector<std::string> &tenants, int jobs_per_tenant)
{
    std::vector<std::thread> submitters;
    submitters.reserve(tenants.size());
    for (const auto &name : tenants)
        submitters.emplace_back([&, &name = name] {
            std::vector<std::future<runtime::JobResult>> futs;
            futs.reserve(static_cast<std::size_t>(jobs_per_tenant));
            for (int j = 0; j < jobs_per_tenant; ++j)
                futs.push_back(server.submit({name, w.job(j)}));
            for (auto &f : futs)
                f.get();
        });
    for (auto &t : submitters)
        t.join();
}

/** max(per-rack completed) / ideal share over a completed-count
 *  snapshot delta — 1.0 is a perfect spread. */
double
routingBalance(const runtime::ServerStats &stats)
{
    std::uint64_t total = 0, worst = 0;
    for (const auto &r : stats.racks) {
        total += r.completed;
        worst = std::max(worst, r.completed);
    }
    if (total == 0 || stats.racks.empty())
        return 0.0;
    const double ideal = static_cast<double>(total) /
                         static_cast<double>(stats.racks.size());
    return static_cast<double>(worst) / ideal;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1));
    return v[idx];
}

/** Cache hit rate over a counter delta. */
double
hitRate(const runtime::TieredStoreStats &now,
        const runtime::TieredStoreStats &before)
{
    const auto hits = now.hits - before.hits;
    const auto misses = now.misses - before.misses;
    const auto total = hits + misses;
    return total ? static_cast<double>(hits) /
                       static_cast<double>(total)
                 : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool tiny =
        argc > 1 && std::strcmp(argv[1], "--tiny") == 0;

    bench::JsonReport report("fleet_swap");

    const int distance = 3;
    const int shards = tiny ? 2 : 4;
    const int workers = tiny ? 2 : 4;
    report.setWorkers(workers);

    const auto w = makeWorkload(distance);

    // ------------------------------------------------------------
    // Act 1: routing-balance sweep (racks x tenants). Equal jobs
    // per tenant and spill disabled make per-rack completed counts
    // deterministic — the table measures the ring, nothing else.
    // The asserted config (2 racks x 32 tenants) must land within
    // 10% of ideal; the rest of the sweep is trajectory data.
    // ------------------------------------------------------------
    struct SweepPoint
    {
        int racks;
        int tenants;
        bool asserted;
    };
    const std::vector<SweepPoint> sweep =
        tiny ? std::vector<SweepPoint>{{1, 8, false}, {2, 32, true}}
             : std::vector<SweepPoint>{{1, 8, false},
                                       {2, 32, true},
                                       {3, 96, true},
                                       {4, 64, false}};

    Table bt("fleet routing balance: racks x tenants (equal jobs "
             "per tenant, spill off, 128 vnodes)");
    bt.header({"racks", "tenants", "jobs", "done", "rej", "worst",
               "balance", "rollup ok"});

    double asserted_balance = 0.0;
    double worst_balance = 0.0;
    bool rollups_consistent = true;
    const int sweep_jobs_per_tenant = tiny ? 4 : 8;
    for (const auto &pt : sweep) {
        runtime::Server server(
            w.dev, w.libA, fleetConfig(w, pt.racks, shards, workers));
        const auto names = tenantNames(pt.tenants);
        wave(server, w, names, sweep_jobs_per_tenant);
        server.drain();
        const auto s = server.stats();
        const double bal = routingBalance(s);
        std::uint64_t rollup_sum = 0, worst_rack = 0;
        for (const auto &r : s.racks) {
            rollup_sum += r.completed;
            worst_rack = std::max(worst_rack, r.completed);
        }
        const bool ok = rollup_sum == s.completed;
        rollups_consistent = rollups_consistent && ok;
        if (pt.asserted)
            asserted_balance = std::max(asserted_balance, bal);
        worst_balance = std::max(worst_balance, bal);
        bt.row({std::to_string(pt.racks), std::to_string(pt.tenants),
                std::to_string(s.submitted),
                std::to_string(s.completed),
                std::to_string(s.rejected),
                std::to_string(worst_rack), Table::num(bal, 3),
                ok ? "yes" : "NO"});
        report.metric("balance_racks" + std::to_string(pt.racks) +
                          "_tenants" + std::to_string(pt.tenants),
                      bal);
        server.shutdown();
    }
    report.print(bt);

    report.metric("routing_balance_asserted", asserted_balance);
    report.metric("routing_balance_worst", worst_balance);
    report.metric("rack_rollups_consistent",
                  rollups_consistent ? 1.0 : 0.0);

    // ------------------------------------------------------------
    // Act 2: mid-run hot-swap. Tenant threads stream jobs
    // synchronously (submit -> wait) so each job's wall latency is
    // measured at the caller; a calibrator thread publishes libB
    // partway through. Nothing may stall: zero rejections, zero
    // failures, both epochs serve jobs, and after drain only the
    // current epoch remains live.
    // ------------------------------------------------------------
    const int swap_racks = tiny ? 2 : 3;
    const int swap_tenants = tiny ? 6 : 12;
    const int swap_jobs_per_tenant = tiny ? 24 : 48;
    // A dedicated copy of calibration A whose only strong reference
    // moves into the server: once v2 is published and the last
    // v1-pinned batch drains, the weak_ptr must expire — the
    // retired-epoch-releases-memory evidence.
    auto libA = std::make_shared<const core::CompressedLibrary>(
        *w.libA);
    std::weak_ptr<const core::CompressedLibrary> retired = libA;
    runtime::Server server(w.dev, std::move(libA),
                           fleetConfig(w, swap_racks, shards,
                                       workers));
    const auto names = tenantNames(swap_tenants);

    // Warm pass on calibration A so the swap hits a hot cache.
    wave(server, w, names, tiny ? 8 : 16);
    server.drain();
    const auto warm = server.stats();

    std::atomic<bool> swapped{false};
    std::atomic<std::uint64_t> done{0};
    std::vector<std::vector<double>> pre_ms(
        static_cast<std::size_t>(swap_tenants));
    std::vector<std::vector<double>> post_ms(
        static_cast<std::size_t>(swap_tenants));
    std::vector<std::thread> streams;
    streams.reserve(static_cast<std::size_t>(swap_tenants));
    for (int t = 0; t < swap_tenants; ++t)
        streams.emplace_back([&, t] {
            for (int j = 0; j < swap_jobs_per_tenant; ++j) {
                const bool before =
                    !swapped.load(std::memory_order_acquire);
                const auto t0 = Clock::now();
                const auto r = server
                                   .submit({names[static_cast<
                                                std::size_t>(t)],
                                            w.job(j)})
                                   .get();
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count();
                (void)r;
                (before ? pre_ms : post_ms)[static_cast<std::size_t>(
                                                t)]
                    .push_back(ms);
                done.fetch_add(1, std::memory_order_release);
            }
        });

    // The calibrator publishes mid-stream: once a third of the
    // offered load has completed, the fleet is demonstrably busy.
    const std::uint64_t stream_jobs =
        static_cast<std::uint64_t>(swap_tenants) *
        static_cast<std::uint64_t>(swap_jobs_per_tenant);
    while (done.load(std::memory_order_acquire) < stream_jobs / 3)
        std::this_thread::yield();
    const std::uint64_t v2 = server.swapLibrary(w.libB);
    swapped.store(true, std::memory_order_release);
    for (auto &t : streams)
        t.join();

    // Short tail on the new epoch: streams racing ahead of the
    // publish could in principle finish entirely on v1; the tail
    // pins v2 deterministically (it is submitted after swapLibrary
    // returned), so the per-version split always shows the cutover.
    const int tail_jobs_per_tenant = 2;
    for (const auto &name : names)
        for (int j = 0; j < tail_jobs_per_tenant; ++j) {
            const auto t0 = Clock::now();
            server.submit({name, w.job(j)}).get();
            post_ms[0].push_back(
                std::chrono::duration<double, std::milli>(
                    Clock::now() - t0)
                    .count());
        }
    server.drain();

    const auto after = server.stats();
    std::vector<double> pre, post;
    for (const auto &v : pre_ms)
        pre.insert(pre.end(), v.begin(), v.end());
    for (const auto &v : post_ms)
        post.insert(post.end(), v.begin(), v.end());

    const auto delta_completed = after.completed - warm.completed;
    const auto expected =
        stream_jobs + static_cast<std::uint64_t>(swap_tenants) *
                          static_cast<std::uint64_t>(
                              tail_jobs_per_tenant);
    std::uint64_t jobs_v1 = 0, jobs_v2 = 0;
    for (const auto &[ver, count] : after.jobsByLibraryVersion)
        (ver == v2 ? jobs_v2 : jobs_v1) += count;
    // The warm pass ran on v1 too; subtract it so the split shows
    // the swap wave only.
    jobs_v1 -= warm.completed;

    const bool retired_released = retired.expired();

    Table st("mid-run hot-swap (" + std::to_string(swap_racks) +
             " racks, " + std::to_string(swap_tenants) +
             " tenants, swap to v" + std::to_string(v2) + ")");
    st.header({"metric", "value"});
    st.row({"jobs completed", std::to_string(delta_completed)});
    st.row({"jobs expected", std::to_string(expected)});
    st.row({"rejected", std::to_string(after.rejected)});
    st.row({"failed", std::to_string(after.failed)});
    st.row({"jobs on v1 (swap wave)", std::to_string(jobs_v1)});
    st.row({"jobs on v2", std::to_string(jobs_v2)});
    st.row({"library swaps", std::to_string(after.librarySwaps)});
    st.row({"epochs live after drain",
            std::to_string(after.libraryVersionsLive)});
    st.row({"retired epoch released",
            retired_released ? "yes" : "NO"});
    st.row({"pre-swap p99 ms", Table::num(percentile(pre, 0.99), 3)});
    st.row(
        {"post-swap p99 ms", Table::num(percentile(post, 0.99), 3)});
    report.print(st);

    report.metric("swap_jobs_completed",
                  static_cast<double>(delta_completed));
    report.metric("swap_jobs_expected",
                  static_cast<double>(expected));
    report.metric("swap_rejected",
                  static_cast<double>(after.rejected));
    report.metric("swap_failed", static_cast<double>(after.failed));
    report.metric("swap_jobs_v1", static_cast<double>(jobs_v1));
    report.metric("swap_jobs_v2", static_cast<double>(jobs_v2));
    report.metric("library_swaps",
                  static_cast<double>(after.librarySwaps));
    report.metric("epochs_live_after_drain",
                  static_cast<double>(after.libraryVersionsLive));
    report.metric("retired_epoch_released",
                  retired_released ? 1.0 : 0.0);
    report.metric("pre_swap_latency_p99_ms", percentile(pre, 0.99));
    report.metric("post_swap_latency_p99_ms",
                  percentile(post, 0.99));

    server.shutdown();

    // ------------------------------------------------------------
    // Act 3: stale-window reclaim curve, measured on a fresh fleet
    // with a quiescent swap so the collapse is attributable. Warm
    // to steady state on v1, publish v2 between waves, then replay
    // identical waves: every cached window keys the retired version
    // (unreachable, never flushed), so wave 1 re-pays each unique
    // window's decode and later waves are hot again while the stale
    // entries age out by normal LRU eviction.
    // ------------------------------------------------------------
    const int reclaim_waves = 4;
    const int reclaim_jobs = tiny ? 8 : 16;
    runtime::Server rserver(
        w.dev, w.libA,
        fleetConfig(w, swap_racks, shards, workers));

    // Two warm waves: wave 1 fills, wave 2 is the steady baseline.
    wave(rserver, w, names, reclaim_jobs);
    rserver.drain();
    auto before_cache = rserver.stats().cache;
    wave(rserver, w, names, reclaim_jobs);
    rserver.drain();
    auto now_cache = rserver.stats().cache;
    const double pre_swap_hr = hitRate(now_cache, before_cache);
    before_cache = now_cache;

    rserver.swapLibrary(w.libB);

    Table rt("post-swap cache reclaim (per-wave hit rate; pre-swap "
             "baseline " +
             Table::num(pre_swap_hr, 3) + ")");
    rt.header({"wave", "hits", "misses", "hit rate"});
    std::vector<double> curve;
    for (int wv = 1; wv <= reclaim_waves; ++wv) {
        wave(rserver, w, names, reclaim_jobs);
        rserver.drain();
        now_cache = rserver.stats().cache;
        const double hr = hitRate(now_cache, before_cache);
        rt.row({std::to_string(wv),
                std::to_string(now_cache.hits - before_cache.hits),
                std::to_string(now_cache.misses -
                               before_cache.misses),
                Table::num(hr, 3)});
        report.metric("reclaim_hit_rate_wave" + std::to_string(wv),
                      hr);
        curve.push_back(hr);
        before_cache = now_cache;
    }
    report.print(rt);

    const double recovered = curve.back();
    report.metric("reclaim_hit_rate_pre_swap", pre_swap_hr);
    report.metric("reclaim_hit_rate_recovered", recovered);
    std::cout << "\nhot-swap verdict: " << delta_completed << "/"
              << expected << " jobs, " << after.rejected
              << " rejected, " << after.failed
              << " failed; post-swap hit rate " << Table::num(
                     curve.front(), 3)
              << " -> recovered to " << Table::num(recovered, 3)
              << " (pre-swap " << Table::num(pre_swap_hr, 3)
              << ")\n";

    rserver.shutdown();
    return 0;
}
