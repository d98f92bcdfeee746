/**
 * @file
 * Library compile plane: wall-clock scaling of the parallel
 * calibration-time compile (Algorithm 1 fanned out across gates on
 * the shared worker pool) and the memory words saved by per-channel
 * codec planning (adaptive flat-top vs single-codec int-DCT-W).
 *
 * Sweeps device size x worker count x codec plan, verifies that the
 * N-worker library is bit-identical to the 1-worker one, and emits
 * BENCH_library_compile.json. Speedup numbers are only meaningful
 * alongside the hardware_concurrency recorded in the JSON env header
 * — an 8-worker compile cannot beat 1 worker on a 1-core box.
 *
 * Usage: bench_library_compile [--tiny]
 *   --tiny  CI smoke mode: smallest sweep that still exercises the
 *           parallel fan-out, the planner, and the identity check.
 */

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/library_compiler.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"

using namespace compaqt;

namespace
{

core::LibraryCompilerConfig
makeConfig(int workers, bool plan)
{
    core::LibraryCompilerConfig cfg;
    cfg.fidelity.base.codec = "int-dct";
    cfg.fidelity.base.windowSize = 16;
    cfg.workers = workers;
    cfg.planPerChannel = plan;
    return cfg;
}

std::string
serialized(const core::CompressedLibrary &lib)
{
    std::stringstream ss;
    lib.save(ss);
    return ss.str();
}

/** Best-of-N wall-clock: calibration compiles are seconds-long, but
 *  the bench devices are small enough that one run sits at the mercy
 *  of the OS scheduler. */
core::LibraryCompileResult
bestOf(const core::LibraryCompilerConfig &cfg,
       const waveform::PulseLibrary &lib, int reps)
{
    const core::LibraryCompiler compiler(cfg);
    core::LibraryCompileResult best = compiler.compile(lib);
    for (int r = 1; r < reps; ++r) {
        auto next = compiler.compile(lib);
        if (next.stats.wallSeconds < best.stats.wallSeconds)
            best = std::move(next);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool tiny =
        argc > 1 && std::strcmp(argv[1], "--tiny") == 0;

    bench::JsonReport report("library_compile");

    const std::vector<std::string> devices =
        tiny ? std::vector<std::string>{"bogota"}
             : std::vector<std::string>{"bogota", "guadalupe",
                                        "toronto"};
    const std::vector<int> worker_counts =
        tiny ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
    const int reps = tiny ? 1 : 3;
    report.setWorkers(worker_counts.back());

    // ---------------------------------------- compile-time scaling
    Table scaling("library compile wall-clock: device x workers "
                  "(Algorithm 1 per gate, planning on)");
    scaling.header({"device", "gates", "workers", "compile (ms)",
                    "speedup", "identical"});

    double guadalupe_speedup_8w = 0.0;
    for (const auto &name : devices) {
        const auto dev = waveform::DeviceModel::ibm(name);
        const auto lib = waveform::PulseLibrary::build(dev);
        double base_ms = 0.0;
        std::string base_bytes;
        for (const int workers : worker_counts) {
            const auto r =
                bestOf(makeConfig(workers, true), lib, reps);
            const double ms = r.stats.wallSeconds * 1e3;
            bool identical = true;
            if (workers == 1) {
                base_ms = ms;
                base_bytes = serialized(r.library);
            } else {
                identical = serialized(r.library) == base_bytes;
            }
            const double speedup = ms > 0.0 ? base_ms / ms : 0.0;
            scaling.row({name, std::to_string(r.stats.gates),
                         std::to_string(workers), Table::num(ms, 2),
                         Table::num(speedup, 2) + "x",
                         identical ? "yes" : "NO"});
            report.metric("compile_ms_" + name + "_w" +
                              std::to_string(workers),
                          ms);
            if (!identical)
                report.metric("identity_violation_" + name, 1.0);
            if (name == "guadalupe" &&
                workers == worker_counts.back())
                guadalupe_speedup_8w = speedup;
            if (workers == 1) {
                // Forward transforms per library window: 1.0 when
                // every channel is transformed once, however many
                // threshold rounds Algorithm 1 runs on it.
                std::uint64_t windows = 0;
                for (const auto &[id, e] : r.library.entries())
                    windows += e.cw.i.numWindows() + e.cw.q.numWindows();
                report.metric(
                    "forward_windows_per_channel_window_" + name,
                    static_cast<double>(r.stats.forwardWindows) /
                        static_cast<double>(windows));
            }
        }
    }
    report.print(scaling);
    if (guadalupe_speedup_8w > 0.0)
        report.metric("guadalupe_speedup_at_max_workers",
                      guadalupe_speedup_8w);

    // ------------------------------------- per-channel planning value
    Table plan("per-channel codec planning: words saved vs "
               "single-codec int-DCT-W");
    plan.header({"device", "single-codec words", "planned words",
                 "saved", "adaptive ch", "R single", "R planned"});
    for (const auto &name : devices) {
        const auto dev = waveform::DeviceModel::ibm(name);
        const auto lib = waveform::PulseLibrary::build(dev);
        const auto workers = worker_counts.back();
        const auto single =
            core::LibraryCompiler(makeConfig(workers, false))
                .compile(lib);
        const auto planned =
            core::LibraryCompiler(makeConfig(workers, true))
                .compile(lib);
        plan.row(
            {name, std::to_string(single.stats.plannedWords),
             std::to_string(planned.stats.plannedWords),
             Table::num(planned.stats.wordsSavedFraction() * 100.0,
                        1) +
                 "%",
             std::to_string(planned.stats.adaptiveChannels),
             Table::num(single.library.ratio(), 2),
             Table::num(planned.library.ratio(), 2)});
        report.metric("single_codec_words_" + name,
                      static_cast<double>(single.stats.plannedWords));
        report.metric("planned_words_" + name,
                      static_cast<double>(planned.stats.plannedWords));
        report.metric("words_saved_frac_" + name,
                      planned.stats.wordsSavedFraction());
        report.metric("adaptive_channels_" + name,
                      static_cast<double>(
                          planned.stats.adaptiveChannels));
    }
    report.print(plan);

    std::cout << "\n(N-worker compiles are verified bit-identical to "
                 "1-worker; speedup is bounded by the "
              << std::thread::hardware_concurrency()
              << " hardware threads of this machine — see the env "
                 "header in BENCH_library_compile.json)\n";
    return 0;
}
