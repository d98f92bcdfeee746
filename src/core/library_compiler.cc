#include "core/library_compiler.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/executor.hh"
#include "common/logging.hh"
#include "core/adaptive.hh"
#include "core/decompressor.hh"
#include "dsp/metrics.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace compaqt::core
{

namespace
{

/**
 * One worker's single-owner scratch: the codec instance Algorithm 1
 * iterates on, the segmentation engine for adaptive candidates, the
 * gate's analyzed coefficients both of them encode from, and reused
 * decode buffers. Created lazily the first time a worker id claims a
 * job, so an 8-worker pool compiling a 5-gate library builds at most
 * 5 of them.
 */
struct WorkerState
{
    std::unique_ptr<const ICodec> codec;
    std::optional<AdaptiveCompressor> adaptive;
    WaveformCoefficients coeffs;
    Decompressor dec;
    std::vector<double> scratch;
};

/** Per-gate compile cell, written by index so any claim order
 *  reduces to the same library. */
struct GateResult
{
    CompressedEntry entry;
    std::size_t windowCodecWords = 0;
    std::size_t plannedWords = 0;
    std::size_t adaptiveChannels = 0;
    int iterations = 0;
    std::uint64_t forwardWindows = 0;
};

/**
 * Fold explicit trailing zero coefficients back into the RLE
 * codeword. Channel equalization (Section IV-C) pads the shorter
 * prefix of an I/Q pair with explicit zeros; when the partner
 * channel ships adaptively there is no pair left to equalize
 * against, so the surviving plain channel sheds the pad words.
 * Decode output is unchanged — the zeros move from the prefix into
 * the run, preserving prefix + zeros == windowSize.
 */
void
stripEqualizationPadding(CompressedChannel &ch)
{
    for (auto &w : ch.windows) {
        std::size_t last = w.icoeffs.size();
        while (last > 0 && w.icoeffs[last - 1] == 0)
            --last;
        w.zeros +=
            static_cast<std::uint32_t>(w.icoeffs.size() - last);
        w.icoeffs.resize(last);
        last = w.fcoeffs.size();
        while (last > 0 && w.fcoeffs[last - 1] == 0.0)
            --last;
        w.zeros +=
            static_cast<std::uint32_t>(w.fcoeffs.size() - last);
        w.fcoeffs.resize(last);
    }
}

} // namespace

LibraryCompiler::LibraryCompiler(LibraryCompilerConfig cfg)
    : cfg_(std::move(cfg))
{
    COMPAQT_REQUIRE(cfg_.workers >= 1,
                    "library compiler needs at least one worker");
    COMPAQT_REQUIRE(cfg_.minFlatWindows >= 1,
                    "min_flat_windows must be >= 1");
}

LibraryCompileResult
LibraryCompiler::compile(const waveform::PulseLibrary &lib) const
{
    COMPAQT_TRACE_SPAN("compile", "library.compile", "gates",
                       lib.size(), "workers",
                       static_cast<std::uint64_t>(cfg_.workers));
    struct Job
    {
        const waveform::GateId *id;
        const waveform::IqWaveform *wf;
    };
    std::vector<Job> jobs;
    jobs.reserve(lib.size());
    for (const auto &[id, wf] : lib.entries())
        jobs.push_back({&id, &wf});

    // Adaptive planning only applies to codecs the bypass hardware
    // can ramp with; probe the registry once instead of per worker.
    const bool plan = [&] {
        if (!cfg_.planPerChannel)
            return false;
        const auto probe = CodecRegistry::instance().create(
            cfg_.fidelity.base.codec, cfg_.fidelity.base.windowSize);
        return probe->isInteger() && probe->isWindowed();
    }();

    std::vector<GateResult> cells(jobs.size());
    std::vector<std::unique_ptr<WorkerState>> states(
        static_cast<std::size_t>(cfg_.workers));

    common::Executor exec(cfg_.workers);
    const auto t0 = std::chrono::steady_clock::now();
    exec.forEachWorker(jobs.size(), [&](std::size_t worker,
                                        std::size_t i) {
        // A worker id is live on at most one job at a time, so its
        // state slot needs no locking; codec scratch stays
        // single-owner.
        auto &state = states[worker];
        if (!state) {
            state = std::make_unique<WorkerState>();
            state->codec = CodecRegistry::instance().create(
                cfg_.fidelity.base.codec,
                cfg_.fidelity.base.windowSize);
            if (plan)
                state->adaptive.emplace(cfg_.fidelity.base,
                                        cfg_.minFlatWindows);
        }
        const Job &job = jobs[i];
        GateResult &cell = cells[i];
        COMPAQT_TRACE_SPAN("compile", "library.compile_gate", "gate",
                           i, "samples", job.wf->i.size());

        // Transform each channel once: every Algorithm-1 round and
        // the adaptive candidates encode from these coefficients.
        const std::uint64_t analyzed0 = ICodec::analyzedWindowsOnThread();
        state->codec->analyze(job.wf->i, state->coeffs.i);
        state->codec->analyze(job.wf->q, state->coeffs.q);
        FidelityAwareResult r = compressFidelityAware(
            *state->codec, *job.wf, state->coeffs, cfg_.fidelity);
        cell.entry.cw = std::move(r.compressed);
        cell.entry.threshold = r.threshold;
        cell.entry.mse = r.mse;
        cell.entry.converged = r.converged;
        cell.iterations = r.iterations;
        cell.windowCodecWords = cell.entry.cw.i.totalWords() +
                                cell.entry.cw.q.totalWords();

        // Per-channel plan: adaptive segmentation at the threshold
        // Algorithm 1 settled on, kept only when it is strictly
        // cheaper AND still meets the same MSE target. Skipped when
        // the plain compression already missed the target — the
        // planner must not stack distortion on a failing gate.
        if (plan && r.converged) {
            const std::span<const double> x[2] = {job.wf->i,
                                                  job.wf->q};
            const ChannelCoefficients *coeffs[2] = {&state->coeffs.i,
                                                    &state->coeffs.q};
            CompressedChannel *slot[2] = {&cell.entry.cw.i,
                                          &cell.entry.cw.q};
            // Worst-channel MSE of what actually ships, so entry.mse
            // describes the shipped bytes.
            double shipped[2] = {r.channelMse[0], r.channelMse[1]};
            for (int c = 0; c < 2; ++c) {
                const auto flat = state->adaptive->alignedFlatRun(x[c]);
                if (flat.length == 0)
                    continue;
                CompressedChannel cand = state->adaptive->compressChannel(
                    x[c], *coeffs[c], flat, r.threshold);
                if (cand.totalWords() >= slot[c]->totalWords())
                    continue;
                state->scratch.resize(cand.numSamples);
                state->dec.decodeChannelInto(
                    cand, cfg_.fidelity.base.codec, state->scratch);
                const double mse = dsp::mse(x[c], state->scratch);
                if (mse > cfg_.fidelity.targetMse)
                    continue;
                *slot[c] = std::move(cand);
                shipped[c] = mse;
                ++cell.adaptiveChannels;
            }
            if (cell.adaptiveChannels == 1) {
                // Exactly one channel went adaptive: the other was
                // prefix-equalized against a representation that no
                // longer ships, so drop its padding words (its decoded
                // samples, and so its MSE, do not change).
                stripEqualizationPadding(cell.entry.cw.i.isAdaptive()
                                             ? cell.entry.cw.q
                                             : cell.entry.cw.i);
            }
            cell.entry.mse = std::max(shipped[0], shipped[1]);
        }
        cell.plannedWords = cell.entry.cw.i.totalWords() +
                            cell.entry.cw.q.totalWords();
        cell.forwardWindows =
            ICodec::analyzedWindowsOnThread() - analyzed0;
    });
    const auto t1 = std::chrono::steady_clock::now();

    // Serial, fixed-order reduction into the ordered library map.
    LibraryCompileResult out;
    out.library.setVersion(cfg_.libraryVersion);
    out.stats.gates = jobs.size();
    out.stats.channels = jobs.size() * 2;
    out.stats.workers = exec.workers();
    out.stats.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        GateResult &cell = cells[i];
        out.stats.adaptiveChannels += cell.adaptiveChannels;
        out.stats.windowCodecWords += cell.windowCodecWords;
        out.stats.plannedWords += cell.plannedWords;
        out.stats.thresholdIterations +=
            static_cast<std::uint64_t>(cell.iterations);
        out.stats.forwardWindows += cell.forwardWindows;
        out.library.insert(*jobs[i].id, std::move(cell.entry));
    }

    // Compile-plane metrics: one batch of striped adds per compile.
    auto &reg = telemetry::Registry::global();
    static telemetry::Counter &compiles =
        reg.counter("library.compiles");
    static telemetry::Counter &gates_compiled =
        reg.counter("library.gates_compiled");
    static telemetry::Counter &adaptive_channels =
        reg.counter("library.adaptive_channels");
    static telemetry::LatencyHistogram &wall =
        reg.histogram("library.compile_wall");
    compiles.add();
    gates_compiled.add(out.stats.gates);
    adaptive_channels.add(out.stats.adaptiveChannels);
    wall.record(out.stats.wallSeconds);
    return out;
}

} // namespace compaqt::core
