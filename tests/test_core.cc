/**
 * @file
 * Unit and property tests for the COMPAQT core: compression round
 * trips and distortion bounds for every codec, channel equalization,
 * Algorithm 1 behaviour, adaptive flat-top compression, and the
 * compressed-library build/serialization path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "circuits/surface_code.hh"
#include "core/adaptive.hh"
#include "core/compressed_library.hh"
#include "core/compressor.hh"
#include "core/decompressor.hh"
#include "core/fidelity_aware.hh"
#include "core/library_compiler.hh"
#include "dsp/metrics.hh"
#include "dsp/simd.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"
#include "waveform/shapes.hh"

namespace compaqt::core
{
namespace
{

waveform::IqWaveform
testDrag()
{
    return waveform::drag(144, 36.0, 0.2, 1.2);
}

waveform::IqWaveform
testFlatTop()
{
    return waveform::gaussianSquare(1360, 200, 0.12, 0.15);
}

// ------------------------------------------------------------ compressor

class CodecParam
    : public ::testing::TestWithParam<
          std::tuple<const char *, std::size_t>>
{
};

TEST_P(CodecParam, RoundTripMseIsBounded)
{
    const auto [codec, ws] = GetParam();
    CompressorConfig cfg{codec, ws, 1e-3};
    const Compressor comp(cfg);
    const auto wf = testDrag();
    const double err = roundTripMse(comp, wf);
    EXPECT_LT(err, 1e-4) << codec << " ws=" << ws;
}

TEST_P(CodecParam, RatioAtLeastOneOnSmoothPulses)
{
    const auto [codec, ws] = GetParam();
    CompressorConfig cfg{codec, ws, 1e-3};
    const Compressor comp(cfg);
    EXPECT_GE(comp.compress(testDrag()).ratio(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, CodecParam,
    ::testing::Values(std::tuple{"dct-n", std::size_t{16}},
                      std::tuple{"dct-w", std::size_t{8}},
                      std::tuple{"dct-w", std::size_t{16}},
                      std::tuple{"int-dct", std::size_t{8}},
                      std::tuple{"int-dct", std::size_t{16}},
                      std::tuple{"int-dct", std::size_t{32}}));

TEST(Compressor, ZeroThresholdIsNearLossless)
{
    CompressorConfig cfg{"int-dct", 16, 0.0};
    const Compressor comp(cfg);
    const auto wf = testDrag();
    // Quantization + integer transform rounding only.
    EXPECT_LT(roundTripMse(comp, wf), 1e-7);
}

TEST(Compressor, HigherThresholdCompressesMore)
{
    const auto wf = testFlatTop();
    double prev_ratio = 0.0;
    for (double thr : {1e-4, 1e-3, 1e-2}) {
        CompressorConfig cfg{"int-dct", 16, thr};
        const Compressor comp(cfg);
        const double r = comp.compress(wf).ratio();
        EXPECT_GE(r, prev_ratio);
        prev_ratio = r;
    }
}

TEST(Compressor, ChannelsShareWindowCounts)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const Compressor comp(cfg);
    const auto cw = comp.compress(testDrag());
    ASSERT_EQ(cw.i.windows.size(), cw.q.windows.size());
    for (std::size_t w = 0; w < cw.i.windows.size(); ++w)
        EXPECT_EQ(cw.i.windows[w].words(), cw.q.windows[w].words())
            << "window " << w;
}

TEST(Compressor, WindowInvariantPrefixPlusZeros)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const Compressor comp(cfg);
    const auto cw = comp.compress(testFlatTop());
    for (const auto *ch : {&cw.i, &cw.q})
        for (const auto &w : ch->windows)
            EXPECT_EQ(w.prefixSize() + w.zeros, 16u);
}

TEST(Compressor, DctNUsesSingleWindow)
{
    CompressorConfig cfg{"dct-n", 0, 1e-3};
    const Compressor comp(cfg);
    const auto cw = comp.compress(testDrag());
    EXPECT_EQ(cw.i.windows.size(), 1u);
    EXPECT_EQ(cw.windowSize, 144u);
}

TEST(Compressor, DeltaCodecRoundTrip)
{
    CompressorConfig cfg{"delta", 0, 0.0};
    const Compressor comp(cfg);
    const auto wf = testDrag();
    const auto cw = comp.compress(wf);
    Decompressor dec;
    const auto rt = dec.decompress(cw);
    EXPECT_LT(dsp::mse(wf.i, rt.i), 1e-8);
    EXPECT_LT(dsp::mse(wf.q, rt.q), 1e-8);
    EXPECT_GT(cw.ratio(), 0.9);
}

TEST(Compressor, GaussianSquareBeatsDragCompression)
{
    // 2Q/readout flat-tops are longer and smoother than DRAG 1Q
    // pulses (Section IV-D's observation about qft-4).
    CompressorConfig cfg{"int-dct", 16, 2e-3};
    const Compressor comp(cfg);
    EXPECT_GT(comp.compress(testFlatTop()).ratio(),
              comp.compress(testDrag()).ratio());
}

TEST(Compressor, RejectsBadIntWindowSize)
{
    CompressorConfig cfg{"int-dct", 12, 1e-3};
    EXPECT_DEATH({ Compressor comp(cfg); }, "window size");
}

// ---------------------------------------------------------- decompressor

TEST(Decompressor, ExpandWindowReconstructsLayout)
{
    CompressedWindow w;
    w.icoeffs = {100, -50};
    w.zeros = 14;
    const auto full = Decompressor::expandWindowInt(w, 16);
    ASSERT_EQ(full.size(), 16u);
    EXPECT_EQ(full[0], 100);
    EXPECT_EQ(full[1], -50);
    for (std::size_t i = 2; i < 16; ++i)
        EXPECT_EQ(full[i], 0);
}

TEST(Decompressor, PreservesOriginalLength)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const Compressor comp(cfg);
    // 150 samples: the last window is padded; decode must trim.
    waveform::IqWaveform wf;
    wf.i = waveform::liftedGaussian(150, 40.0, 0.2);
    wf.q.assign(150, 0.0);
    Decompressor dec;
    const auto rt = dec.decompress(comp.compress(wf));
    EXPECT_EQ(rt.i.size(), 150u);
    EXPECT_EQ(rt.q.size(), 150u);
}

// -------------------------------------------------------- fidelity-aware

TEST(FidelityAware, MeetsMseTarget)
{
    FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    cfg.targetMse = 1e-6;
    const auto r = compressFidelityAware(testDrag(), cfg);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.mse, 1e-6);
    EXPECT_GT(r.iterations, 0);
}

TEST(FidelityAware, TighterTargetCompressesLess)
{
    FidelityAwareConfig loose, tight;
    loose.base.codec = tight.base.codec = "int-dct";
    loose.base.windowSize = tight.base.windowSize = 16;
    loose.targetMse = 1e-5;
    tight.targetMse = 1e-8;
    const auto wf = testDrag();
    const auto rl = compressFidelityAware(wf, loose);
    const auto rt = compressFidelityAware(wf, tight);
    EXPECT_GE(rl.compressed.ratio(), rt.compressed.ratio());
    EXPECT_LE(rt.mse, 1e-8);
}

TEST(FidelityAware, ThresholdHalvesUntilConverged)
{
    FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    cfg.targetMse = 1e-7;
    cfg.initialThreshold = 0.05;
    const auto r = compressFidelityAware(testDrag(), cfg);
    // Returned threshold is initial / 2^(iterations-1).
    EXPECT_NEAR(r.threshold,
                0.05 / std::ldexp(1.0, r.iterations - 1), 1e-12);
}

TEST(FidelityAware, ImpossibleTargetReportsNonConvergence)
{
    FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    // Below the integer quantization floor: unreachable.
    cfg.targetMse = 1e-14;
    const auto r = compressFidelityAware(testDrag(), cfg);
    EXPECT_FALSE(r.converged);
    EXPECT_GT(r.mse, 1e-14);
}

// -------------------------------------------------------------- adaptive

TEST(Adaptive, FlatTopSplitsIntoThreeSegments)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor comp(cfg);
    const auto ac = comp.compress(testFlatTop());
    ASSERT_EQ(ac.i.segments.size(), 3u);
    EXPECT_FALSE(ac.i.segments[0].isFlat);
    EXPECT_TRUE(ac.i.segments[1].isFlat);
    EXPECT_FALSE(ac.i.segments[2].isFlat);
    // Ramps are cut from the whole channel's analyzed windows; they
    // must equal encoding each ramp's samples on their own, also when
    // the last window is a clamped tail (1000 samples).
    const Compressor plain(cfg);
    for (const auto &wf :
         {testFlatTop(), waveform::gaussianSquare(1000, 200, 0.12, 0.15)}) {
        const auto x = wf.i;
        const auto cut = comp.compress(wf).i;
        ASSERT_EQ(cut.segments.size(), 3u);
        std::size_t begin = 0;
        for (const auto &seg : cut.segments) {
            if (!seg.isFlat) {
                CompressedChannel own;
                plain.codec().encodeInto(
                    std::span<const double>(x).subspan(begin,
                                                       seg.samples()),
                    cfg.threshold, own);
                ASSERT_EQ(seg.windows.windows.size(),
                          own.windows.size());
                EXPECT_EQ(seg.windows.numSamples, own.numSamples);
                for (std::size_t w = 0; w < own.windows.size(); ++w) {
                    EXPECT_EQ(seg.windows.windows[w].icoeffs,
                              own.windows[w].icoeffs);
                    EXPECT_EQ(seg.windows.windows[w].zeros,
                              own.windows[w].zeros);
                }
            }
            begin += seg.samples();
        }
        EXPECT_EQ(begin, x.size());
    }
}

TEST(Adaptive, RoundTripMatchesOriginal)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor comp(cfg);
    const auto wf = testFlatTop();
    const auto ac = comp.compress(wf);
    const Decompressor dec;
    const auto rt = dec.decompress(ac);
    EXPECT_LT(dsp::mse(wf.i, rt.i), 1e-5);
    EXPECT_LT(dsp::mse(wf.q, rt.q), 1e-5);
    EXPECT_EQ(rt.i.size(), wf.i.size());
}

TEST(Adaptive, WindowDecodeMatchesChannelDecode)
{
    // The window-level adaptive path (what the runtime cache uses)
    // must slice exactly like the whole-channel decode.
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor comp(cfg);
    const auto ac = comp.compress(testFlatTop());
    ASSERT_TRUE(ac.i.isAdaptive());
    const Decompressor dec;
    const auto golden = dec.decompressChannel(ac.i, ac.codec);
    std::vector<double> window(16);
    std::vector<double> assembled;
    for (std::size_t w = 0; w < ac.i.numWindows(); ++w) {
        const auto n = dec.decompressWindowInto(ac.i, ac.codec, w,
                                                window);
        assembled.insert(assembled.end(), window.begin(),
                         window.begin() +
                             static_cast<std::ptrdiff_t>(n));
    }
    EXPECT_EQ(assembled, golden);
}

/** Windows [first, first + count) of an adaptive channel decoded as
 *  the window player decodes them: one constant fill per flat run,
 *  one codec batch (ICodec::decodeWindowsInto) per ramp run on the
 *  segment's sub-channel. */
std::size_t
decodeAdaptiveRange(const ICodec &codec, const CompressedChannel &ch,
                    std::size_t first, std::size_t count,
                    SampleSpan out)
{
    std::size_t written = 0;
    ch.forEachSegmentRun(
        first, count,
        [&](const AdaptiveSegment &seg, std::size_t local,
            std::size_t global, std::size_t run) {
            if (seg.isFlat) {
                const std::size_t len = ch.rangeSamples(global, run);
                std::fill_n(out.begin() +
                                static_cast<std::ptrdiff_t>(written),
                            len, seg.value);
                written += len;
            } else {
                written += codec.decodeWindowsInto(
                    seg.windows, local, run, out.subspan(written));
            }
        });
    return written;
}

TEST(Adaptive, BatchDecodeMatchesWindowDecodeAcrossBackends)
{
    // Splitting an adaptive channel at segment boundaries (flat runs
    // -> constant fill, ramp runs -> one codec batch) must reassemble
    // bit-identically to the per-window path, at every batch size
    // and on every supported SIMD backend (the adaptive channel is
    // integer-codec backed, so backend identity is exact). (The
    // decode.kernel counters are the window player's;
    // RackAdaptive.PlayerCountsEveryDecodedBatch checks them.)
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor comp(cfg);
    const auto ac = comp.compress(testFlatTop());
    ASSERT_TRUE(ac.i.isAdaptive());
    const Decompressor dec;
    const ICodec &codec = dec.resolve(ac.codec, ac.i.windowSize);
    const std::size_t nwin = ac.i.numWindows();

    std::vector<double> golden;
    std::vector<double> window(16);
    for (std::size_t w = 0; w < nwin; ++w) {
        const auto n =
            dec.decompressWindowInto(ac.i, ac.codec, w, window);
        golden.insert(golden.end(), window.begin(),
                      window.begin() +
                          static_cast<std::ptrdiff_t>(n));
    }

    for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                                std::size_t{8}, nwin}) {
        std::vector<double> assembled(golden.size(), -7.0);
        std::size_t written = 0;
        for (std::size_t w = 0; w < nwin;) {
            const std::size_t run = std::min(k, nwin - w);
            written += decodeAdaptiveRange(
                codec, ac.i, w, run,
                SampleSpan(assembled).subspan(written));
            w += run;
        }
        ASSERT_EQ(written, golden.size());
        ASSERT_EQ(assembled, golden) << "k=" << k;
    }

    // Backend sweep: integer adaptive decode is bit-exact.
    const auto ambient = dsp::simd::activeBackend();
    for (dsp::simd::Backend b :
         {dsp::simd::Backend::Scalar, dsp::simd::Backend::Avx2,
          dsp::simd::Backend::Neon}) {
        if (!dsp::simd::backendSupported(b))
            continue;
        dsp::simd::setBackend(b);
        std::vector<double> out(golden.size(), -7.0);
        decodeAdaptiveRange(codec, ac.i, 0, nwin, SampleSpan(out));
        EXPECT_EQ(out, golden)
            << "backend " << dsp::simd::backendName(b);
    }
    dsp::simd::setBackend(ambient);
}

TEST(Adaptive, BypassCoversTheFlatRegion)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor comp(cfg);
    const auto ac = comp.compress(testFlatTop());
    // The 1360-sample pulse has ~960 flat samples; window alignment
    // keeps at least 900 of them on the bypass path.
    EXPECT_GT(ac.i.bypassSamples(), 900u);
    EXPECT_EQ(ac.i.bypassSamples() + ac.i.idctSamples(),
              16u * ((ac.i.idctSamples() / 16) +
                     ac.i.bypassSamples() / 16));
}

TEST(Adaptive, BeatsPlainCompressionOnFlatTops)
{
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor acomp(cfg);
    const Compressor comp(cfg);
    const auto wf = testFlatTop();
    EXPECT_GT(acomp.compress(wf).ratio(),
              comp.compress(wf).ratio());
}

TEST(Adaptive, PureGaussianStaysPlain)
{
    // No qualifying flat run: the plain windowed representation is
    // returned unchanged, so planners can test isAdaptive().
    CompressorConfig cfg{"int-dct", 16, 1e-3};
    const AdaptiveCompressor comp(cfg);
    const auto ac = comp.compress(testDrag());
    EXPECT_FALSE(ac.i.isAdaptive());
    EXPECT_FALSE(ac.q.isAdaptive());
    EXPECT_EQ(ac.i.bypassSamples(), 0u);
    EXPECT_FALSE(ac.i.windows.empty());
}

// ---------------------------------------------------- compressed library

TEST(CompressedLibrary, BuildCoversAllGates)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    const auto clib = CompressedLibrary::build(lib, cfg);
    EXPECT_EQ(clib.size(), lib.size());
    for (const auto &[id, wf] : lib.entries()) {
        ASSERT_TRUE(clib.contains(id));
        EXPECT_TRUE(clib.entry(id).converged);
    }
}

TEST(CompressedLibrary, PaperOperatingPoint)
{
    // The headline numbers of Section VII-A at the default target:
    // worst window <= 3 words, per-gate R in [5.33-ish, 8.3].
    const auto dev = waveform::DeviceModel::ibm("guadalupe");
    const auto lib = waveform::PulseLibrary::build(dev);
    FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    const auto clib = CompressedLibrary::build(lib, cfg);
    EXPECT_LE(clib.worstCaseWindowWords(), 3u);
    const auto rs = clib.ratios();
    const double min_r = *std::min_element(rs.begin(), rs.end());
    const double max_r = *std::max_element(rs.begin(), rs.end());
    EXPECT_GT(min_r, 4.5);
    EXPECT_LT(max_r, 9.0);
    EXPECT_GT(clib.ratio(), 5.0);
}

TEST(CompressedLibrary, SerializationRoundTrips)
{
    const auto dev = waveform::DeviceModel::ibm("bogota");
    const auto lib = waveform::PulseLibrary::build(dev);
    FidelityAwareConfig cfg;
    cfg.base.codec = "int-dct";
    cfg.base.windowSize = 16;
    auto clib = CompressedLibrary::build(lib, cfg);
    // The calibration-epoch stamp rides the container format (v5+).
    clib.setVersion(42);

    std::stringstream ss;
    clib.save(ss);
    const auto loaded = CompressedLibrary::load(ss);
    ASSERT_EQ(loaded.size(), clib.size());
    EXPECT_EQ(loaded.version(), 42u);

    Decompressor dec;
    for (const auto &[id, e] : clib.entries()) {
        ASSERT_TRUE(loaded.contains(id));
        const auto &l = loaded.entry(id);
        EXPECT_DOUBLE_EQ(l.threshold, e.threshold);
        EXPECT_DOUBLE_EQ(l.mse, e.mse);
        // Decoded waveforms are bit-identical.
        const auto a = dec.decompress(e.cw);
        const auto b = dec.decompress(l.cw);
        EXPECT_EQ(a.i, b.i);
        EXPECT_EQ(a.q, b.q);
    }
}

TEST(CompressedLibrary, LoadRejectsGarbage)
{
    std::stringstream ss;
    ss << "not a compressed library";
    EXPECT_DEATH({ auto l = CompressedLibrary::load(ss); }, "magic");
}

// -------------------------------------------------- library compile plane

/** A small flat-top-heavy device library: CR-style CX pulses with a
 *  long constant middle plus DRAG 1Q gates. */
waveform::PulseLibrary
flatTopHeavyLibrary()
{
    waveform::PulseLibrary lib;
    for (int q = 0; q < 3; ++q) {
        lib.insert({waveform::GateType::X, q, -1},
                   waveform::drag(160, 40.0, 0.15 + 0.01 * q, 0.8));
        lib.insert({waveform::GateType::CX, q, q + 1},
                   waveform::gaussianSquare(1360, 200,
                                            0.10 + 0.01 * q, 0.12));
    }
    // A mixed-representation gate: flat-top I, Hann Q with no flat
    // run — the planner must be able to ship I adaptive and Q plain.
    waveform::IqWaveform mixed =
        waveform::gaussianSquare(1360, 200, 0.11, 0.0);
    mixed.q = waveform::raisedCosine(1360, 0.08);
    lib.insert({waveform::GateType::Measure, 0, -1},
               std::move(mixed));
    return lib;
}

LibraryCompilerConfig
compilerConfig(bool plan, int workers)
{
    LibraryCompilerConfig cfg;
    cfg.fidelity.base.codec = "int-dct";
    cfg.fidelity.base.windowSize = 16;
    cfg.planPerChannel = plan;
    cfg.workers = workers;
    return cfg;
}

std::string
serialized(const CompressedLibrary &lib)
{
    std::stringstream ss;
    lib.save(ss);
    return ss.str();
}

TEST(LibraryCompiler, WorkerCountDoesNotChangeTheLibrary)
{
    const auto lib = flatTopHeavyLibrary();
    const auto one =
        LibraryCompiler(compilerConfig(true, 1)).compile(lib);
    const auto eight =
        LibraryCompiler(compilerConfig(true, 8)).compile(lib);
    // Bit-identical serialized bytes, not just equal stats.
    EXPECT_EQ(serialized(one.library), serialized(eight.library));
    EXPECT_EQ(one.stats.plannedWords, eight.stats.plannedWords);
    EXPECT_EQ(one.stats.adaptiveChannels,
              eight.stats.adaptiveChannels);
    EXPECT_EQ(eight.stats.workers, 8);
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

TEST(LibraryCompiler, CompiledBytesArePinned)
{
    // Transform-once Algorithm 1, adaptive ramps cut from the analyzed
    // windows and the vector forward kernel must not change one byte
    // of what ships: FNV-1a of the saved library at WS=8, as compiled
    // by the one-transform-per-round compile plane. Also pins the
    // search and planning counts, one forward transform per window,
    // and 1- vs 3-worker identity.
    const auto d5 = circuits::makeSurfaceCode(
        5, circuits::SurfaceLayout::Rotated, 1);
    const auto d5cal = [&](int cal) {
        return waveform::DeviceModel::synthetic(
            "perfbench-d5-cal" + std::to_string(cal), d5.totalQubits(),
            d5.nativeCoupling().edges());
    };
    struct Pin
    {
        waveform::DeviceModel dev;
        std::uint64_t hash;
        std::uint64_t iterations;
        std::size_t adaptive;
        std::size_t planned;
    };
    const Pin pins[] = {
        {d5cal(0), 0x3f5326aadecc6507ull, 713, 427, 42484},
        {d5cal(1), 0xb920549c1421f5b7ull, 726, 432, 42736},
        {waveform::DeviceModel::ibm("washington"),
         0xe9e19a80e358ebb9ull, 1552, 858, 88083},
        {waveform::DeviceModel::ibm("bogota"), 0x1a2fa26ce90ef809ull,
         54, 27, 2920},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.dev.name());
        const auto lib = waveform::PulseLibrary::build(pin.dev);
        LibraryCompilerConfig cfg = compilerConfig(true, 1);
        cfg.fidelity.base.windowSize = 8;
        const auto one = LibraryCompiler(cfg).compile(lib);
        cfg.workers = 3;
        const auto three = LibraryCompiler(cfg).compile(lib);

        const std::string bytes = serialized(one.library);
        EXPECT_EQ(fnv1a(bytes), pin.hash);
        EXPECT_EQ(one.stats.thresholdIterations, pin.iterations);
        EXPECT_EQ(one.stats.adaptiveChannels, pin.adaptive);
        EXPECT_EQ(one.stats.plannedWords, pin.planned);
        std::uint64_t windows = 0;
        for (const auto &[id, e] : one.library.entries())
            windows += e.cw.i.numWindows() + e.cw.q.numWindows();
        EXPECT_EQ(one.stats.forwardWindows, windows);

        EXPECT_EQ(serialized(three.library), bytes);
        EXPECT_EQ(three.stats.thresholdIterations, pin.iterations);
        EXPECT_EQ(three.stats.adaptiveChannels, pin.adaptive);
        EXPECT_EQ(three.stats.plannedWords, pin.planned);
        EXPECT_EQ(three.stats.forwardWindows, windows);
    }
}

TEST(LibraryCompiler, PerChannelPlanningSavesWordsOnFlatTops)
{
    const auto lib = flatTopHeavyLibrary();
    const auto plain =
        LibraryCompiler(compilerConfig(false, 1)).compile(lib);
    const auto planned =
        LibraryCompiler(compilerConfig(true, 2)).compile(lib);

    // Planning never runs when disabled...
    EXPECT_EQ(plain.stats.adaptiveChannels, 0u);
    EXPECT_EQ(plain.stats.plannedWords, plain.stats.windowCodecWords);
    // ...and on a flat-top-heavy library it ships adaptive channels
    // that cost strictly fewer memory words.
    EXPECT_GT(planned.stats.adaptiveChannels, 0u);
    EXPECT_LT(planned.stats.plannedWords,
              plain.stats.plannedWords);
    EXPECT_GT(planned.stats.wordsSavedFraction(), 0.0);

    // Every shipped representation still meets the MSE target.
    Decompressor dec;
    for (const auto &[id, e] : planned.library.entries()) {
        const auto &wf = lib.waveform(id);
        const auto rt = dec.decompress(e.cw);
        const double worst =
            std::max(dsp::mse(wf.i, rt.i), dsp::mse(wf.q, rt.q));
        EXPECT_LE(worst, compilerConfig(true, 1).fidelity.targetMse)
            << waveform::toString(id);
        EXPECT_NEAR(e.mse, worst, 1e-12);
        // When exactly one channel ships adaptively, the surviving
        // plain channel must have shed its equalization padding:
        // no explicit trailing zeros left in any window prefix.
        if (e.cw.i.isAdaptive() != e.cw.q.isAdaptive()) {
            const auto &plainCh =
                e.cw.i.isAdaptive() ? e.cw.q : e.cw.i;
            for (const auto &w : plainCh.windows)
                if (!w.icoeffs.empty())
                    EXPECT_NE(w.icoeffs.back(), 0)
                        << waveform::toString(id);
        }
    }
    // The fixture's Measure gate exists to pin the mixed case down.
    const auto &mixed =
        planned.library.entry({waveform::GateType::Measure, 0, -1});
    EXPECT_TRUE(mixed.cw.i.isAdaptive());
    EXPECT_FALSE(mixed.cw.q.isAdaptive());
}

TEST(LibraryCompiler, PlanningIsANoOpForNonIntegerCodecs)
{
    auto cfg = compilerConfig(true, 2);
    cfg.fidelity.base.codec = "dct-w";
    const auto r = LibraryCompiler(cfg).compile(flatTopHeavyLibrary());
    EXPECT_EQ(r.stats.adaptiveChannels, 0u);
    EXPECT_EQ(r.stats.plannedWords, r.stats.windowCodecWords);
}

TEST(LibraryCompiler, PlannedLibrarySerializationRoundTrips)
{
    const auto lib = flatTopHeavyLibrary();
    const auto planned =
        LibraryCompiler(compilerConfig(true, 2)).compile(lib);
    ASSERT_GT(planned.stats.adaptiveChannels, 0u);

    std::stringstream ss;
    planned.library.save(ss);
    const auto loaded = CompressedLibrary::load(ss);
    ASSERT_EQ(loaded.size(), planned.library.size());
    // A second save produces the same bytes (stable v4 encoding)...
    EXPECT_EQ(serialized(loaded), serialized(planned.library));
    // ...and adaptive channels decode bit-identically after the trip.
    Decompressor dec;
    for (const auto &[id, e] : planned.library.entries()) {
        const auto a = dec.decompress(e.cw);
        const auto b = dec.decompress(loaded.entry(id).cw);
        EXPECT_EQ(a.i, b.i);
        EXPECT_EQ(a.q, b.q);
    }
}

// ------------------------------------- golden-bytes format migration

/** Byte-level writers replicating the historical v1-v3 encoders. */
template <typename T>
void
put(std::string &s, T v)
{
    s.append(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
void
putVector(std::string &s, const std::vector<T> &v)
{
    put<std::uint64_t>(s, v.size());
    if (!v.empty())
        s.append(reinterpret_cast<const char *>(v.data()),
                 v.size() * sizeof(T));
}

void
putLegacyDelta(std::string &s, std::uint16_t base,
               std::int32_t width, std::uint64_t count,
               const std::vector<std::int32_t> &deltas)
{
    put<std::uint16_t>(s, base);
    put<std::int32_t>(s, width);
    put<std::uint64_t>(s, count);
    put<std::uint8_t>(s, 0); // hasZeroCrossing
    putVector(s, deltas);
}

/** A plain one-window int-dct channel body as v1-v3 wrote it. */
void
putIntChannel(std::string &s, std::uint64_t num_samples,
              const std::vector<std::int32_t> &icoeffs,
              std::uint32_t zeros, bool with_v3_delta)
{
    put<std::uint64_t>(s, num_samples);
    put<std::uint64_t>(s, 4); // windowSize
    put<std::uint64_t>(s, 1); // one window
    putVector<double>(s, {}); // fcoeffs
    putVector(s, icoeffs);
    put<std::uint32_t>(s, zeros);
    if (with_v3_delta) {
        putLegacyDelta(s, 0, 0, 0, {});
        put<std::uint64_t>(s, 0);   // checkpointStride
        putVector<std::uint16_t>(s, {}); // checkpoints
    }
}

void
putEntryHeader(std::string &s, std::uint8_t gate_type,
               std::int32_t q0, std::int32_t q1, double threshold,
               double mse)
{
    put<std::uint8_t>(s, gate_type);
    put<std::int32_t>(s, q0);
    put<std::int32_t>(s, q1);
    put<double>(s, threshold);
    put<double>(s, mse);
    put<std::uint8_t>(s, 1); // converged
}

constexpr std::uint32_t kGoldenMagic = 0x43505154;

/** Field-level equality of two libraries (CompressedChannel has no
 *  operator==; compare what serialization preserves). */
void
expectSameLibrary(const CompressedLibrary &a,
                  const CompressedLibrary &b)
{
    ASSERT_EQ(a.size(), b.size());
    auto ia = a.entries().begin();
    for (const auto &[id, eb] : b.entries()) {
        const auto &[ida, ea] = *ia++;
        EXPECT_EQ(ida, id);
        EXPECT_DOUBLE_EQ(ea.threshold, eb.threshold);
        EXPECT_DOUBLE_EQ(ea.mse, eb.mse);
        EXPECT_EQ(ea.cw.codec, eb.cw.codec);
        EXPECT_EQ(ea.cw.windowSize, eb.cw.windowSize);
        const CompressedChannel *chans[2][2] = {{&ea.cw.i, &eb.cw.i},
                                                {&ea.cw.q, &eb.cw.q}};
        for (const auto &pair : chans) {
            const auto &ca = *pair[0];
            const auto &cb = *pair[1];
            EXPECT_EQ(ca.numSamples, cb.numSamples);
            EXPECT_EQ(ca.windowSize, cb.windowSize);
            ASSERT_EQ(ca.windows.size(), cb.windows.size());
            for (std::size_t w = 0; w < ca.windows.size(); ++w) {
                EXPECT_EQ(ca.windows[w].icoeffs,
                          cb.windows[w].icoeffs);
                EXPECT_EQ(ca.windows[w].fcoeffs,
                          cb.windows[w].fcoeffs);
                EXPECT_EQ(ca.windows[w].zeros, cb.windows[w].zeros);
            }
            EXPECT_EQ(ca.delta.base, cb.delta.base);
            EXPECT_EQ(ca.delta.originalCount,
                      cb.delta.originalCount);
            EXPECT_EQ(ca.delta.deltas, cb.delta.deltas);
            EXPECT_EQ(ca.segments.size(), cb.segments.size());
        }
    }
}

/** Load a hand-crafted legacy blob, re-save (v4), reload: the
 *  migrated library must survive the v4 round trip unchanged. */
void
expectMigratesToV4(const std::string &blob)
{
    std::stringstream in(blob);
    const auto loaded = CompressedLibrary::load(in);
    std::stringstream out;
    loaded.save(out);
    const auto again = CompressedLibrary::load(out);
    expectSameLibrary(loaded, again);
}

TEST(LibraryMigration, GoldenV1BlobLoadsAndRoundTripsIntoV4)
{
    std::string s;
    put<std::uint32_t>(s, kGoldenMagic);
    put<std::uint32_t>(s, 1); // version
    put<std::uint64_t>(s, 1); // one entry
    putEntryHeader(s, 0 /* X */, 0, -1, 0.0125, 3.1e-6);
    put<std::uint8_t>(s, 3); // v1 codec enum: int-dct
    put<std::uint64_t>(s, 4); // waveform windowSize
    putIntChannel(s, 4, {812, -44}, 2, false);
    putIntChannel(s, 4, {37}, 3, false);
    // v1 trailer: waveform-level legacy delta pair (empty).
    putLegacyDelta(s, 0, 0, 0, {});
    putLegacyDelta(s, 0, 0, 0, {});

    std::stringstream in(s);
    const auto lib = CompressedLibrary::load(in);
    ASSERT_EQ(lib.size(), 1u);
    const auto &e =
        lib.entry({waveform::GateType::X, 0, -1});
    EXPECT_EQ(e.cw.codec, "int-dct"); // enum index migrated to name
    EXPECT_DOUBLE_EQ(e.threshold, 0.0125);
    ASSERT_EQ(e.cw.i.windows.size(), 1u);
    EXPECT_EQ(e.cw.i.windows[0].icoeffs,
              (std::vector<std::int32_t>{812, -44}));
    EXPECT_FALSE(e.cw.i.isAdaptive());
    expectMigratesToV4(s);
}

TEST(LibraryMigration, GoldenV1DeltaBlobRecoversNumSamples)
{
    std::string s;
    put<std::uint32_t>(s, kGoldenMagic);
    put<std::uint32_t>(s, 1);
    put<std::uint64_t>(s, 1);
    putEntryHeader(s, 1 /* SX */, 2, -1, 0.05, 1.2e-7);
    put<std::uint8_t>(s, 0); // v1 codec enum: delta
    put<std::uint64_t>(s, 0); // windowSize
    // Empty channel bodies (delta entries stored no windows)...
    putIntChannel(s, 0, {}, 0, false);
    putIntChannel(s, 0, {}, 0, false);
    // ...with the payload in the waveform-level trailer.
    putLegacyDelta(s, 16384, 6, 5, {3, -2, 1, 0});
    putLegacyDelta(s, 8192, 4, 5, {1, 1, -1, 2});

    std::stringstream in(s);
    const auto lib = CompressedLibrary::load(in);
    const auto &e = lib.entry({waveform::GateType::SX, 2, -1});
    EXPECT_EQ(e.cw.codec, "delta");
    // The waveform-level trailer migrated into the channels and
    // numSamples was recovered from the payload.
    EXPECT_EQ(e.cw.i.delta.originalCount, 5u);
    EXPECT_EQ(e.cw.i.numSamples, 5u);
    EXPECT_EQ(e.cw.i.delta.deltas,
              (std::vector<std::int32_t>{3, -2, 1, 0}));
    expectMigratesToV4(s);
}

TEST(LibraryMigration, GoldenV2BlobLoadsAndRoundTripsIntoV4)
{
    std::string s;
    put<std::uint32_t>(s, kGoldenMagic);
    put<std::uint32_t>(s, 2); // version: codec stored by name
    put<std::uint64_t>(s, 1);
    putEntryHeader(s, 2 /* CX */, 1, 4, 0.025, 9.9e-6);
    put<std::uint8_t>(s, 7); // name length
    s.append("int-dct");
    put<std::uint64_t>(s, 4);
    putIntChannel(s, 7, {301, 12, -9}, 1, false);
    putIntChannel(s, 7, {-45, 3}, 2, false);
    putLegacyDelta(s, 0, 0, 0, {});
    putLegacyDelta(s, 0, 0, 0, {});

    std::stringstream in(s);
    const auto lib = CompressedLibrary::load(in);
    const auto &e = lib.entry({waveform::GateType::CX, 1, 4});
    EXPECT_EQ(e.cw.codec, "int-dct");
    EXPECT_EQ(e.cw.q.windows[0].icoeffs,
              (std::vector<std::int32_t>{-45, 3}));
    // Stored window records win over the derived count; the single
    // window clamps to ws, numSamples stays authoritative.
    EXPECT_EQ(e.cw.i.numWindows(), 1u);
    EXPECT_EQ(e.cw.i.numSamples, 7u);
    EXPECT_EQ(e.cw.i.windowSamples(0), 4u);
    expectMigratesToV4(s);
}

TEST(LibraryMigration, CorruptV4SegmentTrailerDiesLoudly)
{
    // A hostile v4 stream whose flat segment claims a million
    // samples against a 32-sample channel must die at load — not as
    // an out-of-bounds write during playback.
    std::string s;
    put<std::uint32_t>(s, kGoldenMagic);
    put<std::uint32_t>(s, 4);
    put<std::uint64_t>(s, 1);
    putEntryHeader(s, 0 /* X */, 0, -1, 0.01, 1e-6);
    put<std::uint8_t>(s, 7);
    s.append("int-dct");
    put<std::uint64_t>(s, 16); // waveform windowSize
    // I channel body: adaptive (no top-level windows).
    put<std::uint64_t>(s, 32); // numSamples
    put<std::uint64_t>(s, 16); // windowSize
    put<std::uint64_t>(s, 0);  // no windows
    putLegacyDelta(s, 0, 0, 0, {});
    put<std::uint64_t>(s, 0);            // checkpointStride
    putVector<std::uint16_t>(s, {});     // checkpoints
    // Segment trailer: one flat segment with a hostile count.
    put<std::uint64_t>(s, 1);
    put<std::uint8_t>(s, 1);
    put<double>(s, 0.5);
    put<std::uint64_t>(s, 1000000);
    // Nested (empty) ramp body.
    put<std::uint64_t>(s, 0);
    put<std::uint64_t>(s, 0);
    put<std::uint64_t>(s, 0);
    putLegacyDelta(s, 0, 0, 0, {});
    put<std::uint64_t>(s, 0);
    putVector<std::uint16_t>(s, {});

    std::stringstream in(s);
    EXPECT_DEATH({ auto l = CompressedLibrary::load(in); },
                 "overrun");
}

TEST(LibraryMigration, GoldenV3BlobLoadsAndRoundTripsIntoV4)
{
    std::string s;
    put<std::uint32_t>(s, kGoldenMagic);
    put<std::uint32_t>(s, 3); // version: per-channel delta records
    put<std::uint64_t>(s, 1);
    putEntryHeader(s, 3 /* Measure */, 5, -1, 0.00625, 4.4e-8);
    put<std::uint8_t>(s, 7);
    s.append("int-dct");
    put<std::uint64_t>(s, 4);
    putIntChannel(s, 4, {650}, 3, true);
    putIntChannel(s, 4, {649, -1}, 2, true);

    std::stringstream in(s);
    const auto lib = CompressedLibrary::load(in);
    const auto &e = lib.entry({waveform::GateType::Measure, 5, -1});
    ASSERT_EQ(e.cw.i.windows.size(), 1u);
    EXPECT_EQ(e.cw.i.windows[0].zeros, 3u);
    // v3 predates the adaptive variant: channels load plain.
    EXPECT_FALSE(e.cw.i.isAdaptive());
    EXPECT_FALSE(e.cw.q.isAdaptive());
    expectMigratesToV4(s);
}

} // namespace
} // namespace compaqt::core
