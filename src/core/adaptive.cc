#include "core/adaptive.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "dsp/int_dct.hh"
#include "waveform/shapes.hh"

namespace compaqt::core
{

AdaptiveCompressor::AdaptiveCompressor(const CompressorConfig &cfg,
                                       std::size_t min_flat_windows)
    : ramps_(cfg), minFlatWindows_(min_flat_windows)
{
    COMPAQT_REQUIRE(ramps_.codec().isInteger() &&
                        ramps_.codec().isWindowed(),
                    "adaptive compression needs a windowed integer codec");
    COMPAQT_REQUIRE(min_flat_windows >= 1, "min_flat_windows must be >=1");
}

waveform::FlatRun
AdaptiveCompressor::alignedFlatRun(std::span<const double> x) const
{
    const std::size_t ws = ramps_.config().windowSize;
    // Find the longest flat run at the quantized resolution, then
    // shrink it to window-aligned boundaries.
    const auto run =
        waveform::findFlatRun(x, minFlatWindows_ * ws,
                              1.0 / (1 << dsp::IntDct::kInputFractionBits));
    if (run.length < minFlatWindows_ * ws)
        return {};
    const std::size_t begin = (run.start + ws - 1) / ws * ws;
    const std::size_t end = (run.start + run.length) / ws * ws;
    if (end < begin + minFlatWindows_ * ws)
        return {}; // alignment ate the run
    return {begin, end - begin};
}

CompressedChannel
AdaptiveCompressor::compressChannel(std::span<const double> x,
                                    const ChannelCoefficients &coeffs,
                                    waveform::FlatRun flat,
                                    double threshold) const
{
    const std::size_t ws = ramps_.config().windowSize;
    const ICodec &codec = ramps_.codec();
    const std::size_t flat_end = flat.start + flat.length;
    COMPAQT_REQUIRE(flat.length > 0 && flat.start % ws == 0 &&
                        flat.length % ws == 0 && flat_end <= x.size(),
                    "flat run must be a window-aligned range of x");
    COMPAQT_REQUIRE(coeffs.windowSize == ws &&
                        coeffs.numSamples == x.size(),
                    "coefficients were not analyzed from this channel");

    CompressedChannel ch;
    ch.numSamples = x.size();
    ch.windowSize = ws;

    auto pushRamp = [&](std::size_t begin, std::size_t end) {
        if (begin >= end)
            return;
        AdaptiveSegment seg;
        seg.isFlat = false;
        codec.encodeFrom(coeffs.windows(begin / ws,
                                        (end - begin + ws - 1) / ws),
                         threshold, seg.windows);
        ch.segments.push_back(std::move(seg));
    };

    pushRamp(0, flat.start);
    AdaptiveSegment bypass;
    bypass.isFlat = true;
    bypass.count = flat.length;
    // Store the value at the quantized resolution the bypass path
    // would emit.
    bypass.value =
        dsp::IntDct::dequantize(dsp::IntDct::quantize(x[flat.start]));
    ch.segments.push_back(std::move(bypass));
    pushRamp(flat_end, x.size());
    return ch;
}

CompressedWaveform
AdaptiveCompressor::compress(const waveform::IqWaveform &wf) const
{
    const ICodec &codec = ramps_.codec();
    const double threshold = ramps_.config().threshold;
    CompressedWaveform out;
    out.codec.assign(codec.name());
    out.windowSize = ramps_.config().windowSize;
    ChannelCoefficients coeffs;
    const std::span<const double> x[2] = {wf.i, wf.q};
    CompressedChannel *slot[2] = {&out.i, &out.q};
    for (int c = 0; c < 2; ++c) {
        codec.analyze(x[c], coeffs);
        const auto flat = alignedFlatRun(x[c]);
        // No bypassable run: the plain windowed representation IS the
        // result, so planners see isAdaptive() == false.
        if (flat.length == 0)
            codec.encodeFrom(coeffs.view(), threshold, *slot[c]);
        else
            *slot[c] = compressChannel(x[c], coeffs, flat, threshold);
    }
    return out;
}

} // namespace compaqt::core
