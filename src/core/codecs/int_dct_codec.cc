/**
 * @file
 * "int-dct" — the windowed HEVC-style integer DCT of Section IV-C,
 * the codec the hardware decompression engine of Section V decodes.
 * Samples are quantized to Q15 and transformed with dsp::IntDct
 * (analyze), then thresholded in integer coefficient units
 * (encodeFrom; the normalized-amplitude threshold is converted
 * through the transform's coefficientScale so thresholds are
 * comparable across codecs).
 *
 * The decode side is span-native: every decode entry point writes each
 * window straight into caller-owned memory through one fused
 * IDCT -> Q15 kernel (dsp::IntDct::inversePrefixQ15), with no scratch
 * and no allocation.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "core/codec.hh"
#include "core/codecs/builtin.hh"
#include "dsp/int_dct.hh"

namespace compaqt::core::codecs
{

namespace
{

class IntDctCodec final : public ICodec
{
  public:
    explicit IntDctCodec(std::size_t ws)
        : xform_(ws), xbuf_(ws)
    {
    }

    std::string_view name() const override { return "int-dct"; }
    std::string_view label() const override { return "int-DCT-W"; }
    bool isInteger() const override { return true; }
    std::size_t windowSize() const override { return xform_.size(); }

    void
    encodeFrom(const CoefficientView &c, double threshold,
               CompressedChannel &out) const override
    {
        const std::size_t ws = xform_.size();
        const std::size_t nwin = (c.numSamples + ws - 1) / ws;
        COMPAQT_REQUIRE(c.windowSize == ws &&
                            c.icoeffs.size() == nwin * ws,
                        "coefficients do not match the codec's windows");
        const auto thr = static_cast<std::int32_t>(
            std::lround(threshold * xform_.coefficientScale()));

        out.numSamples = c.numSamples;
        out.windowSize = ws;
        out.delta = {};
        out.windows.resize(nwin);
        for (std::size_t w = 0; w < nwin; ++w)
            packWindow(c.icoeffs.subspan(w * ws, ws), thr,
                       out.windows[w]);
    }

    void
    decodeInto(const CompressedChannel &ch,
               SampleSpan out) const override
    {
        const std::size_t ws = xform_.size();
        COMPAQT_REQUIRE(ch.windowSize == ws,
                        "channel window size does not match codec");
        COMPAQT_REQUIRE(out.size() == ch.numSamples,
                        "channel output span has wrong size");
        COMPAQT_REQUIRE(ch.windows.size() * ws >= ch.numSamples,
                        "decoded fewer samples than stored");
        for (std::size_t w = 0; w < ch.windows.size(); ++w) {
            const std::size_t len = ch.windowSamples(w);
            if (len == 0)
                break;
            decodeWindow(ch.windows[w], out.subspan(w * ws, len));
        }
    }

    std::size_t
    decompressWindowInto(const CompressedChannel &ch,
                         std::size_t window,
                         SampleSpan out) const override
    {
        const std::size_t ws = xform_.size();
        COMPAQT_REQUIRE(ch.windowSize == ws,
                        "channel window size does not match codec");
        COMPAQT_REQUIRE(window < ch.windows.size(),
                        "window index out of range");
        // The tail window is trimmed to numSamples exactly as
        // decodeInto() trims the assembled channel; windows entirely
        // past numSamples (corrupt stream) decode to zero samples
        // rather than underflowing.
        const std::size_t len = ch.windowSamples(window);
        COMPAQT_REQUIRE(out.size() >= len,
                        "window output span too small");
        decodeWindow(ch.windows[window], out.first(len));
        return len;
    }

    std::size_t
    decodeWindowsInto(const CompressedChannel &ch,
                      std::size_t first_window,
                      std::size_t window_count,
                      SampleSpan out) const override
    {
        const std::size_t ws = xform_.size();
        COMPAQT_REQUIRE(ch.windowSize == ws,
                        "channel window size does not match codec");
        COMPAQT_REQUIRE(first_window + window_count <=
                            ch.windows.size(),
                        "window batch out of range");
        // One virtual call and one bound check amortized over the run;
        // the windows are consecutive, so every one but the clamped
        // tail is a full window (windows past numSamples are empty).
        const std::size_t total =
            ch.rangeSamples(first_window, window_count);
        COMPAQT_REQUIRE(out.size() >= total,
                        "window batch output span too small");
        for (std::size_t j = 0, done = 0; done < total; ++j) {
            const std::size_t len = std::min(ws, total - done);
            decodeWindow(ch.windows[first_window + j],
                         out.subspan(done, len));
            done += len;
        }
        return total;
    }

  private:
    void
    transformInto(ConstSampleSpan x,
                  ChannelCoefficients &out) const override
    {
        const std::size_t ws = xform_.size();
        const std::size_t nwin = (x.size() + ws - 1) / ws;
        out.numSamples = x.size();
        out.windowSize = ws;
        out.fcoeffs.clear();
        out.icoeffs.resize(nwin * ws);
        for (std::size_t w = 0; w < nwin; ++w) {
            const std::size_t begin = w * ws;
            const std::size_t len = std::min(ws, x.size() - begin);
            for (std::size_t k = 0; k < len; ++k)
                xbuf_[k] = dsp::IntDct::quantize(x[begin + k]);
            std::fill(xbuf_.begin() + static_cast<std::ptrdiff_t>(len),
                      xbuf_.end(), 0);
            xform_.forward(xbuf_,
                           std::span(out.icoeffs).subspan(begin, ws));
        }
    }

    /** Decode one packed window into `out` (its first out.size()
     *  samples) — the single definition of the window-decode step
     *  every decode path shares (their bit-exactness contract depends
     *  on it). The trailing-zero run never gets expanded: the
     *  prefix-sparse inverse consumes the packed coefficients
     *  directly, bit-exact with the dense product on the
     *  zero-extended window. */
    void
    decodeWindow(const CompressedWindow &w, SampleSpan out) const
    {
        COMPAQT_REQUIRE(w.icoeffs.size() + w.zeros == xform_.size(),
                        "compressed window has wrong size");
        xform_.inversePrefixQ15(w.icoeffs, out);
    }

    dsp::IntDct xform_;
    mutable std::vector<std::int32_t> xbuf_;
};

} // namespace

void
registerIntDctCodec(CodecRegistry &reg)
{
    reg.add(
        "int-dct",
        [](std::size_t ws) {
            COMPAQT_REQUIRE(dsp::intDctSupported(ws),
                            "int-DCT-W window size must be 4/8/16/32");
            return std::make_unique<IntDctCodec>(ws);
        },
        {"int-dct-w"});
}

} // namespace compaqt::core::codecs
