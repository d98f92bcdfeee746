/**
 * @file
 * "dct-n" and "dct-w" — the floating-point DCT codecs of Table II,
 * built on the dsp::DctPlan cached-basis transform. DCT-N treats the
 * whole waveform as one window (the compressibility upper bound of
 * Fig 7b); DCT-W transforms fixed-size windows so the hardware IDCT
 * stays bounded.
 *
 * Instances cache the transform plan and per-window scratch buffers,
 * so encoding into a reused CompressedChannel and decoding into
 * caller-owned spans do no allocation in steady state.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "core/codec.hh"
#include "core/codecs/builtin.hh"
#include "dsp/dct.hh"

namespace compaqt::core::codecs
{

namespace
{

class FloatDctCodec final : public ICodec
{
  public:
    /**
     * @param whole_waveform true for DCT-N (window = whole signal)
     * @param ws fixed window size (DCT-W); ignored for DCT-N
     */
    FloatDctCodec(bool whole_waveform, std::size_t ws)
        : whole_(whole_waveform), ws_(whole_waveform ? 0 : ws)
    {
        COMPAQT_REQUIRE(whole_waveform || ws > 0,
                        "dct-w window size must be positive");
    }

    std::string_view
    name() const override
    {
        return whole_ ? "dct-n" : "dct-w";
    }

    std::string_view
    label() const override
    {
        return whole_ ? "DCT-N" : "DCT-W";
    }

    bool isInteger() const override { return false; }

    /** DCT-N has no fixed window structure: one "window" spans the
     *  whole waveform, whatever its length. */
    bool isWindowed() const override { return !whole_; }

    std::size_t windowSize() const override { return ws_; }

    void
    encodeFrom(const CoefficientView &c, double threshold,
               CompressedChannel &out) const override
    {
        const std::size_t ws = c.windowSize;
        COMPAQT_REQUIRE(ws > 0 && (whole_ || ws == ws_),
                        "coefficients do not match the codec's windows");
        const std::size_t nwin = (c.numSamples + ws - 1) / ws;
        COMPAQT_REQUIRE(c.fcoeffs.size() == nwin * ws,
                        "coefficients do not match the codec's windows");

        out.numSamples = c.numSamples;
        out.windowSize = ws;
        out.delta = {};
        out.windows.resize(nwin);
        for (std::size_t w = 0; w < nwin; ++w)
            packWindow(c.fcoeffs.subspan(w * ws, ws), threshold,
                       out.windows[w]);
    }

    void
    decodeInto(const CompressedChannel &ch,
               SampleSpan out) const override
    {
        const std::size_t ws = ch.windowSize;
        COMPAQT_REQUIRE(ws > 0, "compressed channel has no window size");
        COMPAQT_REQUIRE(out.size() == ch.numSamples,
                        "channel output span has wrong size");
        COMPAQT_REQUIRE(ch.windows.size() * ws >= ch.numSamples,
                        "decoded fewer samples than stored");
        ensurePlan(ws);
        for (std::size_t w = 0; w < ch.windows.size(); ++w) {
            const std::size_t len = ch.windowSamples(w);
            if (len == 0)
                break;
            inverseToScratch(ch.windows[w]);
            std::copy_n(xbuf_.begin(), len,
                        out.begin() +
                            static_cast<std::ptrdiff_t>(w * ws));
        }
    }

    std::size_t
    decompressWindowInto(const CompressedChannel &ch,
                         std::size_t window,
                         SampleSpan out) const override
    {
        // DCT-N's single whole-waveform window goes through the
        // base-class decode-and-slice path.
        if (whole_)
            return ICodec::decompressWindowInto(ch, window, out);
        const std::size_t ws = ch.windowSize;
        COMPAQT_REQUIRE(ws > 0, "compressed channel has no window size");
        COMPAQT_REQUIRE(window < ch.windows.size(),
                        "window index out of range");
        // Clamp as decodeInto's trim does; a window entirely past
        // numSamples decodes to zero samples, not underflow.
        const std::size_t len = ch.windowSamples(window);
        COMPAQT_REQUIRE(out.size() >= len,
                        "window output span too small");
        ensurePlan(ws);
        inverseToScratch(ch.windows[window]);
        std::copy_n(xbuf_.begin(), len, out.begin());
        return len;
    }

    std::size_t
    decodeWindowsInto(const CompressedChannel &ch,
                      std::size_t first_window,
                      std::size_t window_count,
                      SampleSpan out) const override
    {
        // DCT-N: one whole-waveform window; the base-class loop (and
        // through it the decode-and-slice fallback) handles it.
        if (whole_)
            return ICodec::decodeWindowsInto(ch, first_window,
                                             window_count, out);
        const std::size_t ws = ch.windowSize;
        COMPAQT_REQUIRE(ws > 0,
                        "compressed channel has no window size");
        COMPAQT_REQUIRE(first_window + window_count <=
                            ch.windows.size(),
                        "window batch out of range");
        ensurePlan(ws);
        std::size_t written = 0;
        for (std::size_t j = 0; j < window_count; ++j) {
            const std::size_t len =
                ch.windowSamples(first_window + j);
            if (len == 0)
                continue;
            COMPAQT_REQUIRE(out.size() >= written + len,
                            "window batch output span too small");
            if (len == ws) {
                // Full window: the prefix inverse writes the caller's
                // span directly, skipping the scratch bounce.
                COMPAQT_REQUIRE(
                    ch.windows[first_window + j].fcoeffs.size() +
                            ch.windows[first_window + j].zeros ==
                        plan_->size(),
                    "compressed window has wrong size");
                plan_->inversePrefix(
                    ch.windows[first_window + j].fcoeffs,
                    out.subspan(written, ws));
            } else {
                inverseToScratch(ch.windows[first_window + j]);
                std::copy_n(xbuf_.begin(), len,
                            out.begin() +
                                static_cast<std::ptrdiff_t>(written));
            }
            written += len;
        }
        return written;
    }

  private:
    void
    transformInto(ConstSampleSpan x,
                  ChannelCoefficients &out) const override
    {
        const std::size_t ws = whole_ ? x.size() : ws_;
        COMPAQT_REQUIRE(ws > 0, "cannot compress an empty waveform");
        ensurePlan(ws);

        const std::size_t nwin = (x.size() + ws - 1) / ws;
        out.numSamples = x.size();
        out.windowSize = ws;
        out.icoeffs.clear();
        out.fcoeffs.resize(nwin * ws);
        for (std::size_t w = 0; w < nwin; ++w) {
            const std::size_t begin = w * ws;
            const std::size_t len = std::min(ws, x.size() - begin);
            std::copy_n(x.begin() + static_cast<std::ptrdiff_t>(begin),
                        len, xbuf_.begin());
            std::fill(xbuf_.begin() + static_cast<std::ptrdiff_t>(len),
                      xbuf_.end(), 0.0);
            plan_->forward(xbuf_,
                           std::span(out.fcoeffs).subspan(begin, ws));
        }
    }

    /** Inverse-transform one packed window into xbuf_ — shared by
     *  the channel and per-window decode paths. The trailing-zero
     *  run is never expanded: the prefix-sparse inverse consumes the
     *  packed coefficients directly (zero coefficients contribute
     *  +-0.0 to every accumulator, so the result matches the dense
     *  product on the zero-extended window).
     *  @pre ensurePlan(window size) was called */
    void
    inverseToScratch(const CompressedWindow &w) const
    {
        COMPAQT_REQUIRE(w.fcoeffs.size() + w.zeros == plan_->size(),
                        "compressed window has wrong size");
        plan_->inversePrefix(w.fcoeffs, xbuf_);
    }

    void
    ensurePlan(std::size_t ws) const
    {
        if (!plan_ || plan_->size() != ws) {
            plan_ = std::make_unique<dsp::DctPlan>(ws);
            xbuf_.resize(ws);
        }
    }

    bool whole_;
    std::size_t ws_;
    // Cached plan + scratch; rebuilt only when the window size changes
    // (DCT-N sees a new size per waveform length).
    mutable std::unique_ptr<dsp::DctPlan> plan_;
    mutable std::vector<double> xbuf_;
};

} // namespace

void
registerDctCodecs(CodecRegistry &reg)
{
    reg.add("dct-n", [](std::size_t) {
        return std::make_unique<FloatDctCodec>(true, 0);
    });
    reg.add("dct-w", [](std::size_t ws) {
        return std::make_unique<FloatDctCodec>(false, ws);
    });
}

} // namespace compaqt::core::codecs
