/**
 * @file
 * "delta" — the base-delta compression baseline of Section IV-B,
 * adapting dsp::deltaEncode/deltaDecode to the ICodec interface. The
 * codec is lossless (up to sample quantization) and channel-level:
 * each channel's payload is a delta stream in CompressedChannel::delta
 * rather than transform windows.
 *
 * A delta stream is sequential by nature — sample k depends on the
 * running pattern — so random access needs a side index. When the
 * codec is configured with a window size the encoder stores a pattern
 * checkpoint at every window boundary, giving decompressWindowInto a
 * real O(windowSize) path; configured without one (window size 0),
 * per-window decode throws std::logic_error via the base class.
 */

#include <memory>

#include "common/logging.hh"
#include "core/codec.hh"
#include "core/codecs/builtin.hh"
#include "dsp/delta.hh"

namespace compaqt::core::codecs
{

namespace
{

class DeltaCodec final : public ICodec
{
  public:
    explicit DeltaCodec(std::size_t ws)
        : ws_(ws)
    {
    }

    std::string_view name() const override { return kDeltaCodecName; }
    std::string_view label() const override { return "Delta"; }
    bool isInteger() const override { return false; }
    bool isWindowed() const override { return ws_ > 0; }
    std::size_t windowSize() const override { return ws_; }

    void
    encodeFrom(const CoefficientView &c, double /*threshold*/,
               CompressedChannel &out) const override
    {
        // Lossless: the threshold has no coefficient domain to act on.
        COMPAQT_REQUIRE(c.windowSize == 0 &&
                            c.fcoeffs.size() == c.numSamples,
                        "delta coefficients must be the samples");
        out.numSamples = c.numSamples;
        out.windowSize = ws_;
        out.windows.clear();
        out.delta = dsp::deltaEncode(c.fcoeffs, ws_);
    }

    void
    decodeInto(const CompressedChannel &ch,
               SampleSpan out) const override
    {
        COMPAQT_REQUIRE(ch.delta.originalCount == ch.numSamples,
                        "delta payload size mismatch");
        dsp::deltaDecodeInto(ch.delta, out);
    }

    std::size_t
    decompressWindowInto(const CompressedChannel &ch,
                         std::size_t window,
                         SampleSpan out) const override
    {
        // Without checkpoints there is no O(ws) entry into the delta
        // stream; the base class throws std::logic_error with the
        // codec name.
        if (ch.windowSize == 0 ||
            ch.delta.checkpointStride != ch.windowSize)
            return ICodec::decompressWindowInto(ch, window, out);
        COMPAQT_REQUIRE(window < ch.numWindows(),
                        "window index out of range");
        return dsp::deltaDecodeWindowInto(ch.delta, window, out);
    }

    std::size_t
    decodeWindowsInto(const CompressedChannel &ch,
                      std::size_t first_window,
                      std::size_t window_count,
                      SampleSpan out) const override
    {
        if (ch.windowSize == 0 ||
            ch.delta.checkpointStride != ch.windowSize)
            return ICodec::decodeWindowsInto(ch, first_window,
                                             window_count, out);
        COMPAQT_REQUIRE(first_window + window_count <=
                            ch.numWindows(),
                        "window batch out of range");
        if (window_count == 0)
            return 0;
        // A batch needs one checkpoint seek instead of one per
        // window, and the sign-magnitude conversion vectorizes over
        // the whole run.
        return dsp::deltaDecodeWindowsInto(ch.delta, first_window,
                                           window_count, out);
    }

  private:
    /** Delta coding has no transform: the "coefficients" are the
     *  samples, one unwindowed block (the checkpoint stride is the
     *  codec's, applied by encodeFrom). */
    void
    transformInto(ConstSampleSpan x,
                  ChannelCoefficients &out) const override
    {
        out.numSamples = x.size();
        out.windowSize = 0;
        out.icoeffs.clear();
        out.fcoeffs.assign(x.begin(), x.end());
    }

    std::size_t ws_;
};

} // namespace

void
registerDeltaCodec(CodecRegistry &reg)
{
    reg.add(std::string(kDeltaCodecName), [](std::size_t ws) {
        return std::make_unique<DeltaCodec>(ws);
    });
}

} // namespace compaqt::core::codecs
