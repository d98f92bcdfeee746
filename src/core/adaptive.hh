/**
 * @file
 * Adaptive compression for flat-top waveforms (Section V-D, Fig 13).
 *
 * Multi-qubit gates commonly use flat-top envelopes whose long
 * constant middle can be represented by a single repeat codeword and
 * decoded with the IDCT engine *bypassed*, saving both memory and
 * IDCT power. The ramps are compressed normally with int-DCT-W.
 *
 * The constant period is treated as one segment (not divided into
 * windows); segment boundaries are aligned to the window grid so the
 * surrounding DCT windows stay well-formed.
 *
 * The output is the first-class adaptive variant of
 * core::CompressedChannel (segments non-empty): it serializes with
 * the library, decodes through core::Decompressor, and streams
 * through the uarch pipeline like any other channel. Callers normally
 * reach this through the library compile plane
 * (core::LibraryCompiler), which plans per channel whether the
 * adaptive or the plain windowed representation is cheaper —
 * AdaptiveCompressor is the segmentation engine underneath.
 */

#ifndef COMPAQT_CORE_ADAPTIVE_HH
#define COMPAQT_CORE_ADAPTIVE_HH

#include <cstdint>
#include <vector>

#include "core/compressor.hh"
#include "waveform/shapes.hh"

namespace compaqt::core
{

/**
 * Adaptive compressor: detects the window-aligned flat run of each
 * channel and encodes it as a repeat codeword; everything else goes
 * through the regular int-DCT-W path. When no qualifying flat run
 * exists the plain windowed representation is returned unchanged
 * (segments empty), so `isAdaptive()` on the result tells a planner
 * whether segmentation found anything to bypass.
 *
 * Holds a configured Compressor (whose codec carries scratch
 * buffers), so like it an AdaptiveCompressor is move-only and must
 * not be shared between threads; build one per thread.
 */
class AdaptiveCompressor
{
  public:
    /**
     * @param cfg regular codec configuration for the ramp segments
     *        (must name a windowed integer codec in the registry)
     * @param min_flat_windows minimum window-aligned flat length, in
     *        windows, worth a bypass segment
     */
    explicit AdaptiveCompressor(const CompressorConfig &cfg,
                                std::size_t min_flat_windows = 2);

    const CompressorConfig &config() const
    {
        return ramps_.config();
    }

    /** Compress both channels (configured threshold). The result's
     *  codec field names the ramp codec; channels are adaptive only
     *  where a qualifying flat run exists. Channels are NOT prefix-
     *  equalized: adaptive channels have no uniform window list to
     *  equalize against. */
    CompressedWaveform
    compress(const waveform::IqWaveform &wf) const;

    /** The window-aligned flat run of `x` worth a bypass segment (at
     *  least min_flat_windows windows; start and length are
     *  multiples of the window size); length 0 when there is none. */
    waveform::FlatRun alignedFlatRun(std::span<const double> x) const;

    /**
     * Build the adaptive channel of `x` around `flat` at `threshold`
     * from x's coefficients (the ramp codec's analyze() of the whole
     * channel): ramp segments are window-aligned, so each one is a
     * range of the plain channel's windows and nothing is
     * transformed again. The library compile plane calls this with
     * the coefficients and the threshold Algorithm 1 settled on for
     * the gate.
     * @pre flat is alignedFlatRun(x) with length > 0
     */
    CompressedChannel
    compressChannel(std::span<const double> x,
                    const ChannelCoefficients &coeffs,
                    waveform::FlatRun flat, double threshold) const;

  private:
    Compressor ramps_;
    std::size_t minFlatWindows_;
};

} // namespace compaqt::core

#endif // COMPAQT_CORE_ADAPTIVE_HH
