/**
 * @file
 * The COMPAQT compile-time compression module (Sections IV-C/IV-D):
 * transform each window of a waveform, zero out sub-threshold
 * coefficients, and fold the trailing zero run into one RLE codeword.
 *
 * Codec selection is by CodecRegistry name (see core/codec.hh for the
 * built-in set matching Table II plus the delta baseline of Section
 * IV-B). Compressor is a thin configured wrapper over one ICodec
 * instance; new codecs registered anywhere are usable here without
 * changes.
 *
 * The pre-registry `enum class Codec` selector has been removed; use
 * the registry string keys or the CompressionPipeline facade. (The
 * serialization loaders still read v1 archives that stored the old
 * enum bytes — the mapping lives with the loader, not here.)
 */

#ifndef COMPAQT_CORE_COMPRESSOR_HH
#define COMPAQT_CORE_COMPRESSOR_HH

#include <memory>
#include <span>
#include <string>

#include "core/codec.hh"

namespace compaqt::core
{

/** Compile-time compression parameters. */
struct CompressorConfig
{
    /** CodecRegistry key ("delta", "dct-n", "dct-w", "int-dct", or
     *  any registered codec). */
    std::string codec = "int-dct";
    /** Window size; ignored by dct-n/delta. Must be 4/8/16/32 for
     *  int-dct. */
    std::size_t windowSize = 16;
    /** Coefficient-zeroing threshold, normalized amplitude units. */
    double threshold = 1e-3;
};

/**
 * Compile-time compressor: one registry codec plus a threshold. Safe
 * to reuse across waveforms, but the codec instance carries scratch
 * buffers, so a Compressor must not be shared between threads; it is
 * move-only to keep that single-owner contract explicit. Build one
 * per thread.
 */
class Compressor
{
  public:
    /** Resolves cfg.codec in the CodecRegistry; fatal if unknown. */
    explicit Compressor(const CompressorConfig &cfg);

    Compressor(const Compressor &) = delete;
    Compressor &operator=(const Compressor &) = delete;
    Compressor(Compressor &&) = default;
    Compressor &operator=(Compressor &&) = default;

    const CompressorConfig &config() const { return cfg_; }

    /** The resolved codec implementation. */
    const ICodec &codec() const { return *codec_; }

    /** Compress both channels; per-window prefixes are equalized
     *  between I and Q as Section IV-C requires. */
    CompressedWaveform compress(const waveform::IqWaveform &wf) const;

    /** Buffer-reusing variant of compress() for hot loops. */
    void compress(const waveform::IqWaveform &wf,
                  CompressedWaveform &out) const;

  private:
    CompressorConfig cfg_;
    std::unique_ptr<const ICodec> codec_;
};

} // namespace compaqt::core

#endif // COMPAQT_CORE_COMPRESSOR_HH
