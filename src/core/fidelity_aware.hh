/**
 * @file
 * Fidelity-aware compression (Algorithm 1, Section IV-C).
 *
 * A uniform threshold can distort some pulses past their fidelity
 * budget; the paper instead tunes the threshold per gate pulse,
 * exploiting the strong correlation between waveform MSE and gate
 * fidelity. Starting from a coarse threshold, the threshold is halved
 * until the decompressed pulse's MSE meets the target; if the
 * threshold underruns the 1e-6 floor without converging, the pulse is
 * reported as incompressible at that budget (Algorithm 1 returns -1).
 */

#ifndef COMPAQT_CORE_FIDELITY_AWARE_HH
#define COMPAQT_CORE_FIDELITY_AWARE_HH

#include "core/compressor.hh"
#include "core/decompressor.hh"

namespace compaqt::core
{

/** Tuning knobs for Algorithm 1. */
struct FidelityAwareConfig
{
    /** Codec/window configuration; threshold is overwritten. */
    CompressorConfig base;
    /** Target worst-channel MSE between original and round trip.
     *  1e-5 reproduces the paper's operating point: Fig 7(c)'s MSE
     *  band and the <=3 words/window histogram of Fig 11. */
    double targetMse = 1e-5;
    /** First threshold attempted (normalized amplitude units). */
    double initialThreshold = 0.05;
    /** Give-up floor from Algorithm 1. */
    double minThreshold = 1e-6;
};

/** Outcome of the per-pulse threshold search. */
struct FidelityAwareResult
{
    CompressedWaveform compressed;
    /** Threshold that met the target (or the floor value if not). */
    double threshold = 0.0;
    /** Worst-channel MSE of the returned compression. */
    double mse = 0.0;
    /** Per-channel MSE (I, Q) of the returned compression. */
    double channelMse[2] = {0.0, 0.0};
    /** False when even the floor threshold misses the target. */
    bool converged = false;
    /** Number of compress/decompress iterations performed. */
    int iterations = 0;
};

/**
 * Run Algorithm 1 on one gate pulse: find the largest power-of-two
 * scaled threshold meeting the MSE target, maximizing compression
 * subject to fidelity. The codec named by cfg.base.codec is resolved
 * once in the CodecRegistry and reused across iterations.
 */
FidelityAwareResult compressFidelityAware(const waveform::IqWaveform &wf,
                                          const FidelityAwareConfig &cfg);

/**
 * Same search on an already-resolved codec instance (what the
 * pipeline facade uses, so per-pulse searches share one codec and its
 * scratch buffers). Only cfg's target/threshold knobs are read.
 */
FidelityAwareResult compressFidelityAware(const ICodec &codec,
                                          const waveform::IqWaveform &wf,
                                          const FidelityAwareConfig &cfg);

/**
 * Same search on `wf` already analyzed by `codec` (ICodec::analyze of
 * both channels): each round only thresholds, packs, decodes and
 * measures, so a pulse is transformed once however many rounds it
 * takes. The library compile plane calls this with coefficients it
 * reuses for adaptive ramp segments.
 */
FidelityAwareResult compressFidelityAware(const ICodec &codec,
                                          const waveform::IqWaveform &wf,
                                          const WaveformCoefficients &coeffs,
                                          const FidelityAwareConfig &cfg);

} // namespace compaqt::core

#endif // COMPAQT_CORE_FIDELITY_AWARE_HH
