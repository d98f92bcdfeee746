#include "core/fidelity_aware.hh"

#include <algorithm>

#include "common/logging.hh"
#include "dsp/metrics.hh"

namespace compaqt::core
{

FidelityAwareResult
compressFidelityAware(const ICodec &codec,
                      const waveform::IqWaveform &wf,
                      const WaveformCoefficients &coeffs,
                      const FidelityAwareConfig &cfg)
{
    COMPAQT_REQUIRE(cfg.targetMse > 0.0, "target MSE must be positive");
    COMPAQT_REQUIRE(cfg.initialThreshold > cfg.minThreshold,
                    "initial threshold below the floor");
    COMPAQT_REQUIRE(coeffs.i.numSamples == wf.i.size() &&
                        coeffs.q.numSamples == wf.q.size(),
                    "coefficients were not analyzed from this pulse");

    FidelityAwareResult result;
    double threshold = cfg.initialThreshold;
    waveform::IqWaveform rt;

    while (true) {
        // Threshold/decompress into the same buffers each iteration;
        // only the threshold changes between rounds, so the
        // transform is not redone.
        codec.compressFrom(coeffs, threshold, result.compressed);
        codec.decompress(result.compressed, rt);
        result.channelMse[0] = dsp::mse(wf.i, rt.i);
        result.channelMse[1] = dsp::mse(wf.q, rt.q);
        const double mse =
            std::max(result.channelMse[0], result.channelMse[1]);
        ++result.iterations;

        result.threshold = threshold;
        result.mse = mse;

        if (mse <= cfg.targetMse) {
            result.converged = true;
            return result;
        }
        threshold /= 2.0;
        if (threshold < cfg.minThreshold) {
            // Algorithm 1's "no solution found": return the floor
            // compression so callers can still inspect it.
            result.converged = false;
            return result;
        }
    }
}

FidelityAwareResult
compressFidelityAware(const ICodec &codec,
                      const waveform::IqWaveform &wf,
                      const FidelityAwareConfig &cfg)
{
    WaveformCoefficients coeffs;
    codec.analyze(wf.i, coeffs.i);
    codec.analyze(wf.q, coeffs.q);
    return compressFidelityAware(codec, wf, coeffs, cfg);
}

FidelityAwareResult
compressFidelityAware(const waveform::IqWaveform &wf,
                      const FidelityAwareConfig &cfg)
{
    const auto codec = CodecRegistry::instance().create(
        cfg.base.codec, cfg.base.windowSize);
    return compressFidelityAware(*codec, wf, cfg);
}

} // namespace compaqt::core
