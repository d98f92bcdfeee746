/**
 * @file
 * The library compile plane: Fig 6's "Compressed Pulse Library" is
 * compiled once per calibration and served hot, so compile latency is
 * calibration downtime. The LibraryCompiler fans Algorithm 1 out
 * across gates on a common::Executor worker pool — each worker owns
 * its codec/segmentation instances (single-owner scratch contract),
 * results are written by gate index, and the reduction is serial, so
 * an N-worker compile is bit-identical to a 1-worker compile. Each
 * channel is transformed once (ICodec::analyze); Algorithm 1's rounds
 * and the adaptive candidate encode from those coefficients.
 *
 * On top of the parallel fan-out it plans **per channel** which
 * representation ships: every channel first gets the configured
 * window codec at its Algorithm-1 threshold, then — when the codec is
 * a windowed integer one — an adaptive flat-top segmentation
 * (Section V-D) is attempted at the same threshold. The cheaper
 * representation in memory words wins, but only if the adaptive
 * candidate also meets the same per-gate MSE target, so planning
 * never trades fidelity for footprint.
 */

#ifndef COMPAQT_CORE_LIBRARY_COMPILER_HH
#define COMPAQT_CORE_LIBRARY_COMPILER_HH

#include <cstdint>

#include "core/compressed_library.hh"

namespace compaqt::core
{

/** Compile-plane configuration. */
struct LibraryCompilerConfig
{
    /** Codec/window/threshold knobs for Algorithm 1. */
    FidelityAwareConfig fidelity;
    /** Worker threads for the gate fan-out (including the caller). */
    int workers = 1;
    /** Attempt the adaptive flat-top representation per channel and
     *  keep it when it costs fewer memory words at the same MSE
     *  target. Ignored (always plain) for codecs that are not
     *  windowed integer ones. */
    bool planPerChannel = true;
    /** Minimum window-aligned flat length, in windows, worth a
     *  bypass segment. */
    std::size_t minFlatWindows = 2;
    /** Calibration version stamped into the compiled library
     *  (CompressedLibrary::version()). 0 = unstamped, the default —
     *  stamping is explicit so two compiles of the same input stay
     *  byte-identical unless the caller names an epoch. */
    std::uint64_t libraryVersion = 0;
};

/** What one compile run did, for benches and capacity planning. */
struct LibraryCompileStats
{
    std::size_t gates = 0;
    /** Channels considered (2 per gate). */
    std::size_t channels = 0;
    /** Channels shipped in the adaptive representation. */
    std::size_t adaptiveChannels = 0;
    /** Library memory words had every channel kept the window
     *  codec. */
    std::size_t windowCodecWords = 0;
    /** Library memory words actually shipped after planning. */
    std::size_t plannedWords = 0;
    /** Total Algorithm-1 compress/decompress iterations. */
    std::uint64_t thresholdIterations = 0;
    /** Windows run through the codec's forward transform
     *  (ICodec::analyze) on the compile's workers. Each channel is
     *  analyzed once, so this equals the library's window count
     *  however many threshold rounds ran. */
    std::uint64_t forwardWindows = 0;
    /** Wall-clock of the compile fan-out. */
    double wallSeconds = 0.0;
    /** Worker count the compile ran with. */
    int workers = 1;

    /** Fraction of window-codec words the plan saved. */
    double
    wordsSavedFraction() const
    {
        return windowCodecWords == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(plannedWords) /
                               static_cast<double>(windowCodecWords);
    }
};

/** A compiled library plus its compile-run statistics. */
struct LibraryCompileResult
{
    CompressedLibrary library;
    LibraryCompileStats stats;
};

/**
 * Parallel, planning compile plane over a device's pulse library.
 * Reusable and safe to call from one thread at a time; each compile()
 * spins its own worker pool sized by config().workers.
 */
class LibraryCompiler
{
  public:
    explicit LibraryCompiler(LibraryCompilerConfig cfg);

    const LibraryCompilerConfig &config() const { return cfg_; }

    /** Compile every gate of the pulse library. Deterministic: the
     *  result is bit-identical for any worker count. */
    LibraryCompileResult
    compile(const waveform::PulseLibrary &lib) const;

  private:
    LibraryCompilerConfig cfg_;
};

} // namespace compaqt::core

#endif // COMPAQT_CORE_LIBRARY_COMPILER_HH
