/**
 * @file
 * The one window-playback loop both execution back ends share:
 * decode a range of windows of one gate channel straight into reused
 * scratch through the batch decode primitive. Adaptive flat-top
 * channels play a segment run at a time, so a range costs
 * O(segments + windows decoded): a flat run is one constant served
 * through the IDCT bypass, a ramp run is batch-decoded from its
 * segment's sub-channel. Every plain and ramp window is decoded; a
 * shard's waveform-memory model, when the player has one, only
 * records one range access per plain range or ramp run, as tags
 * (flat windows are never held).
 *
 * RuntimeService's direct schedule-walking path and the
 * instruction-stream interpreter (isa::Interpreter) both play
 * through this helper, which is what makes their RackStats
 * bit-identical by construction rather than by parallel maintenance
 * of two copies of the loop.
 */

#ifndef COMPAQT_RUNTIME_PLAYBACK_HH
#define COMPAQT_RUNTIME_PLAYBACK_HH

#include <cstdint>
#include <vector>

#include "core/decompressor.hh"
#include "runtime/rack.hh"

namespace compaqt::runtime
{

/** Playback-side tallies of one execution cell (the fields of
 *  ShardStats the decode loop owns). */
struct PlaybackCounters
{
    std::uint64_t gates = 0;
    std::uint64_t windows = 0;
    std::uint64_t samples = 0;
    std::uint64_t bypassed = 0;
};

/**
 * Per-cell playback state: one Decompressor, the reused scratch
 * buffer, and optionally the shard's waveform-memory model. Not
 * thread-safe — build one per worker cell, like the codec instances
 * it resolves.
 */
class WindowPlayer
{
  public:
    /**
     * Windows decoded per batch decode call. 8 windows keeps the
     * scratch footprint at a few KB while amortizing the per-batch
     * dispatch (codec resolution, counter bumps, virtual call) well
     * past the point of diminishing returns — bench_decode_stream's
     * K sweep quantifies exactly that curve.
     */
    static constexpr std::uint32_t kBatchWindows = 8;

    /**
     * Play against a pinned library epoch, recording accesses in
     * `store` (null = no model). Model keys carry `vlib.version`, so
     * windows of different calibrations never alias. The player keeps
     * only the version — the caller owns the pin (and passes the
     * entries) and the model's lock.
     */
    WindowPlayer(const Rack &rack, const VersionedLibrary &vlib,
                 TieredWindowStore *store = nullptr)
        : decode_(rack.config().controller.compressed), store_(store),
          libVersion_(vlib.version)
    {
    }

    /** Pin the rack's current epoch; no model (layer probes and
     *  single-library tools). */
    explicit WindowPlayer(const Rack &rack)
        : WindowPlayer(rack, rack.currentLibrary())
    {
    }

    /** False for uncompressed baseline racks: playback streams raw
     *  samples and never touches payloads or the model. */
    bool decodes() const { return decode_; }

    /**
     * Play windows [first, first + count) of channel `ch` (0 = I,
     * 1 = Q) of `entry`, accumulating windows/samples/bypassed into
     * `c`. @pre the range is within the channel's window grid
     */
    void playWindows(const waveform::GateId &id,
                     const core::CompressedEntry &entry,
                     std::uint8_t ch, std::uint32_t first,
                     std::uint32_t count, PlaybackCounters &c);

    /**
     * Place one window of a channel in the model ahead of demand (the
     * PREFETCH op's body). `tier` is the compiler's placement hint: 0
     * targets the fast tier (promoting an already-staged tier-1
     * entry), 1 stages into the slow tier. Returns true for a cold
     * prefetch the model placed; false when there is no model, the
     * key is already resident (a tier-0 hint still promotes it), or
     * the window is a flat bypass window (never held).
     */
    bool prefetchWindow(const waveform::GateId &id,
                        const core::CompressedEntry &entry,
                        std::uint8_t ch, std::uint32_t window,
                        std::uint8_t tier = 0);

    /** The model-key library version this player plays under. */
    std::uint64_t libVersion() const { return libVersion_; }

  private:
    bool decode_;
    TieredWindowStore *store_;
    std::uint64_t libVersion_ = 0;
    core::Decompressor dec_;
    std::vector<double> scratch_;
};

} // namespace compaqt::runtime

#endif // COMPAQT_RUNTIME_PLAYBACK_HH
