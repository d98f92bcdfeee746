#include "runtime/playback.hh"

#include <algorithm>

#include "telemetry/metrics.hh"

namespace compaqt::runtime
{

namespace
{

/** Add one playWindows call's decode batches to the
 *  decode.kernel.{batches,windows} counters: windows / batches is the
 *  achieved batch factor, the lever behind the decode plane's
 *  throughput. */
void
countDecodeBatches(std::uint64_t batches, std::uint64_t windows)
{
    static telemetry::Counter &batchCounter =
        telemetry::Registry::global().counter("decode.kernel.batches");
    static telemetry::Counter &windowCounter =
        telemetry::Registry::global().counter("decode.kernel.windows");
    batchCounter.add(batches);
    windowCounter.add(windows);
}

} // namespace

void
WindowPlayer::playWindows(const waveform::GateId &id,
                          const core::CompressedEntry &entry,
                          std::uint8_t ch, std::uint32_t first,
                          std::uint32_t count, PlaybackCounters &c)
{
    const auto &cw = entry.cw;
    const core::CompressedChannel &channel = ch == 0 ? cw.i : cw.q;
    const std::size_t ws = channel.windowSize;
    if (scratch_.size() < ws * kBatchWindows)
        scratch_.resize(ws * kBatchWindows);
    const SampleSpan scratch(scratch_.data(), scratch_.size());
    const core::ICodec &codec = dec_.resolve(cw.codec, ws);
    // Stream windows [first, first + n) of `src` through the batch
    // decode primitive in kBatchWindows chunks.
    std::uint64_t batches = 0, decoded = 0;
    const auto decode = [&](const core::CompressedChannel &src,
                            std::size_t first_window, std::size_t n) {
        for (std::size_t done = 0; done < n;) {
            const std::size_t k =
                std::min<std::size_t>(kBatchWindows, n - done);
            c.samples += codec.decodeWindowsInto(
                src, first_window + done, k, scratch);
            done += k;
            ++batches;
        }
        decoded += n;
    };

    if (channel.isAdaptive()) {
        // Adaptive channels play a segment run at a time. A flat run
        // is one constant served through the IDCT bypass: its samples
        // are still produced, but it never enters the model and its
        // tallies are arithmetic on the window grid. A ramp run is one
        // range access and batch decodes on the segment's sub-channel.
        channel.forEachSegmentRun(
            first, count,
            [&](const core::AdaptiveSegment &seg, std::size_t local,
                std::size_t global, std::size_t run) {
                c.windows += run;
                if (seg.isFlat) {
                    const std::size_t len =
                        channel.rangeSamples(global, run);
                    for (std::size_t done = 0; done < len;) {
                        const std::size_t n =
                            std::min(len - done, scratch.size());
                        std::fill_n(scratch.begin(), n, seg.value);
                        done += n;
                    }
                    c.samples += len;
                    c.bypassed += len;
                    return;
                }
                if (store_)
                    store_->access(
                        {id, ch, static_cast<std::uint32_t>(global),
                         libVersion_},
                        ws, static_cast<std::uint32_t>(run));
                decode(seg.windows, local, run);
            });
    } else {
        if (store_)
            store_->access({id, ch, first, libVersion_}, ws, count);
        decode(channel, first, count);
        c.windows += count;
    }
    if (decoded > 0)
        countDecodeBatches(batches, decoded);
}

bool
WindowPlayer::prefetchWindow(const waveform::GateId &id,
                             const core::CompressedEntry &entry,
                             std::uint8_t ch, std::uint32_t window,
                             std::uint8_t tier)
{
    if (!decode_ || !store_)
        return false;
    const core::CompressedChannel &channel =
        ch == 0 ? entry.cw.i : entry.cw.q;
    if (channel.isAdaptive()) {
        std::size_t local = 0;
        if (channel.segmentForWindow(window, local).isFlat)
            return false;
    }
    return store_->prefetch({id, ch, window, libVersion_},
                            channel.windowSize, tier);
}

} // namespace compaqt::runtime
