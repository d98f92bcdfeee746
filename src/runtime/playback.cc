#include "runtime/playback.hh"

#include <algorithm>

namespace compaqt::runtime
{

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

    if (channel.isAdaptive()) {
        // Adaptive channels play a segment run at a time. A flat run
        // is one constant served through the IDCT bypass: its samples
        // are still produced, but it never enters the model and its
        // tallies are arithmetic on the window grid. A ramp run is one
        // range access and batch decodes on the segment's sub-channel.
        const core::ICodec &codec = dec_.resolve(cw.codec, ws);
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
                for (std::size_t done = 0; done < run;) {
                    const std::size_t k = std::min<std::size_t>(
                        kBatchWindows, run - done);
                    c.samples += codec.decodeWindowsInto(
                        seg.windows, local + done, k, scratch);
                    done += k;
                }
            });
        return;
    }

    if (store_)
        store_->access({id, ch, first, libVersion_}, ws, count);
    // Stream the range through the batch decode primitive in
    // kBatchWindows chunks.
    const std::uint32_t end = first + count;
    for (std::uint32_t w = first; w < end;) {
        const auto run = std::min<std::uint32_t>(kBatchWindows, end - w);
        c.samples +=
            dec_.decodeWindowsInto(channel, cw.codec, w, run, scratch);
        c.windows += run;
        w += run;
    }
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
