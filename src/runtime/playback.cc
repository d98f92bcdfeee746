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
    const std::uint32_t end = first + count;

    if (channel.isAdaptive()) {
        // Adaptive channels keep the per-window loop: flat windows
        // are constant fills that bypass both the IDCT and the model,
        // and the per-window bypassed accounting has no batch
        // equivalent. One codec-instance resolution per range; the
        // loop dispatches straight to the span primitive.
        const core::ICodec &codec = dec_.resolve(cw.codec, ws);
        if (scratch_.size() < ws)
            scratch_.resize(ws);
        for (std::uint32_t w = first; w < end; ++w) {
            std::size_t local = 0;
            const core::AdaptiveSegment &seg =
                channel.segmentForWindow(w, local);
            if (seg.isFlat) {
                const std::size_t len = channel.windowSamples(w);
                std::fill_n(scratch_.begin(), len, seg.value);
                c.samples += len;
                c.bypassed += len;
                ++c.windows;
                continue;
            }
            if (store_)
                store_->access({id, ch, w, libVersion_}, ws);
            c.samples += codec.decompressWindowInto(
                seg.windows, local, SampleSpan(scratch_.data(), ws));
            ++c.windows;
        }
        return;
    }

    if (store_)
        store_->access({id, ch, first, libVersion_}, ws, count);
    // Stream the range through the batch decode primitive in
    // kBatchWindows chunks.
    if (scratch_.size() < ws * kBatchWindows)
        scratch_.resize(ws * kBatchWindows);
    for (std::uint32_t w = first; w < end;) {
        const auto run = std::min<std::uint32_t>(kBatchWindows, end - w);
        c.samples += dec_.decodeWindowsInto(
            channel, cw.codec, w, run,
            SampleSpan(scratch_.data(), scratch_.size()));
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
