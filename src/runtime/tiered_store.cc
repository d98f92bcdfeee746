#include "runtime/tiered_store.hh"

#include <algorithm>
#include <bit>
#include <string>

#include "common/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace compaqt::runtime
{

namespace
{

/** Apply `op` to every counter of `s` paired with `o`'s (residency
 *  fields excluded). */
template <typename Op>
void
foldCounters(TieredStoreStats &s, const TieredStoreStats &o, Op op)
{
    op(s.hits, o.hits);
    op(s.misses, o.misses);
    op(s.evictions, o.evictions);
    op(s.prefetches, o.prefetches);
    op(s.prefetchHits, o.prefetchHits);
    op(s.prefetchWasted, o.prefetchWasted);
    op(s.promotions, o.promotions);
    op(s.demotions, o.demotions);
    op(s.tier1Accesses, o.tier1Accesses);
    op(s.penaltyCycles, o.penaltyCycles);
    for (std::size_t t = 0; t < s.tier.size(); ++t) {
        op(s.tier[t].hits, o.tier[t].hits);
        op(s.tier[t].misses, o.tier[t].misses);
        op(s.tier[t].evictions, o.tier[t].evictions);
        op(s.tier[t].admitted, o.tier[t].admitted);
        op(s.tier[t].admitRejected, o.tier[t].admitRejected);
    }
}

constexpr auto kAdd = [](std::uint64_t &a, std::uint64_t b) { a += b; };

/** The index key of `k`'s channel: its window-0 key. */
DecodedWindowKey
channelKey(DecodedWindowKey k)
{
    k.window = 0;
    return k;
}

} // namespace

const char *
admissionPolicyName(AdmissionPolicy p)
{
    switch (p) {
      case AdmissionPolicy::AdmitAlways:
        return "admit-always";
      case AdmissionPolicy::TinyLfu:
        return "tinylfu";
    }
    COMPAQT_PANIC("unknown admission policy");
}

void
TieredStoreStats::accumulate(const TieredStoreStats &o)
{
    foldCounters(*this, o, kAdd);
    entries += o.entries;
    residentSamples += o.residentSamples;
    for (std::size_t t = 0; t < tier.size(); ++t) {
        tier[t].entries += o.tier[t].entries;
        tier[t].residentSamples += o.tier[t].residentSamples;
    }
}

void
TieredStoreStats::advance(const TieredStoreStats &o)
{
    TieredStoreStats next = o;
    foldCounters(next, *this, kAdd);
    *this = next;
}

TieredStoreStats
TieredStoreStats::delta(const TieredStoreStats &before,
                        const TieredStoreStats &after)
{
    TieredStoreStats d = after;
    foldCounters(d, before,
                 [](std::uint64_t &a, std::uint64_t b) { a -= b; });
    return d;
}

/** Three independent multiplies, then a fold so the low bits (bucket
 *  and sketch slots) see the high product bits. */
std::size_t
TieredWindowStore::KeyHash::operator()(const DecodedWindowKey &k) const
{
    const auto q = [](int v) {
        return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v) &
                                          0xFFFFFFu);
    };
    const std::uint64_t gate = static_cast<std::uint64_t>(k.gate.type)
                                   << 56 |
                               q(k.gate.q0) << 32 | q(k.gate.q1) << 8 |
                               k.channel;
    const std::uint64_t h = gate * 0x9E3779B97F4A7C15ull ^
                            k.window * 0xC2B2AE3D27D4EB4Full ^
                            k.libVersion * 0x165667B19E3779F9ull;
    return h ^ h >> 29;
}

TieredWindowStore::TieredWindowStore(const TieredStoreConfig &cfg)
    : cfg_(cfg)
{
    if (capacity() == 0)
        return;
    COMPAQT_REQUIRE(capacity() < kNil / 4,
                    "waveform-memory model capacity too large");
    // Every entry starts on the free list, in index order.
    const auto n = static_cast<std::uint32_t>(capacity() + 1);
    entries_.resize(n);
    for (std::uint32_t e = 0; e < n; ++e) {
        entries_[e].prev = e == 0 ? kNil : e - 1;
        entries_[e].next = e + 1 == n ? kNil : e + 1;
    }
    lists_[kFree] = {0, n - 1, n, 0};
    index_.reserve(entries_.size());
    // ~4 counters per tracked tier-0 window keeps estimates usable at
    // 4-bit saturation.
    if (cfg_.admission == AdmissionPolicy::TinyLfu)
        sketch_.assign(std::min<std::size_t>(
                           std::bit_ceil(std::max<std::size_t>(
                               64, cfg_.tier0Windows * 4)),
                           std::size_t{1} << 20),
                       0);
}

void
TieredWindowStore::sketchAdd(const DecodedWindowKey &key)
{
    if (sketch_.empty())
        return;
    const std::uint64_t h = KeyHash{}(key);
    for (std::uint64_t i = 0; i < 4; ++i) {
        std::uint8_t &c = sketch_[(h + i * (h >> 32 | 1)) &
                                  (sketch_.size() - 1)];
        c = static_cast<std::uint8_t>(std::min(c + 1, 15));
    }
    if (++sketchAdds_ >= sketch_.size() * 8) {
        for (auto &c : sketch_)
            c = static_cast<std::uint8_t>(c >> 1);
        sketchAdds_ >>= 1;
    }
}

std::uint32_t
TieredWindowStore::sketchEstimate(const DecodedWindowKey &key) const
{
    const std::uint64_t h = KeyHash{}(key);
    std::uint32_t best = 15;
    for (std::uint64_t i = 0; i < 4; ++i)
        best = std::min<std::uint32_t>(
            best,
            sketch_[(h + i * (h >> 32 | 1)) & (sketch_.size() - 1)]);
    return best;
}

TieredWindowStore::Channel *
TieredWindowStore::findChannel(const DecodedWindowKey &key)
{
    const auto it = index_.find(channelKey(key));
    return it == index_.end() ? nullptr : &it->second;
}

void
TieredWindowStore::moveTo(std::uint32_t e, std::uint8_t list)
{
    breakRun(e);
    Entry &en = entries_[e];
    List &from = lists_[en.list];
    (en.prev != kNil ? entries_[en.prev].next : from.head) = en.next;
    (en.next != kNil ? entries_[en.next].prev : from.tail) = en.prev;
    --from.size;
    from.samples -= en.samples;
    List &to = lists_[list];
    en.list = list;
    en.prev = kNil;
    en.next = to.head;
    (to.head != kNil ? entries_[to.head].prev : to.tail) = e;
    to.head = e;
    ++to.size;
    to.samples += en.samples;
}

void
TieredWindowStore::runToHead(std::uint32_t first, std::uint32_t last)
{
    List &l = lists_[0];
    if (l.head == first)
        return;
    const std::uint32_t before = entries_[first].prev;
    const std::uint32_t after = entries_[last].next;
    entries_[before].next = after;
    (after != kNil ? entries_[after].prev : l.tail) = before;
    entries_[first].prev = kNil;
    entries_[last].next = l.head;
    entries_[l.head].prev = last;
    l.head = first;
}

void
TieredWindowStore::breakRun(std::uint32_t e)
{
    if (entries_[e].run != kNil) {
        entries_[entries_[e].run].runLen = 0;
        entries_[e].run = kNil;
    }
}

std::uint32_t
TieredWindowStore::access(const DecodedWindowKey &first,
                          std::size_t window_size,
                          std::uint32_t count)
{
    const std::uint32_t end = first.window + count;
    std::uint32_t hits = 0;
    // One probe per range: every window of it is a slot of `ch`.
    Channel *ch = findChannel(first);
    for (DecodedWindowKey key = first; key.window < end;) {
        sketchAdd(key);
        const std::uint32_t e = slot(ch, key.window);
        if (e == kNil) {
            miss(key, window_size, ch, end);
            ++key.window;
            continue;
        }
        std::uint32_t n = 1;
        if (entries_[e].list == 1) {
            hitTier1(e);
        } else {
            // Usually the first window of a range played before: a
            // recorded run moves as one block, the order per-window
            // moves would leave.
            n = entries_[e].runLen;
            if (n == 0 || n > end - key.window)
                n = recordRun(e, key, end);
            runToHead(entries_[e].runHead, e);
            for (DecodedWindowKey k = key; ++k.window < key.window + n;)
                sketchAdd(k);
            stats_.hits += n;
            stats_.tier[0].hits += n;
        }
        hits += n;
        key.window += n;
    }
    return hits;
}

std::uint32_t
TieredWindowStore::recordRun(std::uint32_t first, DecodedWindowKey key,
                             std::uint32_t end)
{
    // Windows played in this order before sit just ahead of `first`:
    // follow them while they hold the next windows.
    std::uint32_t head = first;
    std::uint32_t n = 0;
    for (;;) {
        claim(head);
        breakRun(head);
        entries_[head].run = first;
        ++n;
        ++key.window;
        const std::uint32_t p = entries_[head].prev;
        if (key.window == end || p == kNil ||
            entries_[p].channel != entries_[first].channel ||
            entries_[p].key.window != key.window)
            break;
        head = p;
    }
    entries_[first].runHead = head;
    entries_[first].runLen = n;
    return n;
}

void
TieredWindowStore::claim(std::uint32_t e)
{
    Entry &en = entries_[e];
    if (!en.prefetched)
        return;
    // First demand touch of a prefetched window: it paid off.
    en.prefetched = false;
    ++stats_.prefetchHits;
    COMPAQT_TRACE_INSTANT("cache", "cache.prefetch_claimed", "window",
                          en.key.window, "channel", en.key.channel);
}

void
TieredWindowStore::hitTier1(std::uint32_t e)
{
    ++stats_.hits;
    ++stats_.tier[1].hits;
    ++stats_.tier[0].misses; // tier 0 was probed first
    claim(e);
    chargeTier1();
    if (entries_[e].touched && cfg_.tier0Windows > 0) {
        promote(e);
    } else {
        // First tier-1 touch: mark reuse, promote on the next.
        entries_[e].touched = true;
        moveTo(e, 1);
    }
}

void
TieredWindowStore::miss(const DecodedWindowKey &key,
                        std::size_t window_size, Channel *&ch,
                        std::uint32_t end)
{
    ++stats_.misses;
    for (std::size_t t = 0; t < 2; ++t)
        if (tierWindows(t) > 0)
            ++stats_.tier[t].misses;
    COMPAQT_TRACE_INSTANT("cache", "cache.miss", "window", key.window,
                          "channel", key.channel);
    if (capacity() == 0)
        return;
    if (const std::uint8_t tier = admissionTier(key); tier != kBypass)
        insert(key, window_size, tier, /*prefetched=*/false, ch, end);
}

std::uint8_t
TieredWindowStore::admissionTier(const DecodedWindowKey &key)
{
    if (cfg_.tier0Windows == 0)
        return 1; // tier-1-only model
    if (cfg_.admission == AdmissionPolicy::AdmitAlways ||
        lists_[0].size < cfg_.tier0Windows ||
        // Challenge the LRU victim: the candidate displaces it only
        // when the sketch says it is touched more often.
        sketchEstimate(key) > sketchEstimate(entries_[lists_[0].tail].key))
        return 0;
    ++stats_.tier[0].admitRejected;
    return cfg_.tier1Windows > 0 ? 1 : kBypass;
}

void
TieredWindowStore::insert(const DecodedWindowKey &key,
                          std::size_t window_size, std::uint8_t tier,
                          bool prefetched, Channel *&ch,
                          std::uint32_t end)
{
    // The free list is never empty here: capacity() + 1 entries, and
    // every tier is back within budget after each fill.
    const std::uint32_t e = lists_[kFree].head;
    Entry &en = entries_[e];
    lists_[kFree].samples -= en.samples;
    en.samples = static_cast<std::uint32_t>(window_size);
    lists_[kFree].samples += en.samples;
    en.key = key;
    en.touched = false;
    en.prefetched = prefetched;
    moveTo(e, tier);
    if (!ch)
        ch = &index_[channelKey(key)];
    if (ch->slots.size() <= key.window)
        ch->slots.resize(std::max(key.window + 1, end), kNil);
    ch->slots[key.window] = e;
    ++ch->live;
    en.channel = ch;
    if (prefetched)
        ++stats_.prefetches;
    ++stats_.tier[tier].admitted;
    if (tier == 1)
        chargeTier1();
    evictTier(tier);
}

bool
TieredWindowStore::prefetch(const DecodedWindowKey &key,
                            std::size_t window_size,
                            std::uint8_t target_tier)
{
    if (capacity() == 0)
        return false;
    Channel *ch = findChannel(key);
    if (const std::uint32_t e = slot(ch, key.window); e != kNil) {
        if (entries_[e].list == 1 && target_tier == 0 &&
            cfg_.tier0Windows > 0) {
            // The compiler saw a short reuse distance: pull the
            // staged window into the fast tier ahead of its PLAY.
            chargeTier1();
            promote(e);
        } else {
            moveTo(e, entries_[e].list);
        }
        return false;
    }
    std::uint8_t tier = target_tier == 0 ? 0 : 1;
    if (tierWindows(tier) == 0)
        tier ^= 1;
    insert(key, window_size, tier, /*prefetched=*/true, ch,
           key.window + 1);
    return true;
}

void
TieredWindowStore::promote(std::uint32_t e)
{
    moveTo(e, 0);
    entries_[e].touched = false;
    ++stats_.promotions;
    COMPAQT_TRACE_INSTANT("cache", "store.promote", "window",
                          entries_[e].key.window, "channel",
                          entries_[e].key.channel);
    evictTier(0);
}

void
TieredWindowStore::demote(std::uint32_t e)
{
    moveTo(e, 1);
    // A demoted window already proved reuse in tier 0; its next
    // tier-1 hit promotes it straight back.
    entries_[e].touched = true;
    ++stats_.demotions;
    chargeTier1();
    COMPAQT_TRACE_INSTANT("cache", "store.demote", "window",
                          entries_[e].key.window, "channel",
                          entries_[e].key.channel);
    evictTier(1);
}

void
TieredWindowStore::evictTier(std::uint8_t tier)
{
    while (lists_[tier].size > tierWindows(tier)) {
        const std::uint32_t victim = lists_[tier].tail;
        if (tier == 0 && cfg_.tier1Windows > 0)
            demote(victim);
        else
            drop(victim);
    }
}

void
TieredWindowStore::drop(std::uint32_t e)
{
    Entry &en = entries_[e];
    COMPAQT_TRACE_INSTANT("cache", "cache.evict", "window",
                          en.key.window, "channel", en.key.channel);
    ++stats_.evictions;
    ++stats_.tier[en.list].evictions;
    if (en.prefetched) {
        ++stats_.prefetchWasted; // evicted before any demand claim
        COMPAQT_TRACE_INSTANT("cache", "cache.prefetch_wasted",
                              "window", en.key.window, "channel",
                              en.key.channel);
    }
    en.channel->slots[en.key.window] = kNil;
    if (--en.channel->live == 0)
        index_.erase(channelKey(en.key));
    en.channel = nullptr;
    moveTo(e, kFree);
}

void
TieredWindowStore::chargeTier1()
{
    ++stats_.tier1Accesses;
    stats_.penaltyCycles += kTier1PenaltyCycles;
}

void
TieredWindowStore::publishMetrics()
{
    // [tier][hit, miss, promote, demote, admit_rejected]
    static const auto counters = [] {
        std::array<std::array<telemetry::Counter *, 5>, 2> c{};
        const char *names[] = {"hit", "miss", "promote", "demote",
                               "admit_rejected"};
        for (std::size_t t = 0; t < 2; ++t)
            for (std::size_t k = 0; k < 5; ++k)
                c[t][k] = &telemetry::Registry::global().counter(
                    "cache.tier" + std::to_string(t) + "." + names[k]);
        return c;
    }();
    const TieredStoreStats d = TieredStoreStats::delta(published_, stats_);
    for (std::size_t t = 0; t < 2; ++t) {
        const std::uint64_t v[] = {d.tier[t].hits, d.tier[t].misses,
                                   d.promotions, d.demotions,
                                   d.tier[t].admitRejected};
        for (std::size_t k = 0; k < 5; ++k)
            counters[t][k]->add(v[k]);
    }
    published_ = stats_;
}

TieredStoreStats
TieredWindowStore::stats() const
{
    TieredStoreStats s = stats_;
    for (std::size_t t = 0; t < 2; ++t) {
        s.tier[t].entries = lists_[t].size;
        s.tier[t].residentSamples = lists_[t].samples;
        s.entries += lists_[t].size;
        s.residentSamples += lists_[t].samples;
    }
    return s;
}

} // namespace compaqt::runtime
