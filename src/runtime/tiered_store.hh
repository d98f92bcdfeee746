/**
 * @file
 * The waveform-memory model: a tags-only, two-tier model of the
 * decoded-window memory next to one shard's DACs. It holds no
 * samples — playback decodes every window on the fly, as a COMPAQT
 * controller does — and only records what a memory of the configured
 * shape would have held, so hit rates, tier penalties and SRAM power
 * (power::hierarchicalPower) can be priced.
 *
 * Tier 0 models the small fast BRAM next to the DACs: its hits are
 * free. Tier 1 models a large slow tier behind it (in the spirit of
 * cascaded random-access quantum memories, arXiv:2503.13953): every
 * access to it (hit, fill or demotion) charges kTier1PenaltyCycles.
 * A tier-1 hit with proven reuse promotes to tier 0; tier-0 pressure
 * demotes the LRU victim into tier 1. Admission to tier 0 is plain
 * LRU or TinyLFU (a frequency sketch challenges the LRU victim, so a
 * burst of cold windows cannot flush the hot set).
 *
 * Not thread-safe: each shard of a Rack owns one model, guarded by
 * the shard's lock, which its column task holds for a whole batch
 * column.
 */

#ifndef COMPAQT_RUNTIME_TIERED_STORE_HH
#define COMPAQT_RUNTIME_TIERED_STORE_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "waveform/library.hh"

namespace compaqt::runtime
{

/** Identifies one decoded window of one channel of one gate pulse. */
struct DecodedWindowKey
{
    waveform::GateId gate;
    /** 0 = I, 1 = Q. */
    std::uint8_t channel = 0;
    /** Window index within the channel. */
    std::uint32_t window = 0;
    /** Library version the window was decoded from (0 on racks that
     *  never swap). Hot-swap invalidation works through this field:
     *  old-version keys are never accessed again and age out. */
    std::uint64_t libVersion = 0;

    auto operator<=>(const DecodedWindowKey &) const = default;
};

/** Which windows the model lets into the fast tier. */
enum class AdmissionPolicy
{
    /** Every fill lands in tier 0 (plain LRU). */
    AdmitAlways,
    /** When tier 0 is full, a candidate enters only if its estimated
     *  access frequency beats the tier-0 LRU victim's; rejected
     *  candidates stage in tier 1, or are not held at all. */
    TinyLfu,
};

/** Printable policy name, e.g. "tinylfu". */
const char *admissionPolicyName(AdmissionPolicy p);

/** Modeled cycles charged per tier-1 access (hit or write). */
inline constexpr std::uint64_t kTier1PenaltyCycles = 8;

/** Per-tier slice of the model's counters. */
struct TierCounters
{
    /** Demand accesses served by this tier. */
    std::uint64_t hits = 0;
    /** Demand accesses this tier could not serve (for tier 0 that
     *  includes accesses tier 1 then served). */
    std::uint64_t misses = 0;
    /** Windows dropped out of this tier (demotions not included). */
    std::uint64_t evictions = 0;
    /** Fills placed directly into this tier. */
    std::uint64_t admitted = 0;
    /** Fills the admission policy kept out of this tier. */
    std::uint64_t admitRejected = 0;
    /** Windows resident in this tier. */
    std::size_t entries = 0;
    /** Resident windows' size in samples: the modeled BRAM. */
    std::size_t residentSamples = 0;
};

/** Counter snapshot of a model, or a sum over models. */
struct TieredStoreStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /** PREFETCH placements of cold windows; of those, the ones a
     *  demand access later claimed (each once) and the ones evicted
     *  unclaimed. A prefetch is never a demand hit or miss. */
    std::uint64_t prefetches = 0;
    std::uint64_t prefetchHits = 0;
    std::uint64_t prefetchWasted = 0;
    /** Windows resident in both tiers, and their size in samples. */
    std::size_t entries = 0;
    std::size_t residentSamples = 0;
    /** Windows moved tier 1 -> tier 0 (proven reuse). */
    std::uint64_t promotions = 0;
    /** Windows moved tier 0 -> tier 1 under tier-0 pressure. */
    std::uint64_t demotions = 0;
    /** Tier-1 demand hits plus every write into tier 1, and the
     *  modeled stall cycles they cost. */
    std::uint64_t tier1Accesses = 0;
    std::uint64_t penaltyCycles = 0;
    std::array<TierCounters, 2> tier{};

    double
    hitRate() const
    {
        const auto total = hits + misses;
        return total == 0
                   ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(total);
    }

    /** Fold in another model's snapshot (another shard, another
     *  rack): every field sums, residency included. */
    void accumulate(const TieredStoreStats &o);

    /** Fold in a later delta of the same model(s): counters sum and
     *  the residency fields take `o`'s values. */
    void advance(const TieredStoreStats &o);

    /** Counter deltas between two snapshots of one model; the
     *  residency fields take `after`'s values. */
    static TieredStoreStats delta(const TieredStoreStats &before,
                                  const TieredStoreStats &after);
};

/** Shape of one model. */
struct TieredStoreConfig
{
    /** Fast-tier windows; tier1Windows == 0 = single tier. */
    std::size_t tier0Windows = 0;
    std::size_t tier1Windows = 0;
    AdmissionPolicy admission = AdmissionPolicy::AdmitAlways;
};

/** Tags-only two-tier LRU model of one shard's decoded-window memory. */
class TieredWindowStore
{
  public:
    /** Single-tier admit-always shape of `capacity_windows` windows;
     *  0 holds nothing and counts every access a miss. */
    explicit TieredWindowStore(std::size_t capacity_windows)
        : TieredWindowStore(TieredStoreConfig{capacity_windows})
    {
    }

    explicit TieredWindowStore(const TieredStoreConfig &cfg);

    /**
     * Demand accesses, in order, of `count` consecutive windows of one
     * channel from `first` on, each of `window_size` samples: a hit
     * refreshes recency (promoting a tier-1 tag with proven reuse,
     * claiming a prefetch), a miss places the tag as admission says.
     * Returns the hits.
     */
    std::uint32_t access(const DecodedWindowKey &first,
                         std::size_t window_size,
                         std::uint32_t count = 1);

    /**
     * PREFETCH: place `key` ahead of demand in `target_tier` (0 for a
     * short reuse distance, which also promotes a resident tier-1
     * tag; a disabled tier falls back to the other). Touches no
     * demand counter. Returns true when a cold window was placed;
     * a resident key only has its recency refreshed.
     */
    bool prefetch(const DecodedWindowKey &key, std::size_t window_size,
                  std::uint8_t target_tier = 0);

    TieredStoreStats stats() const;

    /** Channels (gate, channel, libVersion) with a resident tag; each
     *  holds one slot vector. Never more than stats().entries. */
    std::size_t indexedChannels() const { return index_.size(); }

    /** Add the counters accumulated since the last call to the
     *  registry's cache.tier{0,1}.{hit, miss, promote, demote,
     *  admit_rejected}; the batch path calls it once per column. */
    void publishMetrics();

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    /** lists_ slot of unused entries, kept for reuse. */
    static constexpr std::uint8_t kFree = 2;
    /** admissionTier's answer for "held nowhere". */
    static constexpr std::uint8_t kBypass = 0xFF;

    /** The tags of one (gate, channel, libVersion): the entry of
     *  every window, or kNil, indexed by window. */
    struct Channel
    {
        std::vector<std::uint32_t> slots;
        /** Slots holding an entry; the channel leaves the index when
         *  this drops to 0. */
        std::uint32_t live = 0;
    };

    /** One tag, linked into one of lists_ by entry index. */
    struct Entry
    {
        DecodedWindowKey key;
        /** The channel whose slot holds this tag (null when free). */
        Channel *channel = nullptr;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        std::uint32_t samples = 0;
        /** The list holding the tag: tier 0, tier 1 or kFree. */
        std::uint8_t list = kFree;
        /** Tier-1 tags: reuse proven (a prior tier-1 hit or a
         *  demotion), so the next tier-1 hit promotes. */
        bool touched = false;
        /** Placed by prefetch() and not yet claimed. */
        bool prefetched = false;
        /**
         * A range replayed in order leaves its tags adjacent, last
         * window first. The walk that verifies this records the run on
         * its first window's entry (`runLen`, `runHead` = the last
         * window's entry) and points every member at it (`run`); any
         * single-tag move or removal breaks the member's run, so a
         * recorded run is intact and its next replay moves as a block.
         */
        std::uint32_t run = kNil;
        std::uint32_t runLen = 0;
        std::uint32_t runHead = kNil;
    };

    /** Doubly linked list over entries_, most recent first. A
     *  recorded run moves to the head as one O(1) splice; std::list's
     *  range splice would walk the run to count it. */
    struct List
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::size_t size = 0;
        /** Sum of the members' `samples`. */
        std::size_t samples = 0;
    };

    std::size_t
    capacity() const
    {
        return cfg_.tier0Windows + cfg_.tier1Windows;
    }

    std::size_t
    tierWindows(std::size_t t) const
    {
        return t == 0 ? cfg_.tier0Windows : cfg_.tier1Windows;
    }

    struct KeyHash
    {
        std::size_t operator()(const DecodedWindowKey &k) const;
    };

    /** The channel of `key`'s window, or null when none of its
     *  windows is resident. */
    Channel *findChannel(const DecodedWindowKey &key);
    /** Entry of window `window` of `ch`, or kNil. */
    static std::uint32_t
    slot(const Channel *ch, std::uint32_t window)
    {
        return ch && window < ch->slots.size() ? ch->slots[window] : kNil;
    }
    /** Move one tag to the head of `list`, breaking its run. */
    void moveTo(std::uint32_t e, std::uint8_t list);
    /** Move the run first..last of list 0 (head side first) to the
     *  head, keeping its order. */
    void runToHead(std::uint32_t first, std::uint32_t last);
    void breakRun(std::uint32_t e);
    /** Verify, record and return the length of the run of tier-0
     *  hits from `first` (window `key`) up to window `end`. */
    std::uint32_t recordRun(std::uint32_t first, DecodedWindowKey key,
                            std::uint32_t end);
    void claim(std::uint32_t e);
    void hitTier1(std::uint32_t e);
    /** `ch` is `key`'s channel or null; a placement that creates the
     *  channel sets it. A slot vector that must grow is sized for
     *  windows up to `end` (the end of the range being played). */
    void miss(const DecodedWindowKey &key, std::size_t window_size,
              Channel *&ch, std::uint32_t end);
    std::uint8_t admissionTier(const DecodedWindowKey &key);
    void insert(const DecodedWindowKey &key, std::size_t window_size,
                std::uint8_t tier, bool prefetched, Channel *&ch,
                std::uint32_t end);
    void promote(std::uint32_t e);
    void demote(std::uint32_t e);
    /** Evict `tier` to its budget: tier 0 demotes into tier 1 when
     *  there is one, otherwise tags drop. */
    void evictTier(std::uint8_t tier);
    void drop(std::uint32_t e);
    void chargeTier1();
    /** TinyLFU count-min sketch: 4 probes of 4-bit counters. */
    void sketchAdd(const DecodedWindowKey &key);
    std::uint32_t sketchEstimate(const DecodedWindowKey &key) const;

    TieredStoreConfig cfg_;
    /** capacity() + 1 entries: a fill links before its tier is
     *  evicted back to budget. */
    std::vector<Entry> entries_;
    /** Tier 0, tier 1 and the free entries. */
    std::array<List, 3> lists_;
    /** Slots of every channel with a resident tag, keyed by the
     *  channel's window-0 key. Elements never move, so entries point
     *  at their channel; a channel is erased with its last tag, so
     *  retired calibrations free their slots as they age out. */
    std::unordered_map<DecodedWindowKey, Channel, KeyHash> index_;
    /** Sketch counters (empty unless TinyLfu); all are halved every
     *  8 table sizes of adds (aging). */
    std::vector<std::uint8_t> sketch_;
    std::uint64_t sketchAdds_ = 0;
    TieredStoreStats stats_;
    /** stats_ as of the last publishMetrics(). */
    TieredStoreStats published_;
};

} // namespace compaqt::runtime

#endif // COMPAQT_RUNTIME_TIERED_STORE_HH
