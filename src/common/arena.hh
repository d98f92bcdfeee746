/**
 * @file
 * The zero-allocation streaming building blocks of the decode data
 * plane: non-owning sample spans plus a per-thread bump-allocated
 * scratch arena.
 *
 * COMPAQT's premise is that decompression sustains one window of
 * samples per fabric cycle into the DAC buffers (Fig 10). The software
 * hot path mirrors that contract: codecs decode into caller-owned
 * SampleSpan memory, and transient per-window buffers (expanded
 * coefficient windows, decode-and-slice scratch) come from a
 * ScratchArena that recycles its blocks, so a steady-state decode loop
 * performs no heap allocation at all.
 *
 * Lifetime rules:
 *  - A SampleSpan never owns its memory; the producer of the span
 *    defines its lifetime (arena frame, caller buffer).
 *  - Arena spans stay valid until the arena is reset() or the
 *    enclosing ScratchArena::Frame is destroyed, whichever is sooner.
 *  - The arena is strictly LIFO via Frame: a callee may take spans
 *    inside its own Frame without invalidating spans its caller took
 *    earlier.
 */

#ifndef COMPAQT_COMMON_ARENA_HH
#define COMPAQT_COMMON_ARENA_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace compaqt
{

/** Mutable view of decoded samples in caller-owned memory. */
using SampleSpan = std::span<double>;

/** Read-only view of decoded samples. */
using ConstSampleSpan = std::span<const double>;

/**
 * A growable bump allocator for per-window scratch buffers.
 *
 * Memory is carved from typed blocks that are retained across reset()
 * calls, so after a warm-up pass a repeating allocation pattern (the
 * steady state of a decode loop) touches the heap zero times —
 * blockAllocations() makes that claim checkable. Not thread-safe;
 * use forThread() for a per-thread instance.
 */
class ScratchArena
{
  public:
    ScratchArena() = default;
    ScratchArena(const ScratchArena &) = delete;
    ScratchArena &operator=(const ScratchArena &) = delete;

    /** Take `n` doubles; valid until reset()/enclosing Frame exit. */
    SampleSpan
    samples(std::size_t n)
    {
        return doubles_.take(n);
    }

    /** Take `n` int32 coefficients (RLE-expanded windows). */
    std::span<std::int32_t>
    coeffs(std::size_t n)
    {
        return ints_.take(n);
    }

    /** Rewind every pool; capacity (blocks) is retained. */
    void
    reset()
    {
        doubles_.reset();
        ints_.reset();
    }

    /** Heap blocks ever allocated — constant once the arena is warm. */
    std::uint64_t
    blockAllocations() const
    {
        return doubles_.blockAllocations() + ints_.blockAllocations();
    }

    /** Total bytes reserved across all blocks. */
    std::size_t
    capacityBytes() const
    {
        return doubles_.capacityBytes() * sizeof(double) +
               ints_.capacityBytes() * sizeof(std::int32_t);
    }

    /** The calling thread's arena (created on first use). */
    static ScratchArena &forThread();

    /**
     * RAII scope: records the arena's bump marks on entry and rewinds
     * to them on exit, so a callee can use the shared per-thread arena
     * without clobbering spans its caller is still holding.
     */
    class Frame
    {
      public:
        explicit Frame(ScratchArena &a)
            : a_(a), d_(a.doubles_.mark()), i_(a.ints_.mark())
        {
        }

        Frame(const Frame &) = delete;
        Frame &operator=(const Frame &) = delete;

        ~Frame()
        {
            a_.doubles_.rewind(d_);
            a_.ints_.rewind(i_);
        }

      private:
        ScratchArena &a_;
        std::pair<std::size_t, std::size_t> d_;
        std::pair<std::size_t, std::size_t> i_;
    };

  private:
    template <typename T>
    class Pool
    {
      public:
        std::span<T>
        take(std::size_t n)
        {
            if (n == 0)
                return {};
            // Fast path: the active block has room.
            while (cur_ < blocks_.size()) {
                Block &b = blocks_[cur_];
                if (b.cap - b.used >= n) {
                    T *p = b.data.get() + b.used;
                    b.used += n;
                    return {p, n};
                }
                ++cur_;
            }
            // Grow: geometric block sizes keep the block count (and
            // with it the number of heap trips ever made) logarithmic.
            const std::size_t last =
                blocks_.empty() ? 0 : blocks_.back().cap;
            const std::size_t cap =
                std::max({n, last * 2, std::size_t{256}});
            blocks_.push_back(
                {std::make_unique<T[]>(cap), cap, n});
            ++blockAllocs_;
            cur_ = blocks_.size() - 1;
            return {blocks_.back().data.get(), n};
        }

        std::pair<std::size_t, std::size_t>
        mark() const
        {
            return {cur_, cur_ < blocks_.size() ? blocks_[cur_].used
                                                : 0};
        }

        void
        rewind(std::pair<std::size_t, std::size_t> m)
        {
            for (std::size_t b = m.first; b < blocks_.size(); ++b)
                blocks_[b].used = b == m.first ? m.second : 0;
            cur_ = m.first;
        }

        void
        reset()
        {
            rewind({0, 0});
        }

        std::uint64_t blockAllocations() const { return blockAllocs_; }

        std::size_t
        capacityBytes() const
        {
            std::size_t total = 0;
            for (const Block &b : blocks_)
                total += b.cap;
            return total;
        }

      private:
        struct Block
        {
            std::unique_ptr<T[]> data;
            std::size_t cap = 0;
            std::size_t used = 0;
        };

        std::vector<Block> blocks_;
        std::size_t cur_ = 0;
        std::uint64_t blockAllocs_ = 0;
    };

    Pool<double> doubles_;
    Pool<std::int32_t> ints_;
};

} // namespace compaqt

#endif // COMPAQT_COMMON_ARENA_HH
