/**
 * @file
 * Flat byte-addressed backing store for the simulated machine, plus a
 * bump allocator used by workloads to lay out their data structures.
 */

#ifndef NUPEA_MEMORY_BACKING_STORE_H
#define NUPEA_MEMORY_BACKING_STORE_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/byte_buffer.h"
#include "common/log.h"
#include "common/types.h"

namespace nupea
{

/** Simulated main-memory contents (functional, no timing). */
class BackingStore
{
  public:
    /** All-zero store; pages are mapped (and zeroed) only on first
     *  touch, so construction cost scales with use, not capacity. */
    explicit BackingStore(std::size_t bytes) : bytes_(bytes) {}

    std::size_t size() const { return bytes_.size(); }

    /** Little-endian aligned word read. */
    Word
    loadWord(Addr addr) const
    {
        NUPEA_ASSERT(std::uint64_t{addr} + 4 <= bytes_.size(),
                     "load OOB at ", addr);
        NUPEA_ASSERT((addr & 3) == 0, "unaligned load at ", addr);
        std::uint32_t v =
            bytes_[addr] |
            (static_cast<std::uint32_t>(bytes_[addr + 1]) << 8) |
            (static_cast<std::uint32_t>(bytes_[addr + 2]) << 16) |
            (static_cast<std::uint32_t>(bytes_[addr + 3]) << 24);
        return static_cast<Word>(v);
    }

    /** Little-endian aligned word write. */
    void
    storeWord(Addr addr, Word value)
    {
        NUPEA_ASSERT(std::uint64_t{addr} + 4 <= bytes_.size(),
                     "store OOB at ", addr);
        NUPEA_ASSERT((addr & 3) == 0, "unaligned store at ", addr);
        if (std::size_t{addr} + 4 > dirty_)
            dirty_ = std::size_t{addr} + 4;
        auto v = static_cast<std::uint32_t>(value);
        bytes_[addr] = static_cast<std::uint8_t>(v);
        bytes_[addr + 1] = static_cast<std::uint8_t>(v >> 8);
        bytes_[addr + 2] = static_cast<std::uint8_t>(v >> 16);
        bytes_[addr + 3] = static_cast<std::uint8_t>(v >> 24);
    }

    /**
     * Allocate a block (word-aligned bump allocation starting at
     * address 64; address 0 is reserved to catch null derefs).
     */
    Addr
    alloc(std::size_t bytes, std::size_t align = 4)
    {
        NUPEA_ASSERT(align >= 1 && (align & (align - 1)) == 0);
        std::size_t base = (next_ + align - 1) & ~(align - 1);
        if (base + bytes > bytes_.size())
            fatal("simulated memory exhausted: need ", bytes,
                  " bytes at ", base, ", have ", bytes_.size());
        next_ = base + bytes;
        return static_cast<Addr>(base);
    }

    /** Allocate and zero-fill an array of `count` words. */
    Addr
    allocWords(std::size_t count)
    {
        return alloc(count * 4, 4);
    }

    /** Bytes allocated so far. */
    std::size_t allocated() const { return next_; }

    /**
     * High-water mark of bytes written through storeWord() since
     * construction or the last resetTo() — the span resetTo() must
     * scrub to restore the store to a fresh-clone state. Writes made
     * directly through raw() are NOT tracked; a store mutated that
     * way must not be recycled with resetTo().
     */
    std::size_t dirtyBytes() const { return dirty_; }

    /**
     * Reinitialize this store to an exact clone of `image`: bytes
     * [0, image.allocated()) copy the image, every byte above reads
     * zero, and the bump allocator resumes where the image's did.
     * Only the storeWord-dirtied span is scrubbed, so recycling a
     * store across sweep points costs O(bytes actually touched)
     * instead of a fresh 8 MiB mapping per point (whose munmap/mmap
     * churn serializes concurrent workers on the kernel's mm lock).
     */
    void
    resetTo(const BackingStore &image)
    {
        std::size_t keep = image.allocated();
        NUPEA_ASSERT(keep <= image.bytes_.size(),
                     "resetTo from an empty/unsized image");
        NUPEA_ASSERT(keep <= bytes_.size(), "image needs ", keep,
                     " bytes, store holds ", bytes_.size());
        if (dirty_ > keep)
            std::fill(bytes_.begin() + static_cast<std::ptrdiff_t>(keep),
                      bytes_.begin() + static_cast<std::ptrdiff_t>(dirty_),
                      std::uint8_t{0});
        std::copy_n(image.bytes_.begin(),
                    static_cast<std::ptrdiff_t>(keep), bytes_.begin());
        dirty_ = keep;
        next_ = image.next_;
    }

    /** Fault in the backing pages of [0, limit) ahead of timed use. */
    void
    prefault(std::size_t limit)
    {
        prefaultPages(bytes_, 0, limit);
    }

    /** Access the raw bytes (e.g., for the untimed interpreter). */
    ByteBuffer &raw() { return bytes_; }
    const ByteBuffer &raw() const { return bytes_; }

  private:
    ByteBuffer bytes_;
    std::size_t next_ = 64;
    std::size_t dirty_ = 0; ///< storeWord high-water mark
};

/**
 * A bank of recyclable BackingStores for repeated runs over a shared
 * read-only image, indexed by slot; the sweep runner and the
 * repository benchmark keep one bank per pool worker and use slot 0.
 * Each slot's store is allocated (and its image span pre-faulted) on
 * first acquire or on a capacity change, then recycled: callers
 * resetTo() it from the shared image per run, so a run pays
 * O(bytes touched) instead of an mmap/munmap pair — the kernel-side
 * churn that serializes concurrent sweep workers.
 */
class StoreBank
{
  public:
    /**
     * Store for slot `lane` with exactly `bytes` capacity, pages for
     * the first `prefaultBytes` already faulted in. Contents
     * unspecified; reset per run. Slots grow the bank on demand.
     */
    BackingStore &
    acquire(std::size_t lane, std::size_t bytes,
            std::size_t prefaultBytes)
    {
        if (lane >= slots_.size())
            slots_.resize(lane + 1);
        Slot &slot = slots_[lane];
        if (!slot.store || slot.store->size() != bytes) {
            slot.store = std::make_unique<BackingStore>(bytes);
            slot.prefaulted = 0;
        }
        if (prefaultBytes > slot.store->size())
            prefaultBytes = slot.store->size();
        if (prefaultBytes > slot.prefaulted) {
            slot.store->prefault(prefaultBytes);
            slot.prefaulted = prefaultBytes;
        }
        return *slot.store;
    }

  private:
    struct Slot
    {
        std::unique_ptr<BackingStore> store;
        std::size_t prefaulted = 0; ///< prefault high-water mark
    };

    std::vector<Slot> slots_;
};

} // namespace nupea

#endif // NUPEA_MEMORY_BACKING_STORE_H
