/**
 * @file
 * Memory-side shared cache model (timing/occupancy only).
 *
 * The paper's Monaco has a 256 KiB shared cache in front of 32-way
 * banked main memory (Sec. 4/6). Data always lives in the
 * BackingStore; the cache model only tracks presence (hit/miss) and
 * replacement so the memory system can charge the right latency.
 *
 * The cache is physically banked like memory: lines are interleaved
 * across banks by line address, and each bank owns its own sets.
 */

#ifndef NUPEA_MEMORY_CACHE_H
#define NUPEA_MEMORY_CACHE_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace nupea
{

/** Geometry of the shared memory-side cache. */
struct CacheConfig
{
    std::size_t sizeBytes = 256 * 1024;
    int ways = 8;
    int lineBytes = 32;
    int banks = 32;
};

/** Outcome of one cache access. */
struct CacheAccess
{
    bool hit = false;
    bool writeback = false; ///< a dirty line was evicted
};

/**
 * Set-associative, write-allocate, write-back cache with LRU
 * replacement, banked by line address.
 */
class CacheModel
{
  public:
    explicit CacheModel(const CacheConfig &config);

    /** Look up (and on miss, fill) the line containing addr. */
    CacheAccess access(Addr addr, bool is_store);

    /** Bank an address maps to (same mapping as main memory). */
    int
    bankOf(Addr addr) const
    {
        return static_cast<int>((addr / static_cast<Addr>(
                                            config_.lineBytes)) %
                                static_cast<Addr>(config_.banks));
    }

    const CacheConfig &config() const { return config_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    CacheConfig config_;
    int setsPerBank_ = 0;
    /** lines_[bank * setsPerBank * ways ...] */
    std::vector<Line> lines_;
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace nupea

#endif // NUPEA_MEMORY_CACHE_H
