/**
 * @file
 * Banked main-memory timing model with a shared memory-side cache.
 *
 * Timing (paper Sec. 6, all on the system clock): a cache hit takes 2
 * cycles; a miss additionally pays the 4-cycle main-memory latency.
 * Memory and cache are banked 32x; each bank accepts one request per
 * system cycle (queueing delay is modeled analytically per bank).
 * Dirty evictions occupy the bank for one extra cycle.
 *
 * The model is analytic rather than cycle-stepped: given a request's
 * arrival time at its bank, it returns the completion time directly.
 * This requires per-bank arrival times to be (approximately)
 * monotone, which the fabric-memory NoC simulation guarantees by
 * submitting in system-cycle order.
 */

#ifndef NUPEA_MEMORY_MEMSYS_H
#define NUPEA_MEMORY_MEMSYS_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "memory/backing_store.h"
#include "memory/cache.h"

namespace nupea
{

/** Configuration of the memory system (defaults match the paper). */
struct MemSysConfig
{
    std::size_t memBytes = 8 * 1024 * 1024; ///< total memory, 8 MiB
    int banks = 32;
    Cycle cacheHitLatency = 2;  ///< system cycles
    Cycle mainMemLatency = 4;   ///< additional cycles on a miss
    CacheConfig cache;          ///< 256 KiB shared cache
};

/** Completion information for one memory access. */
struct MemAccessResult
{
    Cycle completeAt = 0; ///< system cycle the response leaves the bank
    bool hit = false;
    Word data = 0;        ///< loaded value (undefined for stores)
};

/**
 * The banked memory + shared cache. Functionally backed by a
 * BackingStore owned by the caller.
 */
class MemorySystem
{
  public:
    MemorySystem(const MemSysConfig &config, BackingStore &store);

    /**
     * Perform one access.
     * @param addr       word-aligned byte address
     * @param is_store   store (true) or load
     * @param store_data value to write for stores
     * @param arrival    system cycle the request reaches the bank
     */
    MemAccessResult access(Addr addr, bool is_store, Word store_data,
                           Cycle arrival);

    /** Bank an address maps to. */
    int
    bankOf(Addr addr) const
    {
        return cache_.bankOf(addr);
    }

    const CacheModel &cache() const { return cache_; }
    const MemSysConfig &config() const { return config_; }
    StatSet &stats() { return stats_; }

  private:
    MemSysConfig config_;
    BackingStore &store_;
    CacheModel cache_;
    /** Next system cycle each bank can accept a request. */
    std::vector<Cycle> bankFree_;
    StatSet stats_;

    /** @{ Lazily-bound stat handles: access() sits on the simulator's
     *  hottest path, so it must not pay a string-keyed map lookup per
     *  request (see CounterHandle in common/stats.h). */
    CounterHandle bankConflicts_{stats_, "bank_conflicts"};
    CounterHandle loads_{stats_, "loads"};
    CounterHandle stores_{stats_, "stores"};
    CounterHandle cacheHits_{stats_, "cache_hits"};
    CounterHandle cacheMisses_{stats_, "cache_misses"};
    DistHandle bankLatency_{stats_, "bank_latency"};
    /** @} */
};

} // namespace nupea

#endif // NUPEA_MEMORY_MEMSYS_H
