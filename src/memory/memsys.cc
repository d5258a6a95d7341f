#include "memory/memsys.h"

#include <algorithm>

namespace nupea
{

MemorySystem::MemorySystem(const MemSysConfig &config, BackingStore &store)
    : config_(config), store_(store), cache_(config.cache)
{
    NUPEA_ASSERT(config_.banks == config_.cache.banks,
                 "memory and cache must be banked identically");
    bankFree_.assign(static_cast<std::size_t>(config_.banks), 0);
}

MemAccessResult
MemorySystem::access(Addr addr, bool is_store, Word store_data,
                     Cycle arrival)
{
    int bank = bankOf(addr);
    auto &free_at = bankFree_[static_cast<std::size_t>(bank)];

    // Queue behind earlier requests to the same bank (1/cycle each).
    Cycle start = std::max(arrival, free_at);
    if (start > arrival)
        bankConflicts_.value() += 1;

    CacheAccess ca = cache_.access(addr, is_store);
    Cycle latency = config_.cacheHitLatency +
                    (ca.hit ? 0 : config_.mainMemLatency);
    // Banks are pipelined: they accept one request per cycle, plus a
    // one-cycle bubble when a dirty eviction uses the bank.
    free_at = start + 1 + (ca.writeback ? 1 : 0);

    MemAccessResult result;
    result.completeAt = start + latency;
    result.hit = ca.hit;
    if (is_store) {
        store_.storeWord(addr, store_data);
        stores_.value() += 1;
    } else {
        result.data = store_.loadWord(addr);
        loads_.value() += 1;
    }
    (ca.hit ? cacheHits_ : cacheMisses_).value() += 1;
    bankLatency_.value().sample(
        static_cast<double>(result.completeAt - arrival));
    return result;
}

} // namespace nupea
