#include "memory/cache.h"

#include "common/log.h"

namespace nupea
{

CacheModel::CacheModel(const CacheConfig &config) : config_(config)
{
    NUPEA_ASSERT(config_.banks > 0 && config_.ways > 0 &&
                 config_.lineBytes > 0);
    std::size_t lines_total =
        config_.sizeBytes / static_cast<std::size_t>(config_.lineBytes);
    std::size_t sets_total =
        lines_total / static_cast<std::size_t>(config_.ways);
    NUPEA_ASSERT(sets_total % static_cast<std::size_t>(config_.banks) == 0,
                 "cache sets must divide evenly across banks");
    setsPerBank_ = static_cast<int>(
        sets_total / static_cast<std::size_t>(config_.banks));
    NUPEA_ASSERT(setsPerBank_ > 0);
    lines_.assign(sets_total * static_cast<std::size_t>(config_.ways),
                  Line{});
}

CacheAccess
CacheModel::access(Addr addr, bool is_store)
{
    ++tick_;
    Addr line_addr = addr / static_cast<Addr>(config_.lineBytes);
    int bank = bankOf(addr);
    // Bank-interleaved: the bits above the bank index pick the set.
    Addr within_bank = line_addr / static_cast<Addr>(config_.banks);
    int set = static_cast<int>(within_bank %
                               static_cast<Addr>(setsPerBank_));
    Addr tag = within_bank / static_cast<Addr>(setsPerBank_);

    std::size_t base =
        (static_cast<std::size_t>(bank) *
             static_cast<std::size_t>(setsPerBank_) +
         static_cast<std::size_t>(set)) *
        static_cast<std::size_t>(config_.ways);

    CacheAccess result;
    Line *victim = &lines_[base];
    for (int w = 0; w < config_.ways; ++w) {
        Line &line = lines_[base + static_cast<std::size_t>(w)];
        if (line.valid && line.tag == tag) {
            line.lastUse = tick_;
            line.dirty = line.dirty || is_store;
            ++hits_;
            result.hit = true;
            return result;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    ++misses_;
    if (victim->valid && victim->dirty) {
        ++writebacks_;
        result.writeback = true;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = is_store;
    victim->lastUse = tick_;
    return result;
}

} // namespace nupea
