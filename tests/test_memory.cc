/**
 * @file
 * Memory substrate tests: backing store + allocator, banked cache
 * model (hits, LRU, writebacks, banking), and the analytic banked
 * memory timing model.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "memory/backing_store.h"
#include "memory/cache.h"
#include "memory/memsys.h"

namespace nupea
{
namespace
{

TEST(BackingStore, WordRoundTrip)
{
    BackingStore store(1024);
    store.storeWord(100, -123456);
    EXPECT_EQ(store.loadWord(100), -123456);
    store.storeWord(100, 7);
    EXPECT_EQ(store.loadWord(100), 7);
}

TEST(BackingStore, LittleEndianLayout)
{
    BackingStore store(64);
    store.storeWord(0, 0x01020304);
    EXPECT_EQ(store.raw()[0], 0x04);
    EXPECT_EQ(store.raw()[3], 0x01);
}

TEST(BackingStore, LastWordInBounds)
{
    BackingStore store(4096);
    store.storeWord(4092, -9);
    EXPECT_EQ(store.loadWord(4092), -9);
    EXPECT_EQ(store.dirtyBytes(), 4096u);
}

// Address 0xFFFFFFFC (word -4): `addr + 4` in 32-bit arithmetic wraps
// to 0 and would pass the bounds check.
TEST(BackingStoreDeathTest, WrappingLoadAddressPanics)
{
    BackingStore store(4096);
    EXPECT_DEATH(store.loadWord(0xFFFFFFFCu), "load OOB at 4294967292");
}

TEST(BackingStoreDeathTest, WrappingStoreAddressPanics)
{
    BackingStore store(4096);
    EXPECT_DEATH(store.storeWord(0xFFFFFFFCu, 1),
                 "store OOB at 4294967292");
}

TEST(BackingStore, AllocatorBumpsAndAligns)
{
    BackingStore store(4096);
    Addr a = store.alloc(10);
    Addr b = store.alloc(4);
    EXPECT_GE(a, 64u); // low memory reserved
    EXPECT_EQ(a % 4, 0u);
    EXPECT_GE(b, a + 10);
    EXPECT_EQ(b % 4, 0u);
    Addr c = store.alloc(8, 64);
    EXPECT_EQ(c % 64, 0u);
}

TEST(BackingStore, AllocExhaustionIsFatal)
{
    BackingStore store(256);
    EXPECT_THROW(store.alloc(1024), FatalError);
}

TEST(BackingStore, AllocWords)
{
    BackingStore store(4096);
    Addr a = store.allocWords(16);
    Addr b = store.allocWords(1);
    EXPECT_EQ(b - a, 64u);
}

TEST(Cache, MissThenHit)
{
    CacheConfig cfg;
    CacheModel cache(cfg);
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    // Same line, different word: still a hit.
    EXPECT_TRUE(cache.access(0x1004, false).hit);
    // Different line: miss.
    EXPECT_FALSE(cache.access(0x1000 + 32, false).hit);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, BankInterleavingByLine)
{
    CacheConfig cfg;
    CacheModel cache(cfg);
    EXPECT_EQ(cache.bankOf(0), 0);
    EXPECT_EQ(cache.bankOf(32), 1);
    EXPECT_EQ(cache.bankOf(31), 0);
    EXPECT_EQ(cache.bankOf(32 * 31), 31);
    EXPECT_EQ(cache.bankOf(32 * 32), 0);
}

TEST(Cache, LruEvictsColdestWay)
{
    // Tiny cache: 2 ways, 1 bank, 2 sets -> 4 lines of 32 B = 128 B.
    CacheConfig cfg;
    cfg.sizeBytes = 128;
    cfg.ways = 2;
    cfg.lineBytes = 32;
    cfg.banks = 1;
    CacheModel cache(cfg);

    // Three lines mapping to set 0 (stride = lineBytes * numSets).
    Addr a = 0, b = 128, c = 256;
    EXPECT_FALSE(cache.access(a, false).hit);
    EXPECT_FALSE(cache.access(b, false).hit);
    EXPECT_TRUE(cache.access(a, false).hit);  // a is now MRU
    EXPECT_FALSE(cache.access(c, false).hit); // evicts b
    EXPECT_TRUE(cache.access(a, false).hit);
    EXPECT_FALSE(cache.access(b, false).hit); // b was evicted
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    CacheConfig cfg;
    cfg.sizeBytes = 64; // 1 way, 1 bank, 2 sets
    cfg.ways = 1;
    cfg.lineBytes = 32;
    cfg.banks = 1;
    CacheModel cache(cfg);

    EXPECT_FALSE(cache.access(0, true).hit); // dirty fill
    auto ev = cache.access(64, false);       // same set, evicts dirty
    EXPECT_FALSE(ev.hit);
    EXPECT_TRUE(ev.writeback);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(MemSys, HitAndMissLatencies)
{
    BackingStore store(1 << 20);
    MemSysConfig cfg;
    MemorySystem mem(cfg, store);

    store.storeWord(0x2000, 55);
    auto miss = mem.access(0x2000, false, 0, 100);
    EXPECT_FALSE(miss.hit);
    // Miss: 2 (cache) + 4 (main memory).
    EXPECT_EQ(miss.completeAt, 106u);
    EXPECT_EQ(miss.data, 55);

    auto hit = mem.access(0x2000, false, 0, 200);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.completeAt, 202u);
}

TEST(MemSys, StoresWriteThroughFunctionally)
{
    BackingStore store(1 << 20);
    MemorySystem mem(MemSysConfig{}, store);
    mem.access(0x40, true, 987, 0);
    EXPECT_EQ(store.loadWord(0x40), 987);
}

TEST(MemSys, BankConflictQueues)
{
    BackingStore store(1 << 20);
    MemorySystem mem(MemSysConfig{}, store);

    // Two simultaneous requests to the same bank: second starts a
    // cycle later.
    Addr a = 0, b = 32 * 32; // same bank (bank 0), different lines
    auto r1 = mem.access(a, false, 0, 10);
    auto r2 = mem.access(b, false, 0, 10);
    EXPECT_EQ(r2.completeAt, r1.completeAt + 1);
    EXPECT_EQ(mem.stats().counterValue("bank_conflicts"), 1u);
}

TEST(MemSys, DifferentBanksDoNotConflict)
{
    BackingStore store(1 << 20);
    MemorySystem mem(MemSysConfig{}, store);

    auto r1 = mem.access(0, false, 0, 10);   // bank 0
    auto r2 = mem.access(32, false, 0, 10);  // bank 1
    EXPECT_EQ(r1.completeAt, r2.completeAt);
    EXPECT_EQ(mem.stats().counterValue("bank_conflicts"), 0u);
}

TEST(MemSys, PipelinedBankThroughput)
{
    BackingStore store(1 << 20);
    MemorySystem mem(MemSysConfig{}, store);

    // Back-to-back requests to one bank complete 1 cycle apart once
    // warm (hits).
    Addr a = 0;
    mem.access(a, false, 0, 0); // warm the line
    auto r1 = mem.access(a, false, 0, 100);
    auto r2 = mem.access(a, false, 0, 101);
    auto r3 = mem.access(a, false, 0, 102);
    EXPECT_EQ(r2.completeAt, r1.completeAt + 1);
    EXPECT_EQ(r3.completeAt, r2.completeAt + 1);
}

TEST(MemSys, LatencyDistributionRecorded)
{
    BackingStore store(1 << 20);
    MemorySystem mem(MemSysConfig{}, store);
    mem.access(0, false, 0, 0);
    mem.access(0, false, 0, 50);
    const auto &d = mem.stats().dists().at("bank_latency");
    EXPECT_EQ(d.count(), 2u);
    EXPECT_DOUBLE_EQ(d.max(), 6.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
}

} // namespace
} // namespace nupea
