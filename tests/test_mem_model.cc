/**
 * @file
 * Unit tests for the fabric-memory access models: Monaco's arbiter
 * tree (per-domain latency, 1-per-cycle arbiter throughput, shared
 * ports), the UPEA uniform-delay baseline, and NUMA-UPEA locality
 * and interleaving.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "memory/memsys.h"
#include "sim/mem_model.h"

namespace nupea
{
namespace
{

struct ModelFixture
{
    ModelFixture(MemModel model, int upea_latency = 2,
                 int divider = 2, std::uint64_t seed = 1)
        : topo(Topology::makeMonaco(12, 12)), store(1 << 22),
          memsys(MemSysConfig{}, store)
    {
        MemModelConfig cfg;
        cfg.model = model;
        cfg.upeaLatency = upea_latency;
        cfg.seed = seed;
        impl = makeMemAccessModel(cfg, divider, topo, memsys);
    }

    /** First LS tile in the given NUPEA domain. */
    Coord
    tileInDomain(int domain) const
    {
        for (int idx = 0; idx < topo.numTiles(); ++idx) {
            Coord c = topo.tileCoord(idx);
            if (topo.isLs(c) && topo.domainOf(c) == domain)
                return c;
        }
        return Coord{-1, -1};
    }

    Topology topo;
    BackingStore store;
    MemorySystem memsys;
    std::unique_ptr<MemAccessModel> impl;
};

TEST(MonacoModel, D0LatencyIsBankOnly)
{
    ModelFixture f(MemModel::Monaco);
    Coord d0 = f.tileInDomain(0);
    // Warm the cache line, then measure a hit from D0.
    f.impl->access(d0, 0x100, false, 0, 0);
    auto out = f.impl->access(d0, 0x100, false, 0, 100);
    EXPECT_TRUE(out.hit);
    // No arbitration in D0: latency = 2-cycle cache hit.
    EXPECT_EQ(out.completeAt, 102u);
}

TEST(MonacoModel, EachDomainAddsTwoArbiterCycles)
{
    // One request per domain, far apart in time (no contention):
    // domain d pays d cycles of request arbitration and d cycles of
    // response arbitration on top of the bank.
    ModelFixture f(MemModel::Monaco);
    f.impl->access(f.tileInDomain(0), 0x100, false, 0, 0); // warm
    Cycle base = 0;
    for (int d = 0; d < 4; ++d) {
        Cycle t = 1000 * static_cast<Cycle>(d + 1);
        auto out = f.impl->access(f.tileInDomain(d), 0x100, false, 0, t);
        ASSERT_TRUE(out.hit);
        Cycle lat = out.completeAt - t;
        if (d == 0) {
            base = lat;
        } else {
            EXPECT_EQ(lat, base + 2 * static_cast<Cycle>(d))
                << "domain " << d;
        }
    }
}

TEST(MonacoModel, ArbiterSerializesSameCycleRequests)
{
    ModelFixture f(MemModel::Monaco);
    // Two D1 tiles in the same LS row issue in the same cycle; the
    // row's D1 arbiter forwards one per cycle.
    Coord a{1, 3}, b{1, 4};
    ASSERT_EQ(f.topo.domainOf(a), 1);
    ASSERT_EQ(f.topo.domainOf(b), 1);
    // Different banks so only the network can serialize them.
    f.impl->access(a, 0x100, false, 0, 0);  // warm line A (bank 8)
    f.impl->access(b, 0x2120, false, 0, 0); // warm line B (bank 9)
    auto r1 = f.impl->access(a, 0x100, false, 0, 500);
    auto r2 = f.impl->access(b, 0x2120, false, 0, 500);
    EXPECT_EQ(r2.completeAt, r1.completeAt + 1);
}

TEST(MonacoModel, DifferentRowsDoNotContend)
{
    ModelFixture f(MemModel::Monaco);
    Coord a{1, 3}, b{3, 3}; // same domain, different LS rows
    f.impl->access(a, 0x100, false, 0, 0);
    f.impl->access(b, 0x2120, false, 0, 0);
    auto r1 = f.impl->access(a, 0x100, false, 0, 500);
    auto r2 = f.impl->access(b, 0x2120, false, 0, 500);
    EXPECT_EQ(r1.completeAt - 500, r2.completeAt - 500);
}

TEST(MonacoModel, FunctionalReadsAndWrites)
{
    ModelFixture f(MemModel::Monaco);
    Coord d2 = f.tileInDomain(2);
    f.impl->access(d2, 0x40, true, 777, 0);
    auto out = f.impl->access(d2, 0x40, false, 0, 100);
    EXPECT_EQ(out.data, 777);
}

TEST(UpeaModel, UniformDelayScalesWithDivider)
{
    // UPEA-N adds N fabric cycles = N * divider system cycles before
    // the bank.
    for (int divider : {1, 2, 4}) {
        ModelFixture f(MemModel::Upea, 3, divider);
        Coord tile{1, 0};
        f.impl->access(tile, 0x100, false, 0, 0); // warm
        auto out = f.impl->access(tile, 0x100, false, 0, 1000);
        EXPECT_EQ(out.completeAt,
                  1000u + 3u * static_cast<Cycle>(divider) + 2u)
            << "divider " << divider;
    }
}

TEST(UpeaModel, LatencyIndependentOfTile)
{
    ModelFixture f(MemModel::Upea, 2);
    f.impl->access({1, 0}, 0x100, false, 0, 0);
    auto near = f.impl->access({1, 0}, 0x100, false, 0, 500);
    auto far = f.impl->access({11, 11}, 0x100, false, 0, 600);
    EXPECT_EQ(near.completeAt - 500, far.completeAt - 600);
}

TEST(UpeaModel, ZeroLatencyIsIdeal)
{
    ModelFixture f(MemModel::Upea, 0);
    f.impl->access({1, 5}, 0x100, false, 0, 0);
    auto out = f.impl->access({1, 5}, 0x100, false, 0, 100);
    EXPECT_EQ(out.completeAt, 102u); // pure cache hit
}

TEST(UpeaModel, CountsNoLocality)
{
    // UPEA and NUMA-UPEA share one access model; UPEA, where no tile
    // owns a line group, emits only its latency distribution.
    ModelFixture f(MemModel::Upea, 2);
    f.impl->access({1, 0}, 0x100, false, 0, 0);
    f.impl->access({1, 0}, 0x120, false, 0, 100);
    const StatSet &s = f.impl->stats();
    EXPECT_TRUE(s.counters().empty());
    ASSERT_EQ(s.dists().size(), 1u);
    EXPECT_EQ(s.dists().begin()->first, "latency_total");
    EXPECT_EQ(s.dists().begin()->second.count(), 2u);
}

TEST(NumaModel, LocalSkipsDelayRemotePaysIt)
{
    ModelFixture f(MemModel::NumaUpea, 4, 2);
    // Find a tile and two addresses: one local to its domain, one
    // remote. Interleave granularity = 32-byte lines, 4 domains.
    Coord tile{1, 0};
    // Probe latencies across the four line-domains.
    std::vector<Cycle> lats;
    for (int d = 0; d < 4; ++d) {
        Addr addr = static_cast<Addr>(0x4000 + 32 * d);
        f.impl->access(tile, addr, false, 0, 0); // warm
        auto out = f.impl->access(tile, addr, false, 0,
                                  1000u * static_cast<Cycle>(d + 1));
        lats.push_back(out.completeAt -
                       1000u * static_cast<Cycle>(d + 1));
    }
    std::sort(lats.begin(), lats.end());
    // Exactly one of the four line-domains is local (latency 2);
    // the rest pay 4 fabric cycles * divider 2 = 8 extra.
    EXPECT_EQ(lats[0], 2u);
    EXPECT_EQ(lats[1], 10u);
    EXPECT_EQ(lats[3], 10u);
}

TEST(NumaModel, AssignmentDeterministicPerSeed)
{
    auto probe = [](std::uint64_t seed) {
        ModelFixture f(MemModel::NumaUpea, 4, 2, seed);
        std::vector<Cycle> lats;
        for (int idx = 0; idx < f.topo.numTiles(); ++idx) {
            Coord c = f.topo.tileCoord(idx);
            if (!f.topo.isLs(c))
                continue;
            auto out = f.impl->access(c, 0x8000, false, 0, 100000);
            lats.push_back(out.completeAt);
            break;
        }
        return lats;
    };
    EXPECT_EQ(probe(7), probe(7));
}

TEST(NumaModel, StatsCountLocality)
{
    ModelFixture f(MemModel::NumaUpea, 2);
    Coord tile{1, 0};
    for (int i = 0; i < 16; ++i) {
        f.impl->access(tile, static_cast<Addr>(0x4000 + 32 * i), false,
                       0, static_cast<Cycle>(100 * i));
    }
    auto &s = f.impl->stats();
    EXPECT_EQ(s.counterValue("local_accesses") +
                  s.counterValue("remote_accesses"),
              16u);
    // Line-interleaved across 4 domains: exactly 1/4 local.
    EXPECT_EQ(s.counterValue("local_accesses"), 4u);
}

TEST(MonacoModel, ReqNetworkDelayCountsEveryRequest)
{
    // Regression: zero-delay requests (e.g. an uncontended D0 port
    // pass) used to be dropped from req_network_delay, inflating its
    // mean. Every request on the non-local path is one sample.
    ModelFixture f(MemModel::Monaco);
    for (int d = 0; d < 4; ++d) {
        f.impl->access(f.tileInDomain(d), 0x100, false, 0,
                       1000u * static_cast<Cycle>(d + 1));
    }
    Distribution &net = f.impl->stats().dist("req_network_delay");
    EXPECT_EQ(net.count(), 4u);
    // The uncontended D0 request is the zero-delay sample.
    EXPECT_EQ(net.min(), 0.0);
}

TEST(MonacoModel, FirstCycleZeroPortAccessHasNoPhantomDelay)
{
    // Regression: the lastDepart=0 sentinel charged the first-ever
    // item through a latency-0 port stage a phantom contention cycle
    // (depart max(t,1)). A cold access at t=0 and at t=1000 on fresh
    // models must see identical latency.
    ModelFixture early(MemModel::Monaco);
    ModelFixture late(MemModel::Monaco);
    Coord d0 = early.tileInDomain(0);
    auto a = early.impl->access(d0, 0x100, false, 0, 0);
    auto b = late.impl->access(d0, 0x100, false, 0, 1000);
    EXPECT_EQ(a.completeAt, b.completeAt - 1000);
    EXPECT_EQ(early.impl->stats().dist("port_wait").max(), 0.0);
    EXPECT_EQ(early.impl->stats().dist("req_network_delay").max(), 0.0);
}

TEST(MonacoModel, ArbiterAndPortOccupancyStats)
{
    ModelFixture f(MemModel::Monaco);
    Coord d2 = f.tileInDomain(2);
    f.impl->access(d2, 0x100, false, 0, 0);
    f.impl->access(d2, 0x100, false, 0, 1000);
    StatSet &s = f.impl->stats();
    // Each domain-2 request passes arbiters 2 and 1 (and back), plus
    // one port stage.
    EXPECT_EQ(s.counterValue("req_arb_passes_d1"), 2u);
    EXPECT_EQ(s.counterValue("req_arb_passes_d2"), 2u);
    EXPECT_EQ(s.counterValue("resp_arb_passes_d1"), 2u);
    EXPECT_EQ(s.counterValue("resp_arb_passes_d2"), 2u);
    EXPECT_EQ(s.dist("port_wait").count(), 2u);
    int port = f.topo.portOf(d2);
    EXPECT_EQ(s.counterValue(formatMessage("port_passes_p", port)), 2u);
    // Far apart in time: no queueing anywhere.
    EXPECT_EQ(s.dist("req_arb_wait_d1").max(), 0.0);
    EXPECT_EQ(s.dist("resp_arb_wait_d1").max(), 0.0);
}

TEST(MonacoModel, ContendedArbiterRecordsQueueingWait)
{
    ModelFixture f(MemModel::Monaco);
    Coord a{1, 3}, b{1, 4}; // same LS row, both domain 1
    f.impl->access(a, 0x100, false, 0, 0);  // warm
    f.impl->access(b, 0x2120, false, 0, 0); // warm
    f.impl->access(a, 0x100, false, 0, 500);
    f.impl->access(b, 0x2120, false, 0, 500);
    // The second same-cycle request queues one cycle at the D1
    // arbiter.
    EXPECT_EQ(f.impl->stats().dist("req_arb_wait_d1").max(), 1.0);
}

TEST(NumaModel, LocalFlagMatchesLocalityCounters)
{
    ModelFixture f(MemModel::NumaUpea, 2);
    Coord tile{1, 0};
    int local = 0;
    for (int i = 0; i < 16; ++i) {
        auto out = f.impl->access(
            tile, static_cast<Addr>(0x4000 + 32 * i), false, 0,
            100u * static_cast<Cycle>(i));
        local += out.local ? 1 : 0;
    }
    EXPECT_EQ(f.impl->stats().counterValue("local_accesses"),
              static_cast<std::uint64_t>(local));
    EXPECT_EQ(local, 4); // line-interleaved across 4 domains
}

} // namespace
} // namespace nupea
