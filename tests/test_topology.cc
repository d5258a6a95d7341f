/**
 * @file
 * Fabric topology tests: Monaco, Clustered-Single, Clustered-Double —
 * LS layout, NUPEA domain assignment, port counts, and scaling, with
 * parameterized sweeps over fabric sizes.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "fabric/topology.h"

namespace nupea
{
namespace
{

TEST(Monaco, PaperConfiguration12x12)
{
    Topology t = Topology::makeMonaco(12, 12);
    EXPECT_EQ(t.rows(), 12);
    EXPECT_EQ(t.cols(), 12);
    // Half the PEs are LS (paper Sec. 4.2: 72 of 144).
    EXPECT_EQ(t.numLsTiles(), 72);
    EXPECT_EQ(t.numLsRows(), 6);
    // Four NUPEA domains.
    EXPECT_EQ(t.numDomains(), 4);
    // 18 fabric-to-memory ports.
    EXPECT_EQ(t.memPorts(), 18);
}

TEST(Monaco, AlternatingRows)
{
    Topology t = Topology::makeMonaco(12, 12);
    for (int c = 0; c < 12; ++c) {
        EXPECT_FALSE(t.isLs({0, c}));
        EXPECT_TRUE(t.isLs({1, c}));
        EXPECT_FALSE(t.isLs({2, c}));
        EXPECT_TRUE(t.isLs({11, c}));
    }
}

TEST(Monaco, DomainsOrderedByColumnProximity)
{
    Topology t = Topology::makeMonaco(12, 12);
    // D0 covers the 3 columns closest to memory; each further group
    // of 3 columns is one more arbitration hop away.
    EXPECT_EQ(t.domainOf({1, 0}), 0);
    EXPECT_EQ(t.domainOf({1, 2}), 0);
    EXPECT_EQ(t.domainOf({1, 3}), 1);
    EXPECT_EQ(t.domainOf({1, 5}), 1);
    EXPECT_EQ(t.domainOf({1, 6}), 2);
    EXPECT_EQ(t.domainOf({1, 8}), 2);
    EXPECT_EQ(t.domainOf({1, 9}), 3);
    EXPECT_EQ(t.domainOf({1, 11}), 3);
    // Arith tiles have no domain.
    EXPECT_EQ(t.domainOf({0, 0}), -1);
}

TEST(Monaco, ArbHopsMatchDomain)
{
    Topology t = Topology::makeMonaco(12, 12);
    EXPECT_EQ(t.arbHops({1, 1}), 0);
    EXPECT_EQ(t.arbHops({1, 4}), 1);
    EXPECT_EQ(t.arbHops({1, 7}), 2);
    EXPECT_EQ(t.arbHops({1, 10}), 3);
    EXPECT_EQ(t.arbHops({0, 0}), -1);
}

TEST(Monaco, PortAssignment)
{
    Topology t = Topology::makeMonaco(12, 12);
    // First LS row (row 1): D0 tiles use ports 0..2.
    EXPECT_EQ(t.portOf({1, 0}), 0);
    EXPECT_EQ(t.portOf({1, 1}), 1);
    EXPECT_EQ(t.portOf({1, 2}), 2);
    // Arbitrated domains drain into the row's shared (last) port.
    EXPECT_EQ(t.portOf({1, 5}), 2);
    EXPECT_EQ(t.portOf({1, 11}), 2);
    // Second LS row (row 3) uses the next port group.
    EXPECT_EQ(t.portOf({3, 0}), 3);
    EXPECT_EQ(t.portOf({3, 7}), 5);
}

TEST(Monaco, FuSlots)
{
    Topology t = Topology::makeMonaco(12, 12);
    FuSlots arith = t.slots({0, 0});
    EXPECT_EQ(arith.arith, 2);
    EXPECT_EQ(arith.mem, 0);
    EXPECT_EQ(arith.control, 1);
    EXPECT_EQ(arith.xdata, 1);
    FuSlots ls = t.slots({1, 0});
    EXPECT_EQ(ls.arith, 1);
    EXPECT_EQ(ls.mem, 1);
    EXPECT_EQ(t.totalSlots(FuClass::Mem), 72u);
    EXPECT_EQ(t.totalSlots(FuClass::Arith), 72u * 2 + 72u);
}

TEST(Monaco, LsPreferenceOrderedByDomainThenColumn)
{
    Topology t = Topology::makeMonaco(12, 12);
    auto tiles = t.lsTilesByPreference();
    ASSERT_EQ(tiles.size(), 72u);
    // Preference never decreases in domain, and within a domain never
    // decreases in column.
    for (std::size_t i = 1; i < tiles.size(); ++i) {
        int d_prev = t.domainOf(tiles[i - 1]);
        int d_cur = t.domainOf(tiles[i]);
        EXPECT_LE(d_prev, d_cur);
        if (d_prev == d_cur) {
            EXPECT_LE(tiles[i - 1].col, tiles[i].col);
        }
    }
    EXPECT_EQ(tiles.front().col, 0);
    EXPECT_EQ(t.domainOf(tiles.back()), 3);
}

TEST(ClusteredSingle, PaperConfiguration12x12)
{
    Topology t = Topology::makeClusteredSingle(12, 12);
    // Same LS budget as Monaco but packed near memory; 12 ports.
    EXPECT_EQ(t.numLsTiles(), 72);
    EXPECT_EQ(t.numLsRows(), 12);
    EXPECT_EQ(t.memPorts(), 12);
    // LS occupies the 6 columns closest to memory in every row.
    for (int r = 0; r < 12; ++r) {
        for (int c = 0; c < 6; ++c)
            EXPECT_TRUE(t.isLs({r, c}));
        for (int c = 6; c < 12; ++c)
            EXPECT_FALSE(t.isLs({r, c}));
    }
    // D0 = 1 column, then groups of 3: domains 0,1,1,1,2,2.
    EXPECT_EQ(t.domainOf({0, 0}), 0);
    EXPECT_EQ(t.domainOf({0, 1}), 1);
    EXPECT_EQ(t.domainOf({0, 3}), 1);
    EXPECT_EQ(t.domainOf({0, 4}), 2);
    EXPECT_EQ(t.numDomains(), 3);
}

TEST(ClusteredDouble, PaperConfiguration12x12)
{
    Topology t = Topology::makeClusteredDouble(12, 12);
    EXPECT_EQ(t.numLsTiles(), 72);
    // Doubled ports versus Clustered-Single (paper Sec. 6).
    EXPECT_EQ(t.memPorts(), 24);
    EXPECT_EQ(t.d0Cols(), 2);
    EXPECT_EQ(t.domainOf({0, 0}), 0);
    EXPECT_EQ(t.domainOf({0, 1}), 0);
    EXPECT_EQ(t.domainOf({0, 2}), 1);
}

TEST(Topology, DescribeMentionsGeometry)
{
    Topology t = Topology::makeMonaco(4, 6);
    std::string desc = t.describe();
    EXPECT_NE(desc.find("monaco-4x6"), std::string::npos);
    EXPECT_NE(desc.find("domains"), std::string::npos);
}

TEST(Topology, MakeDispatchesOnKind)
{
    EXPECT_EQ(Topology::make(TopologyKind::Monaco, 8, 8).kind(),
              TopologyKind::Monaco);
    EXPECT_EQ(Topology::make(TopologyKind::ClusteredSingle, 8, 8).kind(),
              TopologyKind::ClusteredSingle);
    EXPECT_EQ(Topology::make(TopologyKind::ClusteredDouble, 8, 8).kind(),
              TopologyKind::ClusteredDouble);
}

TEST(Topology, DataTracksKnob)
{
    EXPECT_EQ(Topology::makeMonaco(8, 8, 2).dataTracks(), 2);
    EXPECT_EQ(Topology::makeMonaco(8, 8, 7).dataTracks(), 7);
}

TEST(Topology, FabricWithoutDataTracksIsFatal)
{
    // No tracks means no routing links: reject at construction rather
    // than fail inside the router on the first inter-tile net.
    for (int tracks : {0, -1}) {
        SCOPED_TRACE(tracks);
        EXPECT_THROW(Topology::makeMonaco(8, 8, tracks), FatalError);
        EXPECT_THROW(Topology::makeClusteredSingle(8, 8, tracks),
                     FatalError);
        EXPECT_THROW(Topology::makeClusteredDouble(8, 8, tracks),
                     FatalError);
    }
    EXPECT_EQ(Topology::makeClusteredDouble(8, 8, 1).dataTracks(), 1);
}

/** Fabric-size sweep (paper Fig. 16 sizes) over all three kinds. */
class TopologyScaling
    : public ::testing::TestWithParam<std::tuple<TopologyKind, int>>
{};

TEST_P(TopologyScaling, InvariantsHoldAtEverySize)
{
    auto [kind, size] = GetParam();
    Topology t = Topology::make(kind, size, size);

    // LS tile count is always half the fabric.
    EXPECT_EQ(t.numLsTiles(), size * size / 2);

    // Every LS tile has a domain, a port, and non-negative hops;
    // every arith tile has none.
    int max_domain = -1;
    for (int idx = 0; idx < t.numTiles(); ++idx) {
        Coord c = t.tileCoord(idx);
        if (t.isLs(c)) {
            EXPECT_GE(t.domainOf(c), 0);
            EXPECT_LT(t.domainOf(c), t.numDomains());
            EXPECT_GE(t.portOf(c), 0);
            EXPECT_LT(t.portOf(c), t.memPorts());
            max_domain = std::max(max_domain, t.domainOf(c));
        } else {
            EXPECT_EQ(t.domainOf(c), -1);
            EXPECT_EQ(t.portOf(c), -1);
        }
    }
    EXPECT_EQ(max_domain + 1, t.numDomains());

    // Domains are monotone in column distance within any LS row.
    for (int r = 0; r < t.rows(); ++r) {
        int prev = -1;
        for (int c = 0; c < t.cols(); ++c) {
            if (!t.isLs({r, c}))
                continue;
            int d = t.domainOf({r, c});
            EXPECT_GE(d, prev);
            prev = d;
        }
    }

    // Port ids are dense.
    std::vector<bool> seen(static_cast<std::size_t>(t.memPorts()), false);
    for (int idx = 0; idx < t.numTiles(); ++idx) {
        Coord c = t.tileCoord(idx);
        if (t.isLs(c))
            seen[static_cast<std::size_t>(t.portOf(c))] = true;
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TopologyScaling,
    ::testing::Combine(::testing::Values(TopologyKind::Monaco,
                                         TopologyKind::ClusteredSingle,
                                         TopologyKind::ClusteredDouble),
                       ::testing::Values(8, 12, 16, 24)));

} // namespace
} // namespace nupea
