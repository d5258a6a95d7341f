/**
 * @file
 * Unit tests for src/common: types, logging, RNG, stats.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"

namespace nupea
{
namespace
{

TEST(Coord, ManhattanDistance)
{
    Coord a{0, 0};
    Coord b{3, 4};
    EXPECT_EQ(a.manhattan(b), 7);
    EXPECT_EQ(b.manhattan(a), 7);
    EXPECT_EQ(a.manhattan(a), 0);
    Coord c{-2, 5};
    EXPECT_EQ(a.manhattan(c), 7);
}

TEST(Coord, OrderingAndEquality)
{
    EXPECT_TRUE((Coord{0, 1}) < (Coord{1, 0}));
    EXPECT_TRUE((Coord{1, 0}) < (Coord{1, 2}));
    EXPECT_EQ((Coord{2, 3}), (Coord{2, 3}));
    EXPECT_NE((Coord{2, 3}), (Coord{3, 2}));
}

TEST(Coord, Str)
{
    EXPECT_EQ((Coord{1, 2}).str(), "(1,2)");
}

TEST(Log, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 42), FatalError);
    try {
        fatal("value=", 7);
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value=7"), std::string::npos);
    }
}

TEST(Log, FormatMessageConcatenates)
{
    EXPECT_EQ(formatMessage("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(formatMessage(), "");
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.range(-3, 3));
    EXPECT_EQ(seen.size(), 7u);
    EXPECT_EQ(*seen.begin(), -3);
    EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ReseedRestoresStream)
{
    Rng rng(5);
    std::uint64_t first = rng.next();
    rng.next();
    rng.reseed(5);
    EXPECT_EQ(rng.next(), first);
}

TEST(Stats, CountersCreateOnUse)
{
    StatSet stats;
    EXPECT_EQ(stats.counterValue("cycles"), 0u);
    stats.counter("cycles") += 10;
    stats.counter("cycles") += 5;
    EXPECT_EQ(stats.counterValue("cycles"), 15u);
}

TEST(Stats, DistributionTracksMoments)
{
    StatSet stats;
    auto &d = stats.dist("latency");
    d.sample(2);
    d.sample(4);
    d.sample(9);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
}

TEST(Distribution, EmptyIsZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
}

} // namespace
} // namespace nupea
