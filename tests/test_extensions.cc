/**
 * @file
 * Tests for the energy-accounting extension beyond the paper's
 * evaluation.
 */

#include <gtest/gtest.h>

#include "compiler/pnr.h"
#include "sim/machine.h"
#include "test_support.h"

namespace nupea
{
namespace
{

using test::buildArraySum;
using test::buildPointerChase;
using test::fillWords;

constexpr std::size_t kMemBytes = 1 << 20;

RunResult
runWith(Graph &graph, BackingStore &store, MachineConfig cfg)
{
    Topology topo = Topology::makeMonaco(12, 12);
    PnrResult pnr = placeAndRoute(graph, topo);
    EXPECT_TRUE(pnr.success) << pnr.failureReason;
    cfg.memsys.memBytes = store.size();
    Machine machine(graph, pnr.placement, topo, cfg, store);
    return machine.run();
}

TEST(Energy, AllComponentsPositive)
{
    BackingStore store(kMemBytes);
    Addr base = store.allocWords(16);
    std::vector<Word> vals(16, 3);
    fillWords(store, base, vals);
    auto k = buildArraySum(base, 16);
    RunResult r = runWith(k.graph, store, MachineConfig{});
    EXPECT_GT(r.energy.compute, 0.0);
    EXPECT_GT(r.energy.network, 0.0);
    EXPECT_GT(r.energy.memory, 0.0);
    EXPECT_DOUBLE_EQ(r.energy.total(), r.energy.compute +
                                           r.energy.network +
                                           r.energy.memory);
}

TEST(Energy, ScalesWithWork)
{
    auto energy_for = [](int count) {
        BackingStore store(kMemBytes);
        Addr base = store.allocWords(
            static_cast<std::size_t>(count));
        std::vector<Word> vals(static_cast<std::size_t>(count), 1);
        fillWords(store, base, vals);
        auto k = buildArraySum(base, count);
        RunResult r = runWith(k.graph, store, MachineConfig{});
        return r.energy.total();
    };
    // Twice the iterations => roughly twice the energy.
    double e16 = energy_for(16);
    double e32 = energy_for(32);
    EXPECT_GT(e32, 1.5 * e16);
    EXPECT_LT(e32, 2.6 * e16);
}

TEST(Energy, UpeaPaysMoreMemoryEnergyThanMonaco)
{
    auto memory_energy = [](MemModel model, int lat) {
        BackingStore store(kMemBytes);
        Addr ring = store.allocWords(16);
        for (int i = 0; i < 16; ++i) {
            store.storeWord(
                ring + static_cast<Addr>(4 * i),
                static_cast<Word>(ring +
                                  static_cast<Addr>(4 * ((i + 1) % 16))));
        }
        auto k = buildPointerChase(ring, 64);
        MachineConfig cfg;
        cfg.mem.model = model;
        cfg.mem.upeaLatency = lat;
        RunResult r = runWith(k.graph, store, cfg);
        return r.energy.memory;
    };
    // The critical load sits in D0 under Monaco (0 arb stages);
    // UPEA2 charges 2 stages each way per access.
    EXPECT_LT(memory_energy(MemModel::Monaco, 0),
              memory_energy(MemModel::Upea, 2));
}

TEST(Energy, CustomCostTableRespected)
{
    BackingStore store(kMemBytes);
    Addr base = store.allocWords(8);
    std::vector<Word> vals(8, 1);
    fillWords(store, base, vals);
    auto k = buildArraySum(base, 8);
    MachineConfig cfg;
    cfg.energy.noCHopPerToken = 0.0;
    cfg.energy.arithFire = 0.0;
    cfg.energy.controlFire = 0.0;
    cfg.energy.xdataFire = 0.0;
    RunResult r = runWith(k.graph, store, cfg);
    EXPECT_DOUBLE_EQ(r.energy.network, 0.0);
    EXPECT_DOUBLE_EQ(r.energy.compute, 0.0);
    EXPECT_GT(r.energy.memory, 0.0);
}

} // namespace
} // namespace nupea
