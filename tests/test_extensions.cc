/**
 * @file
 * Tests for the extensions beyond the paper's evaluation: energy
 * accounting and the hybrid NUPEA+NUMA memory model.
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

TEST(HybridNupeaNuma, FunctionallyCorrect)
{
    BackingStore store(kMemBytes);
    Addr base = store.allocWords(32);
    std::vector<Word> vals;
    Word expect = 0;
    for (int i = 0; i < 32; ++i) {
        vals.push_back(i);
        expect += i;
    }
    fillWords(store, base, vals);
    auto k = buildArraySum(base, 32);
    MachineConfig cfg;
    cfg.mem.model = MemModel::NupeaNuma;
    RunResult r = runWith(k.graph, store, cfg);
    EXPECT_TRUE(r.clean) << r.problem;
    EXPECT_EQ(r.sinks[k.resultSink].last, expect);
}

TEST(HybridNupeaNuma, NeverSlowerThanMonaco)
{
    auto cycles_for = [](MemModel model) {
        BackingStore store(kMemBytes);
        Addr ring = store.allocWords(64);
        for (int i = 0; i < 64; ++i) {
            store.storeWord(
                ring + static_cast<Addr>(4 * i),
                static_cast<Word>(ring +
                                  static_cast<Addr>(4 * ((i + 1) % 64))));
        }
        auto k = buildPointerChase(ring, 128);
        MachineConfig cfg;
        cfg.mem.model = model;
        RunResult r = runWith(k.graph, store, cfg);
        EXPECT_TRUE(r.clean) << r.problem;
        return r.fabricCycles;
    };
    // Local accesses only ever bypass arbitration, so the hybrid is
    // at worst equal to plain Monaco.
    EXPECT_LE(cycles_for(MemModel::NupeaNuma),
              cycles_for(MemModel::Monaco));
}

TEST(HybridNupeaNuma, CountsLocality)
{
    Topology topo = Topology::makeMonaco(12, 12);
    BackingStore store(kMemBytes);
    MemorySystem memsys(MemSysConfig{}, store);
    MemModelConfig cfg;
    cfg.model = MemModel::NupeaNuma;
    auto model = makeMemAccessModel(cfg, 2, topo, memsys);

    // One access per line-domain from an LS tile in row group 0.
    Coord tile{1, 5};
    for (int i = 0; i < 8; ++i) {
        model->access(tile, static_cast<Addr>(0x4000 + 32 * i), false,
                      0, static_cast<Cycle>(100 * i));
    }
    auto &s = model->stats();
    EXPECT_EQ(s.counterValue("local_accesses"), 2u);
    EXPECT_EQ(s.counterValue("remote_accesses"), 6u);
}

TEST(HybridNupeaNuma, LocalBypassesArbitration)
{
    Topology topo = Topology::makeMonaco(12, 12);
    BackingStore store(kMemBytes);
    MemorySystem memsys(MemSysConfig{}, store);
    MemModelConfig cfg;
    cfg.model = MemModel::NupeaNuma;
    auto model = makeMemAccessModel(cfg, 2, topo, memsys);

    // A far-domain (D3) tile in LS row 0 -> row group 0; line-domain
    // 0 addresses are local.
    Coord d3{1, 11};
    ASSERT_EQ(topo.domainOf(d3), 3);
    Addr local_addr = 0x4000;  // line 0 mod 4 == 0 -> group 0
    Addr remote_addr = 0x4020; // line 1 -> group 1
    model->access(d3, local_addr, false, 0, 0);   // warm
    model->access(d3, remote_addr, false, 0, 0);  // warm
    auto local = model->access(d3, local_addr, false, 0, 1000);
    auto remote = model->access(d3, remote_addr, false, 0, 2000);
    // Local: cache hit only. Remote: + 3 arb stages each way.
    EXPECT_EQ(local.completeAt - 1000, 2u);
    EXPECT_EQ(remote.completeAt - 2000, 2u + 6u);
}

TEST(HybridNupeaNuma, HasName)
{
    EXPECT_EQ(memModelName(MemModel::NupeaNuma), "nupea+numa");
}

} // namespace
} // namespace nupea
