#include "sim/mem_model.h"

#include <algorithm>

#include "common/log.h"

namespace nupea
{

std::string_view
memModelName(MemModel model)
{
    switch (model) {
      case MemModel::Monaco: return "monaco";
      case MemModel::Upea: return "upea";
      case MemModel::NumaUpea: return "numa-upea";
      case MemModel::NupeaNuma: return "nupea+numa";
    }
    return "?";
}

namespace
{

/**
 * A single-server pipeline stage with 1-per-cycle throughput and a
 * fixed latency: arbiters (latency 1) and ports (latency 0).
 */
struct Stage
{
    Cycle lastDepart = 0;
    Cycle latency = 1;
    bool used = false; ///< false until the first item passes

    /** Push one item arriving at `t`; returns its departure time. */
    Cycle
    pass(Cycle t)
    {
        // An unused stage has no predecessor to contend with: treating
        // lastDepart=0 as "something departed at 0" would charge the
        // first-ever item through a latency-0 stage a phantom cycle.
        Cycle depart =
            used ? std::max(t + latency, lastDepart + 1) : t + latency;
        used = true;
        lastDepart = depart;
        return depart;
    }
};

/** Monaco's hierarchical fabric-memory NoC. */
class MonacoMemModel : public MemAccessModel
{
  public:
    MonacoMemModel(const MemModelConfig &config, const Topology &topo,
                   MemorySystem &memsys, bool hybrid_numa)
        : topo_(topo), memsys_(memsys), hybridNuma_(hybrid_numa),
          numaDomains_(std::max(1, config.numaDomains)),
          lineBytes_(memsys.config().cache.lineBytes)
    {
        int rows = topo.numLsRows();
        int domains = topo.numDomains();
        // Request and response arbiter stages per (LS row, domain>=1).
        reqArb_.assign(static_cast<std::size_t>(rows * domains), Stage{});
        respArb_.assign(static_cast<std::size_t>(rows * domains),
                        Stage{});
        reqPort_.assign(static_cast<std::size_t>(topo.memPorts()),
                        Stage{.latency = 0});

        // Resolve stat handles once: StatSet map references are
        // stable, and access() is on the simulator's hottest path.
        reqArbPasses_.assign(static_cast<std::size_t>(domains), nullptr);
        respArbPasses_.assign(static_cast<std::size_t>(domains),
                              nullptr);
        reqArbWait_.assign(static_cast<std::size_t>(domains), nullptr);
        respArbWait_.assign(static_cast<std::size_t>(domains), nullptr);
        latencyDomain_.assign(static_cast<std::size_t>(domains),
                              nullptr);
        for (int d = 1; d < domains; ++d) {
            std::size_t i = static_cast<std::size_t>(d);
            reqArbPasses_[i] =
                &stats_.counter(formatMessage("req_arb_passes_d", d));
            respArbPasses_[i] =
                &stats_.counter(formatMessage("resp_arb_passes_d", d));
            reqArbWait_[i] =
                &stats_.dist(formatMessage("req_arb_wait_d", d));
            respArbWait_[i] =
                &stats_.dist(formatMessage("resp_arb_wait_d", d));
        }
        for (int d = 0; d < domains; ++d)
            latencyDomain_[static_cast<std::size_t>(d)] =
                &stats_.dist(formatMessage("latency_domain", d));
        portPasses_.assign(reqPort_.size(), nullptr);
        for (std::size_t p = 0; p < reqPort_.size(); ++p)
            portPasses_[p] =
                &stats_.counter(formatMessage("port_passes_p", p));
        portWait_ = &stats_.dist("port_wait");
        reqNetDelay_ = &stats_.dist("req_network_delay");
        respNetDelay_ = &stats_.dist("resp_network_delay");
        latencyTotal_ = &stats_.dist("latency_total");
    }

    MemAccessOutcome
    access(Coord tile, Addr addr, bool is_store, Word data,
           Cycle issue) override
    {
        int domain = topo_.domainOf(tile);
        NUPEA_ASSERT(domain >= 0, "memory access from non-LS tile ",
                     tile.str());
        int ls_row = lsRowOf(tile);

        // Hybrid extension: an access to the row group's local
        // memory slice bypasses arbitration in both directions.
        bool local = false;
        if (hybridNuma_) {
            int addr_group = static_cast<int>(
                (addr / static_cast<Addr>(lineBytes_)) %
                static_cast<Addr>(numaDomains_));
            int row_group = ls_row * numaDomains_ / topo_.numLsRows();
            local = addr_group == row_group;
            (local ? localAccesses_ : remoteAccesses_).value() += 1;
        }

        // Request path: one flopped arbiter per domain crossed
        // (domain d goes through arbiters d, d-1, ..., 1).
        Cycle t = issue;
        if (!local) {
            for (int d = domain; d >= 1; --d) {
                Cycle in = t;
                Stage &stage = arb(reqArb_, ls_row, d);
                t = stage.pass(in);
                std::size_t i = static_cast<std::size_t>(d);
                *reqArbPasses_[i] += 1;
                reqArbWait_[i]->sample(
                    static_cast<double>(t - in - stage.latency));
            }

            // Port stage: D0 tiles on the shared column and all
            // arbitrated traffic contend for the shared port; other
            // D0 tiles own their port.
            int port = topo_.portOf(tile);
            Cycle in = t;
            t = reqPort_[static_cast<std::size_t>(port)].pass(in);
            *portPasses_[static_cast<std::size_t>(port)] += 1;
            portWait_->sample(static_cast<double>(t - in));

            // Every non-local request is one sample, zero-delay ones
            // included — gating on t > issue would skew the mean up.
            reqNetDelay_->sample(static_cast<double>(t - issue));
        }

        MemAccessResult bank = memsys_.access(addr, is_store, data, t);

        // Response path mirrors the request arbitration distance.
        Cycle r = bank.completeAt;
        if (!local) {
            for (int d = 1; d <= domain; ++d) {
                Cycle in = r;
                Stage &stage = arb(respArb_, ls_row, d);
                r = stage.pass(in);
                std::size_t i = static_cast<std::size_t>(d);
                *respArbPasses_[i] += 1;
                respArbWait_[i]->sample(
                    static_cast<double>(r - in - stage.latency));
            }
            respNetDelay_->sample(
                static_cast<double>(r - bank.completeAt));
        }

        latencyTotal_->sample(static_cast<double>(r - issue));
        latencyDomain_[static_cast<std::size_t>(domain)]->sample(
            static_cast<double>(r - issue));

        MemAccessOutcome out;
        out.completeAt = r;
        out.hit = bank.hit;
        out.data = bank.data;
        out.domain = domain;
        out.local = local;
        return out;
    }

  private:
    int
    lsRowOf(Coord tile) const
    {
        int idx = topo_.lsRowIndex(tile.row);
        NUPEA_ASSERT(idx >= 0);
        return idx;
    }

    Stage &
    arb(std::vector<Stage> &stages, int ls_row, int domain)
    {
        return stages[static_cast<std::size_t>(
            ls_row * topo_.numDomains() + domain)];
    }

    const Topology &topo_;
    MemorySystem &memsys_;
    bool hybridNuma_;
    int numaDomains_;
    int lineBytes_;
    std::vector<Stage> reqArb_;
    std::vector<Stage> respArb_;
    std::vector<Stage> reqPort_;

    /** @{ Cached stat handles (see constructor). */
    std::vector<std::uint64_t *> reqArbPasses_;
    std::vector<std::uint64_t *> respArbPasses_;
    std::vector<Distribution *> reqArbWait_;
    std::vector<Distribution *> respArbWait_;
    std::vector<std::uint64_t *> portPasses_;
    std::vector<Distribution *> latencyDomain_;
    Distribution *portWait_ = nullptr;
    Distribution *reqNetDelay_ = nullptr;
    Distribution *respNetDelay_ = nullptr;
    Distribution *latencyTotal_ = nullptr;
    /** Lazily bound: only the hybrid extension ever touches these,
     *  and plain Monaco runs must not grow new zero-valued rows. */
    CounterHandle localAccesses_{stats_, "local_accesses"};
    CounterHandle remoteAccesses_{stats_, "remote_accesses"};
    /** @} */
};

/** Uniform-PE-access baseline: fixed N-fabric-cycle path delay. */
class UpeaMemModel : public MemAccessModel
{
  public:
    UpeaMemModel(const MemModelConfig &config, int clock_divider,
                 MemorySystem &memsys)
        : memsys_(memsys),
          delaySys_(static_cast<Cycle>(config.upeaLatency) *
                    static_cast<Cycle>(clock_divider))
    {}

    MemAccessOutcome
    access(Coord tile, Addr addr, bool is_store, Word data,
           Cycle issue) override
    {
        (void)tile;
        // The baselines "model only the delay from UPEA and do not
        // explicitly arbitrate memory requests to memory ports"
        // (paper Sec. 6): requests go straight to the banks after
        // the uniform network delay.
        MemAccessResult bank =
            memsys_.access(addr, is_store, data, issue + delaySys_);
        latencyTotal_.value().sample(
            static_cast<double>(bank.completeAt - issue));
        MemAccessOutcome out;
        out.completeAt = bank.completeAt;
        out.hit = bank.hit;
        out.data = bank.data;
        out.domain = 0;
        return out;
    }

  private:
    MemorySystem &memsys_;
    Cycle delaySys_;
    DistHandle latencyTotal_{stats_, "latency_total"};
};

/** UPEA + NUMA: random PE->domain map, interleaved address space. */
class NumaUpeaMemModel : public MemAccessModel
{
  public:
    NumaUpeaMemModel(const MemModelConfig &config, int clock_divider,
                     const Topology &topo, MemorySystem &memsys)
        : topo_(topo), memsys_(memsys),
          delaySys_(static_cast<Cycle>(config.upeaLatency) *
                    static_cast<Cycle>(clock_divider)),
          numaDomains_(config.numaDomains),
          lineBytes_(memsys.config().cache.lineBytes)
    {
        Rng rng(config.seed);
        peDomain_.assign(static_cast<std::size_t>(topo.numTiles()), 0);
        for (int idx = 0; idx < topo.numTiles(); ++idx) {
            if (topo.isLs(topo.tileCoord(idx))) {
                peDomain_[static_cast<std::size_t>(idx)] =
                    static_cast<int>(rng.below(
                        static_cast<std::uint64_t>(numaDomains_)));
            }
        }
    }

    /** NUMA domain owning an address (line-interleaved). */
    int
    domainOfAddr(Addr addr) const
    {
        return static_cast<int>(
            (addr / static_cast<Addr>(lineBytes_)) %
            static_cast<Addr>(numaDomains_));
    }

    /** NUMA domain an LS tile belongs to. */
    int
    domainOfTile(Coord tile) const
    {
        return peDomain_[static_cast<std::size_t>(topo_.tileIndex(tile))];
    }

    MemAccessOutcome
    access(Coord tile, Addr addr, bool is_store, Word data,
           Cycle issue) override
    {
        bool local = domainOfTile(tile) == domainOfAddr(addr);
        Cycle delay = local ? 0 : delaySys_;
        (local ? localAccesses_ : remoteAccesses_).value() += 1;
        MemAccessResult bank =
            memsys_.access(addr, is_store, data, issue + delay);
        latencyTotal_.value().sample(
            static_cast<double>(bank.completeAt - issue));
        MemAccessOutcome out;
        out.completeAt = bank.completeAt;
        out.hit = bank.hit;
        out.data = bank.data;
        out.domain = domainOfTile(tile);
        out.local = local;
        return out;
    }

  private:
    const Topology &topo_;
    MemorySystem &memsys_;
    Cycle delaySys_;
    int numaDomains_;
    int lineBytes_;
    std::vector<int> peDomain_;
    CounterHandle localAccesses_{stats_, "local_accesses"};
    CounterHandle remoteAccesses_{stats_, "remote_accesses"};
    DistHandle latencyTotal_{stats_, "latency_total"};
};

} // namespace

std::unique_ptr<MemAccessModel>
makeMemAccessModel(const MemModelConfig &config, int clock_divider,
                   const Topology &topo, MemorySystem &memsys)
{
    switch (config.model) {
      case MemModel::Monaco:
        return std::make_unique<MonacoMemModel>(config, topo, memsys,
                                                false);
      case MemModel::NupeaNuma:
        return std::make_unique<MonacoMemModel>(config, topo, memsys,
                                                true);
      case MemModel::Upea:
        return std::make_unique<UpeaMemModel>(config, clock_divider,
                                              memsys);
      case MemModel::NumaUpea:
        return std::make_unique<NumaUpeaMemModel>(config, clock_divider,
                                                  topo, memsys);
    }
    fatal("unknown memory model");
}

} // namespace nupea
