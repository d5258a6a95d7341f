#include "sim/mem_model.h"

#include <algorithm>

#include "common/log.h"
#include "common/rng.h"

namespace nupea
{

MemPath::MemPath(const MemModelConfig &config, int clock_divider,
                 const Topology &topo, int line_bytes)
    : topo_(topo), arbitrated_(config.model == MemModel::Monaco),
      networkStages_(arbitrated_ ? 0 : config.upeaLatency),
      divider_(clock_divider), numaDomains_(config.numaDomains),
      lineBytes_(line_bytes)
{
    if (config.model != MemModel::NumaUpea)
        return;
    if (numaDomains_ < 1)
        fatal("NUMA-UPEA needs at least one NUMA domain, got ",
              numaDomains_);
    Rng rng(config.seed);
    group_.assign(static_cast<std::size_t>(topo.numTiles()), 0);
    for (int idx = 0; idx < topo.numTiles(); ++idx) {
        if (topo.isLs(topo.tileCoord(idx)))
            group_[static_cast<std::size_t>(idx)] = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(numaDomains_)));
    }
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
    MonacoMemModel(MemPath path, const Topology &topo,
                   MemorySystem &memsys)
        : MemAccessModel(std::move(path)), topo_(topo), memsys_(memsys)
    {
        int domains = topo.numDomains();
        // Request and response arbiter stages per (LS row, domain>=1).
        reqArb_.assign(path_.numArbiters(), Stage{});
        respArb_.assign(path_.numArbiters(), Stage{});
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
        int domain = path_.arbStages(tile);
        NUPEA_ASSERT(domain >= 0, "memory access from non-LS tile ",
                     tile.str());
        int ls_row = topo_.lsRowIndex(tile.row);
        NUPEA_ASSERT(ls_row >= 0);

        // Request path: one flopped arbiter per domain crossed
        // (domain d goes through arbiters d, d-1, ..., 1).
        Cycle t = issue;
        for (int d = domain; d >= 1; --d) {
            Cycle in = t;
            Stage &stage = reqArb_[path_.arbIndex(ls_row, d)];
            t = stage.pass(in);
            std::size_t i = static_cast<std::size_t>(d);
            *reqArbPasses_[i] += 1;
            reqArbWait_[i]->sample(
                static_cast<double>(t - in - stage.latency));
        }

        // Port stage: D0 tiles on the shared column and all arbitrated
        // traffic contend for the shared port; other D0 tiles own
        // their port.
        int port = topo_.portOf(tile);
        Cycle port_in = t;
        t = reqPort_[static_cast<std::size_t>(port)].pass(port_in);
        *portPasses_[static_cast<std::size_t>(port)] += 1;
        portWait_->sample(static_cast<double>(t - port_in));

        // Every request is one sample, zero-delay ones included —
        // gating on t > issue would skew the mean up.
        reqNetDelay_->sample(static_cast<double>(t - issue));

        MemAccessResult bank = memsys_.access(addr, is_store, data, t);

        // Response path mirrors the request arbitration distance.
        Cycle r = bank.completeAt;
        for (int d = 1; d <= domain; ++d) {
            Cycle in = r;
            Stage &stage = respArb_[path_.arbIndex(ls_row, d)];
            r = stage.pass(in);
            std::size_t i = static_cast<std::size_t>(d);
            *respArbPasses_[i] += 1;
            respArbWait_[i]->sample(
                static_cast<double>(r - in - stage.latency));
        }
        respNetDelay_->sample(static_cast<double>(r - bank.completeAt));

        latencyTotal_->sample(static_cast<double>(r - issue));
        latencyDomain_[static_cast<std::size_t>(domain)]->sample(
            static_cast<double>(r - issue));

        MemAccessOutcome out;
        out.completeAt = r;
        out.hit = bank.hit;
        out.data = bank.data;
        return out;
    }

  private:
    const Topology &topo_;
    MemorySystem &memsys_;
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
    /** @} */
};

/**
 * The UPEA baselines: a fixed network delay before the banks, which
 * NUMA-UPEA's local accesses skip. The baselines "model only the
 * delay from UPEA and do not explicitly arbitrate memory requests to
 * memory ports" (paper Sec. 6).
 */
class UpeaMemModel : public MemAccessModel
{
  public:
    UpeaMemModel(MemPath path, MemorySystem &memsys)
        : MemAccessModel(std::move(path)), memsys_(memsys),
          delaySys_(path_.remoteDelay<Cycle>(1))
    {}

    MemAccessOutcome
    access(Coord tile, Addr addr, bool is_store, Word data,
           Cycle issue) override
    {
        bool local = path_.local(tile, addr);
        if (path_.grouped())
            (local ? localAccesses_ : remoteAccesses_).value() += 1;
        MemAccessResult bank = memsys_.access(
            addr, is_store, data, issue + (local ? 0 : delaySys_));
        latencyTotal_.value().sample(
            static_cast<double>(bank.completeAt - issue));
        MemAccessOutcome out;
        out.completeAt = bank.completeAt;
        out.hit = bank.hit;
        out.data = bank.data;
        out.local = local;
        return out;
    }

  private:
    MemorySystem &memsys_;
    Cycle delaySys_;
    /** Lazily bound: plain UPEA never counts locality. */
    CounterHandle localAccesses_{stats_, "local_accesses"};
    CounterHandle remoteAccesses_{stats_, "remote_accesses"};
    DistHandle latencyTotal_{stats_, "latency_total"};
};

} // namespace

std::unique_ptr<MemAccessModel>
makeMemAccessModel(const MemModelConfig &config, int clock_divider,
                   const Topology &topo, MemorySystem &memsys)
{
    MemPath path(config, clock_divider, topo,
                 memsys.config().cache.lineBytes);
    if (path.arbitrated())
        return std::make_unique<MonacoMemModel>(std::move(path), topo,
                                                memsys);
    return std::make_unique<UpeaMemModel>(std::move(path), memsys);
}

} // namespace nupea
