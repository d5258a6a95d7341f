/**
 * @file
 * The fabric-to-memory path and its access models (paper Secs. 4.2
 * and 6).
 *
 * MemPath is the one statement of the path for a (MemModelConfig,
 * clock divider, Topology, cache-line size): each LS tile's NUMA
 * group and the arbiter stages it crosses each way, which lines are
 * local to a tile, the UPEA remote delay and the energy stages of a
 * remote access. The access models below, the Machine's energy
 * charge (sim/machine.cc) and the static model (analysis/
 * perf_model.cc) all read it. The configurations:
 *
 *  - Monaco: the NUPEA fabric-memory NoC. An LS tile in domain D
 *    reaches its row's arbiter tree; each domain crossed is one
 *    flopped arbiter stage (1 system cycle latency, 1 request per
 *    cycle throughput, round-robin modeled as FIFO queueing). D0
 *    tiles connect directly to a memory port. The row's shared port
 *    (every third port) is combinationally arbitrated between one D0
 *    PE and the domain-1 arbiter. Responses pay the same arbitration
 *    distance back.
 *
 *  - UPEA: uniform PE access. Every request is delayed by N fabric
 *    cycles; ports are not arbitrated (the baseline has MORE
 *    bandwidth than Monaco, as in the paper's methodology).
 *
 *  - NUMA-UPEA: UPEA plus NUMA. LS PEs are assigned randomly to NUMA
 *    groups; the address space is interleaved across groups at
 *    cache-line granularity. Local accesses skip the UPEA delay
 *    entirely; remote accesses pay it. UPEA is the case where no
 *    tile owns a line group, and one access model times both.
 *
 * Every model funnels into the shared banked memory + cache
 * (MemorySystem), which is where bank conflicts and hit/miss timing
 * are charged.
 */

#ifndef NUPEA_SIM_MEM_MODEL_H
#define NUPEA_SIM_MEM_MODEL_H

#include <memory>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "fabric/topology.h"
#include "memory/memsys.h"

namespace nupea
{

/** Which fabric-memory model a Machine uses. */
enum class MemModel : std::uint8_t
{
    Monaco,   ///< NUPEA fabric-memory NoC
    Upea,     ///< uniform PE access, N fabric cycles
    NumaUpea, ///< UPEA with NUMA domains
};

/** Completion info for one fabric-memory access. */
struct MemAccessOutcome
{
    Cycle completeAt = 0; ///< system cycle the response reaches the PE
    bool hit = false;
    Word data = 0;
    /** The access stayed in the issuing PE's NUMA group and paid no
     *  network delay (NUMA-UPEA only). */
    bool local = false;
};

/** Common parameters for the access models. */
struct MemModelConfig
{
    MemModel model = MemModel::Monaco;
    /** N for Upea/NumaUpea, in fabric cycles (paper sweeps 0-4). */
    int upeaLatency = 2;
    int numaDomains = 4;
    /** Seed for the random NUMA domain assignment. */
    std::uint64_t seed = 1;
};

/** The fabric-memory path of one configuration on one fabric. */
class MemPath
{
  public:
    /**
     * NUMA-UPEA draws each LS tile's group from Rng(config.seed), in
     * tile-index order; fatal() when it is given fewer than one
     * group. `clock_divider` is fabric cycles per system cycle.
     */
    MemPath(const MemModelConfig &config, int clock_divider,
            const Topology &topo, int line_bytes);

    /** Requests cross the per-(LS row, domain) arbiters and the
     *  memory ports (Monaco); the UPEA baselines bypass both. */
    bool arbitrated() const { return arbitrated_; }

    /** Arbiter stages an access from `tile` crosses each way: its
     *  NUPEA domain on Monaco (-1 off the LS tiles), none on UPEA. */
    int
    arbStages(Coord tile) const
    {
        return arbitrated_ ? topo_.domainOf(tile) : 0;
    }

    /** One arbiter per (LS row, domain); none on UPEA. */
    std::size_t
    numArbiters() const
    {
        return arbitrated_ ? static_cast<std::size_t>(
                                 topo_.numLsRows() * topo_.numDomains())
                           : 0;
    }

    /** Index of LS row `ls_row`'s domain-`d` arbiter. */
    std::size_t
    arbIndex(int ls_row, int d) const
    {
        return static_cast<std::size_t>(ls_row * topo_.numDomains() + d);
    }

    /** Tiles own line groups (NUMA-UPEA). */
    bool grouped() const { return !group_.empty(); }

    /** NUMA groups the lines interleave across (NUMA-UPEA). */
    int numaDomains() const { return numaDomains_; }

    /** The NUMA group of `tile`; only meaningful when grouped(). */
    int
    group(Coord tile) const
    {
        return group_[static_cast<std::size_t>(topo_.tileIndex(tile))];
    }

    /** Line `line` is local to NUMA group `group`: lines interleave
     *  across the groups. */
    bool
    localLine(std::uint64_t line, int group) const
    {
        return static_cast<int>(
                   line % static_cast<std::uint64_t>(numaDomains_)) ==
               group;
    }

    /** An access from `tile` to `addr` stays in the tile's group and
     *  crosses no network stage either way. */
    bool
    local(Coord tile, Addr addr) const
    {
        return grouped() &&
               localLine(addr / static_cast<Addr>(lineBytes_), group(tile));
    }

    /**
     * `share` of the UPEA remote delay, upeaLatency x divider system
     * cycles (0 on Monaco). Integral for the access models, a
     * remote-access fraction for the static model.
     */
    template <typename T>
    T
    remoteDelay(T share) const
    {
        return share * static_cast<T>(networkStages_) *
               static_cast<T>(divider_);
    }

    /** Energy stages charged per remote access from `tile`: every
     *  arbiter or uniform-network stage, request and response. */
    double
    energyStages(Coord tile) const
    {
        return 2.0 * (arbStages(tile) + networkStages_);
    }

  private:
    const Topology &topo_;
    bool arbitrated_;
    int networkStages_; ///< UPEA's N fabric cycles; 0 on Monaco
    int divider_;
    int numaDomains_;
    int lineBytes_;
    std::vector<int> group_; ///< by tile index; empty unless grouped
};

/** Abstract access-path model. */
class MemAccessModel
{
  public:
    explicit MemAccessModel(MemPath path) : path_(std::move(path)) {}
    virtual ~MemAccessModel() = default;

    /**
     * Issue one access from an LS tile.
     * @param tile   the LS PE's coordinate
     * @param issue  system cycle the request leaves the PE
     */
    virtual MemAccessOutcome access(Coord tile, Addr addr, bool is_store,
                                    Word data, Cycle issue) = 0;

    /** The path this model times. */
    const MemPath &path() const { return path_; }

    /** Model-specific counters (arbitration waits etc.). */
    StatSet &stats() { return stats_; }

  protected:
    MemPath path_;
    StatSet stats_;
};

/**
 * Build the model selected by `config`. `clock_divider` (fabric
 * cycles per system cycle) converts the UPEA fabric-cycle delays.
 */
std::unique_ptr<MemAccessModel>
makeMemAccessModel(const MemModelConfig &config, int clock_divider,
                   const Topology &topo, MemorySystem &memsys);

} // namespace nupea

#endif // NUPEA_SIM_MEM_MODEL_H
