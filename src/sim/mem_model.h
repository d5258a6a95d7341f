/**
 * @file
 * Fabric-to-memory access models (paper Secs. 4.2 and 6).
 *
 * Three models share one interface:
 *
 *  - MonacoMemModel: the NUPEA fabric-memory NoC. An LS tile in
 *    domain D reaches its row's arbiter tree; each domain crossed is
 *    one flopped arbiter stage (1 system cycle latency, 1 request
 *    per cycle throughput, round-robin modeled as FIFO queueing).
 *    D0 tiles connect directly to a memory port. The row's shared
 *    port (every third port) is combinationally arbitrated between
 *    one D0 PE and the domain-1 arbiter. Responses pay the same
 *    arbitration distance back.
 *
 *  - UpeaMemModel: uniform PE access. Every request is delayed by N
 *    fabric cycles; ports are not arbitrated (the baseline has MORE
 *    bandwidth than Monaco, as in the paper's methodology).
 *
 *  - NumaUpeaMemModel: UPEA plus NUMA. LS PEs are assigned randomly
 *    to NUMA domains; the address space is interleaved across
 *    domains at cache-line granularity. Local accesses skip the
 *    UPEA delay entirely; remote accesses pay it.
 *
 * All models funnel into the shared banked memory + cache
 * (MemorySystem), which is where bank conflicts and hit/miss timing
 * are charged.
 */

#ifndef NUPEA_SIM_MEM_MODEL_H
#define NUPEA_SIM_MEM_MODEL_H

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "fabric/topology.h"
#include "memory/memsys.h"

namespace nupea
{

/** Which fabric-memory model a Machine uses. */
enum class MemModel : std::uint8_t
{
    Monaco,    ///< NUPEA fabric-memory NoC
    Upea,      ///< uniform PE access, N fabric cycles
    NumaUpea,  ///< UPEA with NUMA domains
    /**
     * Extension (paper Sec. 3, "one could design SDAs with
     * non-uniformity in both memory and PE access"): the Monaco
     * fabric-memory NoC over NUMA-banked memory. The address space
     * is line-interleaved across LS-row groups; an access whose line
     * is local to the issuing PE's row group bypasses the arbiter
     * tree (a direct path to the local memory slice), while remote
     * accesses take the normal NUPEA path.
     */
    NupeaNuma,
};

/** Printable model name. */
std::string_view memModelName(MemModel model);

/** Completion info for one fabric-memory access. */
struct MemAccessOutcome
{
    Cycle completeAt = 0; ///< system cycle the response reaches the PE
    bool hit = false;
    Word data = 0;
    int domain = -1; ///< NUPEA (or NUMA) domain charged
    /** The access stayed in the issuing PE's NUMA domain / row group
     *  and paid no network stages (NumaUpea and NupeaNuma only). */
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

/** Abstract access-path model. */
class MemAccessModel
{
  public:
    virtual ~MemAccessModel() = default;

    /**
     * Issue one access from an LS tile.
     * @param tile   the LS PE's coordinate
     * @param issue  system cycle the request leaves the PE
     */
    virtual MemAccessOutcome access(Coord tile, Addr addr, bool is_store,
                                    Word data, Cycle issue) = 0;

    /** Model-specific counters (arbitration waits etc.). */
    StatSet &stats() { return stats_; }

  protected:
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
