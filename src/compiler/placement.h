/**
 * @file
 * Instruction placement onto the fabric (paper Sec. 5).
 *
 * effcc's PnR places instructions with simulated annealing. The
 * NUPEA-aware pieces are (i) an initial placement that fills LS
 * tiles in NUPEA-domain/column preference order, most-critical
 * memory instructions first, and (ii) a memory-cost term in the
 * annealing objective that charges each memory instruction its
 * tile's arbitration distance, weighted by criticality class.
 *
 * Three modes reproduce the paper's Fig. 12 ablation:
 *  - DomainUnaware:    no memory-cost term, random LS assignment;
 *  - DomainAware:      domain preference but criticality-blind;
 *  - CriticalityAware: full effcc heuristic.
 *
 * The annealer is one simulated-annealing run from one seed: the
 * initial placement above, then iterationsPerNode x nodes random
 * relocate-or-swap moves on a geometric temperature schedule. The
 * final state is returned, so the placement is a pure function of
 * the options.
 */

#ifndef NUPEA_COMPILER_PLACEMENT_H
#define NUPEA_COMPILER_PLACEMENT_H

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dfg/graph.h"
#include "fabric/topology.h"

namespace nupea
{

/** Per-node tile assignment. */
struct Placement
{
    std::vector<Coord> pos;

    Coord
    of(NodeId id) const
    {
        return pos[static_cast<std::size_t>(id)];
    }
};

/** PnR heuristic flavor (paper Fig. 12). */
enum class PlaceMode : std::uint8_t
{
    DomainUnaware,
    DomainAware,
    CriticalityAware,
};

/** Printable mode name. */
std::string_view placeModeName(PlaceMode mode);

/** Move counts of one anneal. */
struct PlacerChainStats
{
    std::uint64_t moves = 0;    ///< moves executed
    std::uint64_t accepted = 0; ///< moves accepted (not reverted)
};

/** Outcome of one anneal. */
struct PlacerStats
{
    /** Exactly one entry, the anneal's move counts (a vector because
     *  perfbench/ iterates it). */
    std::vector<PlacerChainStats> chains;
    /** Exact placementCost() of the returned placement. */
    double winnerCost = 0.0;
};

/** Tuning knobs for the annealer. */
struct PlacerOptions
{
    PlaceMode mode = PlaceMode::CriticalityAware;
    std::uint64_t seed = 1;
    /** Annealing moves per graph node; a negative value is fatal(). */
    int iterationsPerNode = 150;
    /** Weight of the total-wirelength term. */
    static constexpr double wirelenWeight = 1.0;
    /** Weight of the criticality-weighted memory-distance term. */
    static constexpr double memWeight = 4.0;
    /** Column preference within a domain (paper Sec. 5). */
    static constexpr double columnPreference = 0.1;
    /** Kept only because perfbench/ sets `portfolio.chains = 1`: any
     *  other value is fatal(). A benchmark change can drop it. */
    struct
    {
        int chains = 1;
    } portfolio;
};

/** Total cost of a placement under the given options (for tests). */
double placementCost(const Graph &graph, const Topology &topo,
                     const Placement &placement,
                     const PlacerOptions &options);

/** Temperature of move `i` of a `total`-move anneal: 12 at the start,
 *  falling geometrically to 0.05 at `total` (for tests). */
double annealTemperature(std::uint64_t i, std::uint64_t total);

/**
 * The anneal's Metropolis test for an uphill move (`delta` > 0) with
 * uniform draw `u` at move `i` of `total`; true rejects the move
 * (for tests). It equals `u >= std::exp(-delta /
 * annealTemperature(i, total))`, but decides from the temperatures at
 * the ends of i's 64-move block whenever they settle it.
 */
bool metropolisRejects(double u, double delta, std::uint64_t i,
                       std::uint64_t total);

/**
 * Place every node of `graph` onto `topo`. The graph must fit (see
 * Topology::totalSlots); otherwise fatal(). The result is always
 * legal: the verifier's checkPlacement() (verify/legality.h) runs on
 * it before it is returned, and an error panics. `stats`, when given,
 * receives the anneal's move counts and the returned placement's
 * cost.
 */
Placement placeGraph(const Graph &graph, const Topology &topo,
                     const PlacerOptions &options,
                     PlacerStats *stats = nullptr);

/**
 * The annealing objective's criticality weight for a memory node
 * under a mode (exposed for tests and the router's net ordering).
 */
double critWeight(PlaceMode mode, Criticality crit);

} // namespace nupea

#endif // NUPEA_COMPILER_PLACEMENT_H
