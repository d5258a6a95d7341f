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
 * The annealer is a *portfolio*: K independent chains (distinct
 * seeds; chains after the first with perturbed temperature schedules
 * and move mixes) advance in fixed move-count epochs, one after
 * another on the calling thread. At each epoch barrier, chains whose
 * best-so-far cost is dominated beyond a margin are killed and their
 * unspent move budget is reassigned to the survivors (capped at
 * kMaxChainBudgetFactor x the single-chain schedule). The winner is
 * picked deterministically (lowest best cost, then lowest chain
 * index — i.e. seed order), so the chosen placement is a pure
 * function of the options. chains=1 reproduces the historical
 * single-seed placer bit-for-bit.
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

class TraceSink; // sim/trace.h

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

/** Cap on any portfolio chain's total move budget, as a multiple of
 *  the single-chain schedule: reassigned budget stops there. */
inline constexpr double kMaxChainBudgetFactor = 1.25;

/** Portfolio-annealing knobs (see the file comment). */
struct PortfolioOptions
{
    /** Number of independent SA chains. 1 = the historical
     *  single-seed placer, bit-for-bit. */
    int chains = 1;
    /** Moves per graph node between sync epochs (chains > 1). */
    int epochMovesPerNode = 20;
    /** A chain is killed at a barrier when its best cost exceeds the
     *  leader's best by more than this relative margin. */
    double killMargin = 0.15;
    /** Optional per-epoch chain observability hook. Borrowed. */
    TraceSink *trace = nullptr;
};

/** Per-chain outcome of one portfolio anneal. */
struct PlacerChainStats
{
    std::uint64_t seed = 0;
    std::uint64_t moves = 0;    ///< moves actually executed
    std::uint64_t accepted = 0; ///< moves accepted (not reverted)
    double finalCost = 0.0;     ///< cost of the chain's final state
    double bestCost = 0.0;      ///< best epoch-boundary cost
    int killedAtEpoch = -1;     ///< -1 when the chain survived
    bool winner = false;
};

/** Aggregate outcome of one portfolio anneal. */
struct PortfolioStats
{
    std::vector<PlacerChainStats> chains;
    int epochs = 0;
    int winnerChain = 0;
    /** Exact placementCost() of the returned placement. */
    double winnerCost = 0.0;
};

/** Tuning knobs for the annealer. */
struct PlacerOptions
{
    PlaceMode mode = PlaceMode::CriticalityAware;
    std::uint64_t seed = 1;
    /** Annealing moves per graph node. */
    int iterationsPerNode = 150;
    /** Weight of the total-wirelength term. */
    double wirelenWeight = 1.0;
    /** Weight of the criticality-weighted memory-distance term. */
    double memWeight = 4.0;
    /** Column preference within a domain (paper Sec. 5). */
    double columnPreference = 0.1;
    /** Multi-chain portfolio configuration. */
    PortfolioOptions portfolio;
};

/**
 * Check that a placement satisfies fabric constraints: every node on
 * a tile with a free slot of its FU class (memory ops on LS tiles).
 * Returns true and leaves `why` untouched when legal.
 */
bool placementLegal(const Graph &graph, const Topology &topo,
                    const Placement &placement, std::string *why = nullptr);

/** Total cost of a placement under the given options (for tests). */
double placementCost(const Graph &graph, const Topology &topo,
                     const Placement &placement,
                     const PlacerOptions &options);

/**
 * Place every node of `graph` onto `topo`. The graph must fit (see
 * Topology::totalSlots); otherwise fatal(). The result is always
 * legal: every surviving chain's placement is checked against the
 * fabric constraints (and a killed chain can never win — see
 * placement.cc). With `options.portfolio.chains == 1` this is the
 * historical single-seed anneal, bit-for-bit; with more chains the
 * best epoch-boundary snapshot of the deterministic winner is
 * returned. `stats`, when given, receives per-chain outcomes.
 */
Placement placeGraph(const Graph &graph, const Topology &topo,
                     const PlacerOptions &options,
                     PortfolioStats *stats = nullptr);

/**
 * The annealing objective's criticality weight for a memory node
 * under a mode (exposed for tests and the router's net ordering).
 */
double critWeight(PlaceMode mode, Criticality crit);

} // namespace nupea

#endif // NUPEA_COMPILER_PLACEMENT_H
