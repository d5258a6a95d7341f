/**
 * @file
 * Fabric topology descriptors.
 *
 * A Topology describes the PE grid: which tiles are load-store (LS)
 * PEs, the NUPEA domain of each LS tile, the per-PE functional-unit
 * slots, the data-NoC track budget, and the fabric-memory NoC shape
 * (memory ports and arbiter-tree hops).
 *
 * Column 0 is the side closest to memory. Monaco (paper Fig. 8)
 * alternates fully-arithmetic and fully-LS rows; NUPEA domains
 * segment LS columns by distance to memory: D0 covers the closest
 * columns and connects straight to memory ports, and each further
 * domain adds one (flopped) arbitration hop. Clustered-Single and
 * Clustered-Double (paper Fig. 13) instead pack all LS PEs into the
 * columns nearest memory on every row.
 */

#ifndef NUPEA_FABRIC_TOPOLOGY_H
#define NUPEA_FABRIC_TOPOLOGY_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "dfg/opcode.h"

namespace nupea
{

/** What a tile can host. */
enum class PeKind : std::uint8_t
{
    Arith,     ///< two arith FUs + control + xdata
    LoadStore, ///< one arith FU + one memory FU + control + xdata
};

/** Instruction capacity of one PE, by FU class (paper Fig. 7). */
struct FuSlots
{
    /** Largest capacity of any one class on any tile (Arith PEs'
     *  two arith FUs); Topology::slots never exceeds it. */
    static constexpr std::uint8_t kMaxPerClass = 2;

    std::uint8_t arith = 0;
    std::uint8_t control = 0;
    std::uint8_t mem = 0;
    std::uint8_t xdata = 0;

    /** Capacity for a particular FU class. */
    std::uint8_t
    forClass(FuClass fu) const
    {
        switch (fu) {
          case FuClass::Arith: return arith;
          case FuClass::Control: return control;
          case FuClass::Mem: return mem;
          case FuClass::XData: return xdata;
        }
        return 0;
    }
};

/** Identifies the flavor of a prebuilt topology. */
enum class TopologyKind : std::uint8_t
{
    Monaco,          ///< alternating LS/arith rows, NUPEA domains
    ClusteredSingle, ///< LS packed near memory, 1 direct port per row
    ClusteredDouble, ///< LS packed near memory, 2 direct ports per row
};

/**
 * Immutable description of one fabric. Build via makeMonaco(),
 * makeClusteredSingle(), makeClusteredDouble().
 */
class Topology
{
  public:
    /** Empty fabric; assign from a factory before use. */
    Topology() = default;

    const std::string &name() const { return name_; }
    TopologyKind kind() const { return kind_; }
    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int numTiles() const { return rows_ * cols_; }

    bool
    inBounds(Coord c) const
    {
        return c.row >= 0 && c.row < rows_ && c.col >= 0 && c.col < cols_;
    }

    /** Row-major tile index. */
    int
    tileIndex(Coord c) const
    {
        return c.row * cols_ + c.col;
    }

    Coord
    tileCoord(int index) const
    {
        return Coord{index / cols_, index % cols_};
    }

    PeKind
    peKind(Coord c) const
    {
        return kinds_[static_cast<std::size_t>(tileIndex(c))];
    }

    bool isLs(Coord c) const { return peKind(c) == PeKind::LoadStore; }

    /** FU slots available on a tile. */
    FuSlots slots(Coord c) const;

    /**
     * NUPEA domain of an LS tile (0 = fastest). -1 for non-LS tiles.
     */
    int
    domainOf(Coord c) const
    {
        return domain_[static_cast<std::size_t>(tileIndex(c))];
    }

    /** Number of NUPEA domains. */
    int numDomains() const { return numDomains_; }

    /**
     * Arbitration hops from an LS tile to a memory port: 0 in D0
     * (direct port), one flopped arbiter stage per further domain.
     */
    int
    arbHops(Coord c) const
    {
        int d = domainOf(c);
        return d < 0 ? -1 : d;
    }

    /** Number of columns in domain D0 (each maps to a port per row). */
    int d0Cols() const { return d0Cols_; }

    /** Total fabric-to-memory port count. */
    int memPorts() const { return numLsRows_ * d0Cols_; }

    /** Rows that contain at least one LS PE. */
    int numLsRows() const { return numLsRows_; }

    /** Dense index of a fabric row among LS rows, or -1. */
    int
    lsRowIndex(int row) const
    {
        return lsRowIndex_[static_cast<std::size_t>(row)];
    }

    /** Total LS tiles. */
    int numLsTiles() const { return numLsTiles_; }

    /**
     * Memory port used by an LS tile in D0, or the port its row's
     * arbiter tree drains into for other domains. Ports are numbered
     * densely: LS row index * d0Cols + column (capped to the shared
     * last port).
     */
    int portOf(Coord c) const;

    /** Data-NoC tracks per tile edge (routing capacity knob). */
    int dataTracks() const { return dataTracks_; }

    /** Count of all FU slots of a class across the fabric. */
    std::size_t totalSlots(FuClass fu) const;

    /** All LS tile coordinates, sorted by (domain, col, row). */
    std::vector<Coord> lsTilesByPreference() const;

    /** Human-readable fabric map for debugging. */
    std::string describe() const;

    /** @{ Factory functions. */
    /**
     * Monaco: alternating arith/LS rows. `d0_cols` widens or narrows
     * the direct-port domain D0 (default 3, the taped-out design);
     * memory ports scale with it.
     */
    static Topology makeMonaco(int rows, int cols, int data_tracks = 3,
                               int d0_cols = 3);
    static Topology makeClusteredSingle(int rows, int cols,
                                        int data_tracks = 3);
    static Topology makeClusteredDouble(int rows, int cols,
                                        int data_tracks = 3);
    static Topology make(TopologyKind kind, int rows, int cols,
                         int data_tracks = 3);
    /** @} */

  private:
    /** Assign NUPEA domains to a row's LS columns. */
    static void assignDomains(Topology &topo);

    std::string name_;
    TopologyKind kind_ = TopologyKind::Monaco;
    int rows_ = 0;
    int cols_ = 0;
    int dataTracks_ = 3;
    int d0Cols_ = 3;
    int numDomains_ = 0;
    int numLsRows_ = 0;
    int numLsTiles_ = 0;
    std::vector<PeKind> kinds_;
    std::vector<std::int8_t> domain_;
    /** Row index -> dense LS-row index (or -1). */
    std::vector<int> lsRowIndex_;
};

} // namespace nupea

#endif // NUPEA_FABRIC_TOPOLOGY_H
