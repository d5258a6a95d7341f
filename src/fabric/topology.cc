#include "fabric/topology.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"

namespace nupea
{

namespace
{

/** The router needs at least one track per tile edge; with none, the
 *  routing graph has no links and no inter-tile net can route. */
void
checkDataTracks(const char *kind, int data_tracks)
{
    if (data_tracks < 1) {
        fatal(kind, " fabric needs at least one data track per tile "
              "edge, got data_tracks = ", data_tracks);
    }
}

} // namespace

FuSlots
Topology::slots(Coord c) const
{
    NUPEA_ASSERT(inBounds(c), "tile out of bounds ", c.str());
    if (peKind(c) == PeKind::LoadStore) {
        // One arith FU, one memory FU, CF, xdata (paper Fig. 7).
        return FuSlots{1, 1, 1, 1};
    }
    // Arith PEs carry a second arith FU instead of the memory FU.
    return FuSlots{2, 1, 0, 1};
}

int
Topology::portOf(Coord c) const
{
    int d = domainOf(c);
    if (d < 0)
        return -1;
    int ls_row = lsRowIndex_[static_cast<std::size_t>(c.row)];
    NUPEA_ASSERT(ls_row >= 0);
    if (d == 0)
        return ls_row * d0Cols_ + std::min<int>(c.col, d0Cols_ - 1);
    // Arbiter trees drain into the row's last ("shared") port.
    return ls_row * d0Cols_ + (d0Cols_ - 1);
}

std::size_t
Topology::totalSlots(FuClass fu) const
{
    std::size_t total = 0;
    for (int idx = 0; idx < numTiles(); ++idx)
        total += slots(tileCoord(idx)).forClass(fu);
    return total;
}

std::vector<Coord>
Topology::lsTilesByPreference() const
{
    std::vector<Coord> tiles;
    for (int idx = 0; idx < numTiles(); ++idx) {
        Coord c = tileCoord(idx);
        if (isLs(c))
            tiles.push_back(c);
    }
    std::sort(tiles.begin(), tiles.end(), [this](Coord a, Coord b) {
        int da = domainOf(a), db = domainOf(b);
        if (da != db)
            return da < db;
        if (a.col != b.col)
            return a.col < b.col;
        return a.row < b.row;
    });
    return tiles;
}

std::string
Topology::describe() const
{
    std::ostringstream os;
    os << name_ << " (" << rows_ << "x" << cols_ << ", "
       << numLsTiles_ << " LS tiles, " << numDomains_ << " domains, "
       << memPorts() << " memory ports, " << dataTracks_
       << " NoC tracks)\n";
    for (int r = 0; r < rows_; ++r) {
        for (int c = 0; c < cols_; ++c) {
            Coord t{r, c};
            if (isLs(t))
                os << domainOf(t);
            else
                os << 'A';
            os << ' ';
        }
        os << "| row " << r << "\n";
    }
    return os.str();
}

void
Topology::assignDomains(Topology &topo)
{
    topo.domain_.assign(static_cast<std::size_t>(topo.numTiles()), -1);
    topo.lsRowIndex_.assign(static_cast<std::size_t>(topo.rows_), -1);

    int max_domain = 0;
    int ls_rows = 0;
    int ls_tiles = 0;
    for (int r = 0; r < topo.rows_; ++r) {
        bool row_has_ls = false;
        for (int c = 0; c < topo.cols_; ++c) {
            Coord t{r, c};
            if (!topo.isLs(t))
                continue;
            row_has_ls = true;
            ++ls_tiles;
            int d;
            if (c < topo.d0Cols_) {
                d = 0;
            } else {
                // Fanout-4 arbiter tree: 3 LS columns per stage plus
                // the downstream stage (paper Fig. 9).
                d = 1 + (c - topo.d0Cols_) / 3;
            }
            topo.domain_[static_cast<std::size_t>(topo.tileIndex(t))] =
                static_cast<std::int8_t>(d);
            max_domain = std::max(max_domain, d);
        }
        if (row_has_ls)
            topo.lsRowIndex_[static_cast<std::size_t>(r)] = ls_rows++;
    }
    topo.numDomains_ = max_domain + 1;
    topo.numLsRows_ = ls_rows;
    topo.numLsTiles_ = ls_tiles;
}

Topology
Topology::makeMonaco(int rows, int cols, int data_tracks, int d0_cols)
{
    NUPEA_ASSERT(rows >= 2 && cols >= 1 && d0_cols >= 1);
    checkDataTracks("Monaco", data_tracks);
    Topology topo;
    topo.kind_ = TopologyKind::Monaco;
    topo.name_ = formatMessage("monaco-", rows, "x", cols);
    topo.rows_ = rows;
    topo.cols_ = cols;
    topo.dataTracks_ = data_tracks;
    topo.d0Cols_ = std::min(cols, d0_cols);
    topo.kinds_.assign(static_cast<std::size_t>(rows * cols),
                       PeKind::Arith);
    // Alternating rows: odd rows fully LS (paper Fig. 8).
    for (int r = 1; r < rows; r += 2) {
        for (int c = 0; c < cols; ++c) {
            topo.kinds_[static_cast<std::size_t>(r * cols + c)] =
                PeKind::LoadStore;
        }
    }
    assignDomains(topo);
    return topo;
}

Topology
Topology::makeClusteredSingle(int rows, int cols, int data_tracks)
{
    NUPEA_ASSERT(rows >= 1 && cols >= 2);
    checkDataTracks("Clustered-Single", data_tracks);
    Topology topo;
    topo.kind_ = TopologyKind::ClusteredSingle;
    topo.name_ = formatMessage("clustered-single-", rows, "x", cols);
    topo.rows_ = rows;
    topo.cols_ = cols;
    topo.dataTracks_ = data_tracks;
    topo.d0Cols_ = 1;
    topo.kinds_.assign(static_cast<std::size_t>(rows * cols),
                       PeKind::Arith);
    // Every row: the cols/2 columns closest to memory are LS, so the
    // total LS count matches Monaco at the same fabric size.
    int ls_cols = cols / 2;
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < ls_cols; ++c) {
            topo.kinds_[static_cast<std::size_t>(r * cols + c)] =
                PeKind::LoadStore;
        }
    }
    assignDomains(topo);
    return topo;
}

Topology
Topology::makeClusteredDouble(int rows, int cols, int data_tracks)
{
    NUPEA_ASSERT(rows >= 1 && cols >= 4);
    checkDataTracks("Clustered-Double", data_tracks);
    Topology topo;
    topo.kind_ = TopologyKind::ClusteredDouble;
    topo.name_ = formatMessage("clustered-double-", rows, "x", cols);
    topo.rows_ = rows;
    topo.cols_ = cols;
    topo.dataTracks_ = data_tracks;
    topo.d0Cols_ = 2; // doubled fast-domain LS PEs and ports
    topo.kinds_.assign(static_cast<std::size_t>(rows * cols),
                       PeKind::Arith);
    int ls_cols = cols / 2;
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < ls_cols; ++c) {
            topo.kinds_[static_cast<std::size_t>(r * cols + c)] =
                PeKind::LoadStore;
        }
    }
    assignDomains(topo);
    return topo;
}

Topology
Topology::make(TopologyKind kind, int rows, int cols, int data_tracks)
{
    switch (kind) {
      case TopologyKind::Monaco:
        return makeMonaco(rows, cols, data_tracks);
      case TopologyKind::ClusteredSingle:
        return makeClusteredSingle(rows, cols, data_tracks);
      case TopologyKind::ClusteredDouble:
        return makeClusteredDouble(rows, cols, data_tracks);
    }
    fatal("unknown topology kind");
}

} // namespace nupea
