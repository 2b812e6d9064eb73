/**
 * @file
 * Target platforms from the paper (Table 2 plus the "current" 2D
 * platform used in Fig 4's motivation).
 *
 * Naming convention follows the paper: number of dimensions, then the
 * per-dimension wiring in dim1..dimD order, e.g. "3D-FC_Ring_SW".
 */

#ifndef THEMIS_TOPOLOGY_PRESETS_HPP
#define THEMIS_TOPOLOGY_PRESETS_HPP

#include <string>
#include <vector>

#include "topology/topology.hpp"

namespace themis::presets {

/** 2D-SW_SW: 16x64, aggr BW (1200, 800) Gb/s. */
Topology make2DSwSw();

/** 3D-SW_SW_SW_homo: 16x8x8, aggr BW (800, 800, 800) Gb/s. */
Topology make3DSwSwSwHomo();

/** 3D-SW_SW_SW_hetero: 16x8x8, aggr BW (1600, 800, 400) Gb/s. */
Topology make3DSwSwSwHetero();

/** 3D-FC_Ring_SW: 8x16x8, aggr BW (1400, 800, 400) Gb/s. */
Topology make3DFcRingSw();

/** 4D-Ring_SW_SW_SW: 4x4x8x8, aggr BW (2000, 1600, 800, 400) Gb/s. */
Topology make4DRingSwSwSw();

/** 4D-Ring_FC_Ring_SW: 4x8x4x8, aggr BW (3000, 1400, 1200, 800). */
Topology make4DRingFcRingSw();

/**
 * The "current topology" of Fig 4: a DGX-2-class 2D platform, 16x64,
 * 1200 Gb/s NVLink-class dim1, 100 Gb/s NIC dim2. Its large dim1:dim2
 * bandwidth gap is why baseline scheduling already achieves ~98%
 * utilization there (paper Sec 3.2).
 */
Topology makeCurrent2D();

/** All six next-generation platforms of Table 2, in table order. */
std::vector<Topology> nextGenTopologies();

/** nextGenTopologies() plus the current 2D platform (Fig 4 set). */
std::vector<Topology> allTopologies();

/**
 * Table 3's Ideal platform for @p topo: one zero-latency switch
 * dimension over all its NPUs carrying its total bandwidth, so a
 * collective takes exactly size / total BW.
 */
Topology idealTopology(const Topology& topo);

/**
 * Look up a preset by its paper name (case-insensitive), e.g.
 * "3D-SW_SW_SW_homo" or "Current-2D". Throws ConfigError if unknown.
 */
Topology byName(const std::string& name);

/** Names accepted by byName(), in canonical order. */
std::vector<std::string> presetNames();

} // namespace themis::presets

#endif // THEMIS_TOPOLOGY_PRESETS_HPP
