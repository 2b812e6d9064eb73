#include "topology/presets.hpp"

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace themis::presets {

namespace {

DimensionConfig
dim(DimKind kind, int size, double link_bw_gbps, int links, TimeNs lat)
{
    DimensionConfig d;
    d.kind = kind;
    d.size = size;
    d.link_bw_gbps = link_bw_gbps;
    d.links_per_npu = links;
    d.step_latency_ns = lat;
    return d;
}

} // namespace

Topology
make2DSwSw()
{
    return Topology("2D-SW_SW",
                    {dim(DimKind::Switch, 16, 200.0, 6, 700.0),
                     dim(DimKind::Switch, 64, 800.0, 1, 1700.0)});
}

Topology
make3DSwSwSwHomo()
{
    return Topology("3D-SW_SW_SW_homo",
                    {dim(DimKind::Switch, 16, 200.0, 4, 700.0),
                     dim(DimKind::Switch, 8, 200.0, 4, 700.0),
                     dim(DimKind::Switch, 8, 800.0, 1, 1700.0)});
}

Topology
make3DSwSwSwHetero()
{
    return Topology("3D-SW_SW_SW_hetero",
                    {dim(DimKind::Switch, 16, 200.0, 8, 700.0),
                     dim(DimKind::Switch, 8, 200.0, 4, 700.0),
                     dim(DimKind::Switch, 8, 400.0, 1, 1700.0)});
}

Topology
make3DFcRingSw()
{
    return Topology("3D-FC_Ring_SW",
                    {dim(DimKind::FullyConnected, 8, 200.0, 7, 700.0),
                     dim(DimKind::Ring, 16, 200.0, 4, 700.0),
                     dim(DimKind::Switch, 8, 400.0, 1, 1700.0)});
}

Topology
make4DRingSwSwSw()
{
    return Topology("4D-Ring_SW_SW_SW",
                    {dim(DimKind::Ring, 4, 1000.0, 2, 20.0),
                     dim(DimKind::Switch, 4, 200.0, 8, 700.0),
                     dim(DimKind::Switch, 8, 200.0, 4, 700.0),
                     dim(DimKind::Switch, 8, 400.0, 1, 1700.0)});
}

Topology
make4DRingFcRingSw()
{
    return Topology("4D-Ring_FC_Ring_SW",
                    {dim(DimKind::Ring, 4, 1500.0, 2, 20.0),
                     dim(DimKind::FullyConnected, 8, 200.0, 7, 700.0),
                     dim(DimKind::Ring, 4, 200.0, 6, 700.0),
                     dim(DimKind::Switch, 8, 800.0, 1, 1700.0)});
}

Topology
makeCurrent2D()
{
    return Topology("Current-2D",
                    {dim(DimKind::Switch, 16, 200.0, 6, 700.0),
                     dim(DimKind::Switch, 64, 100.0, 1, 1700.0)});
}

std::vector<Topology>
nextGenTopologies()
{
    return {make2DSwSw(),        make3DSwSwSwHomo(),
            make3DSwSwSwHetero(), make3DFcRingSw(),
            make4DRingSwSwSw(),  make4DRingFcRingSw()};
}

std::vector<Topology>
allTopologies()
{
    auto all = nextGenTopologies();
    all.insert(all.begin(), makeCurrent2D());
    return all;
}

Topology
idealTopology(const Topology& topo)
{
    return Topology(topo.name() + "-ideal",
                    {dim(DimKind::Switch, static_cast<int>(topo.totalNpus()),
                         bwToGbps(topo.totalBandwidth()), 1, 0.0)});
}

Topology
byName(const std::string& name)
{
    const std::string n = toLower(name);
    for (auto& t : allTopologies()) {
        if (toLower(t.name()) == n)
            return t;
    }
    THEMIS_FATAL("unknown topology preset '"
                 << name << "'; known: " << join(presetNames(), ", "));
}

std::vector<std::string>
presetNames()
{
    std::vector<std::string> names;
    for (const auto& t : allTopologies())
        names.push_back(t.name());
    return names;
}

} // namespace themis::presets
