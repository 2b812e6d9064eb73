#include "topology/parse.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace themis {

namespace {

DimensionConfig
parseDimension(const std::string& field)
{
    auto parts = split(field, ':');
    if (parts.size() < 3)
        THEMIS_FATAL("dimension '" << field
                                   << "' needs kind:size:bw at least");

    DimensionConfig d;
    d.kind = dimKindFromName(parts[0]);
    d.size = parseInt(parts[1], "dimension size");

    // Bandwidth with an optional 'x<links>' suffix.
    const std::string& bw_field = parts[2];
    const auto x = bw_field.find('x');
    if (x == std::string::npos) {
        d.link_bw_gbps = parseNumber(bw_field, "bandwidth");
        d.links_per_npu = 1;
    } else {
        d.link_bw_gbps =
            parseNumber(bw_field.substr(0, x), "bandwidth");
        d.links_per_npu =
            parseInt(bw_field.substr(x + 1), "links per NPU");
    }
    if (d.link_bw_gbps <= 0.0)
        THEMIS_FATAL("field 'bandwidth': must be positive, got '"
                     << bw_field << "'");

    d.step_latency_ns = 700.0;
    std::size_t next = 3;
    if (next < parts.size() && toLower(parts[next]) != "offload") {
        d.step_latency_ns = parseNumber(parts[next], "step latency");
        ++next;
    }
    if (next < parts.size()) {
        if (toLower(parts[next]) != "offload")
            THEMIS_FATAL("unexpected dimension attribute '"
                         << parts[next] << "'");
        d.in_network_offload = true;
        ++next;
    }
    if (next != parts.size())
        THEMIS_FATAL("too many fields in dimension '" << field << "'");
    d.validate();
    return d;
}

} // namespace

Topology
parseTopology(const std::string& name, const std::string& spec)
{
    if (spec.empty())
        THEMIS_FATAL("empty topology specification");
    std::vector<DimensionConfig> dims;
    const auto fields = split(spec, ',');
    for (std::size_t i = 0; i < fields.size(); ++i) {
        try {
            dims.push_back(parseDimension(fields[i]));
        } catch (const ConfigError& e) {
            THEMIS_FATAL("topology dimension " << i << " ('"
                                               << fields[i]
                                               << "'): " << e.what());
        }
    }
    return Topology(name, std::move(dims));
}

std::string
topologySpec(const Topology& topo)
{
    std::ostringstream oss;
    for (int i = 0; i < topo.numDims(); ++i) {
        const auto& d = topo.dim(i);
        if (i > 0)
            oss << ",";
        oss << dimKindName(d.kind) << ":" << d.size << ":"
            << fmtDouble(d.link_bw_gbps, 0);
        if (d.links_per_npu != 1)
            oss << "x" << d.links_per_npu;
        oss << ":" << fmtDouble(d.step_latency_ns, 0);
        if (d.in_network_offload)
            oss << ":offload";
    }
    return oss.str();
}

} // namespace themis
