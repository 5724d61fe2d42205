#include "circuit/spice_writer.hpp"

namespace snim::circuit {

std::string write_spice(const Netlist& netlist, const std::string& title) {
    // The first line of a SPICE deck is always the title.
    std::string out = (title.empty() ? "* snim netlist" : title) + "\n";
    const NodeNamer nn = [&](NodeId id) { return netlist.node_name(id); };
    for (const auto& d : netlist.devices()) {
        out += d->card(nn);
        out += '\n';
    }
    out += ".end\n";
    return out;
}

} // namespace snim::circuit
