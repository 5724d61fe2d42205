#include "sim/mna.hpp"

#include <algorithm>

namespace snim::sim {

namespace {
template <class Stamper>
void add_gmin(const Netlist& netlist, Stamper& s, double gmin) {
    if (gmin <= 0) return;
    for (size_t i = 0; i < netlist.node_count(); ++i)
        s.entry(static_cast<NodeId>(i), static_cast<NodeId>(i), gmin);
}
} // namespace

void stamp_gmin(const Netlist& netlist, circuit::RealStamper& s) {
    add_gmin(netlist, s, kGmin);
}

void assemble_dc(const Netlist& netlist, circuit::RealStamper& s,
                 const std::vector<double>& x, double gmin, double source_scale) {
    s.set_source_scale(source_scale);
    for (const auto& d : netlist.devices())
        if (!d->disabled()) d->stamp_dc(s, x);
    s.set_source_scale(1.0);
    add_gmin(netlist, s, gmin);
}

void assemble_tran(const Netlist& netlist, circuit::RealStamper& s,
                   const std::vector<double>& x, const circuit::TranParams& tp) {
    s.set_source_scale(1.0);
    for (const auto& d : netlist.devices())
        if (!d->disabled()) d->stamp_tran(s, x, tp);
    add_gmin(netlist, s, kGmin);
}

void assemble_ac(const Netlist& netlist, circuit::ComplexStamper& s,
                 const std::vector<double>& xop, double omega,
                 const std::vector<const circuit::Device*>* exclude) {
    for (const auto& d : netlist.devices()) {
        if (d->disabled()) continue;
        if (exclude && std::find(exclude->begin(), exclude->end(), d.get()) !=
                           exclude->end())
            continue;
        d->stamp_ac(s, xop, omega);
    }
    add_gmin(netlist, s, kGmin);
}

} // namespace snim::sim
