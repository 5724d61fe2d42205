// Interconnect extractor: the paper's key addition to the classical flow.
// Produces a resistive + capacitive model of the on-chip wiring so that
// substrate noise coupling INTO the interconnect (and the voltage drop over
// its parasitic resistance) is part of the impact simulation.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "layout/connectivity.hpp"
#include "layout/layout.hpp"
#include "tech/technology.hpp"

namespace snim::interconnect {

/// A point where the schematic (device terminal, pad, probe) attaches to
/// the wiring.  The extractor guarantees a node with exactly `node_name`
/// exists in the produced netlist at this location.
struct WirePin {
    std::string node_name;
    std::string layer;
    geom::Point at;
};

struct ExtractOptions {
    /// Extract wire resistance (false models ideal interconnect -- the
    /// classical-flow ablation of the paper).
    bool extract_resistance = true;
    /// Maps a wire segment footprint + net name to the circuit node that
    /// represents the local substrate surface (capacitive coupling target).
    /// Null -> couple to ground (the classical simplification).
    std::function<std::string(const geom::Rect&, const std::string& net)> substrate_node;
};

struct NetStats {
    std::string name;
    double resistance_squares = 0.0; // total drawn squares over all segments
    double capacitance_total = 0.0;  // F
    size_t segment_count = 0;
};

struct InterconnectModel {
    circuit::Netlist netlist;
    std::vector<NetStats> stats;
    double extract_seconds = 0.0;

    const NetStats* stats_for(const std::string& net) const;
};

/// Runs the extraction over flattened shapes with known connectivity.
InterconnectModel extract_interconnect(const std::vector<layout::Shape>& shapes,
                                       const layout::ExtractedNets& nets,
                                       const tech::Technology& tech,
                                       const std::vector<WirePin>& pins,
                                       const ExtractOptions& opt = {});

} // namespace snim::interconnect
