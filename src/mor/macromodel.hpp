// Macromodel instantiation: converts a reduced RcNetwork into circuit
// devices (resistors/capacitors) wired to named circuit nodes.
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "mor/elimination.hpp"

namespace snim::mor {

/// Instantiates `net` into `target`.  `port_nodes[i]` names the circuit node
/// for the network's node i (after reduction, node i is the i-th port).
/// `prefix` namespaces the generated device names; non-port internal nodes
/// (if the network was not reduced) get fresh node names under the prefix.
/// Conductances below 1 nS and capacitances below 1 aF are skipped to keep
/// the stitched netlist small.
void instantiate(const RcNetwork& net, circuit::Netlist& target,
                 const std::vector<std::string>& port_nodes, const std::string& prefix);

/// Total capacitance of the network (for conservation checks).
double total_capacitance(const RcNetwork& net);

} // namespace snim::mor
