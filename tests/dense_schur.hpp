// Dense Schur-complement oracle for the reduction tests: the exact port
// conductance matrix of an RC network, from a dense LU of its internal
// block.  O(n^3), so only for the small networks the tests build.
#pragma once

#include <vector>

#include "mor/elimination.hpp"

namespace snim::mor {

/// Dense port conductance matrix (Schur complement); row/col i corresponds
/// to ports[i].  Entry (i,j) is dI_i/dV_j with every other port grounded.
/// Ground row eliminated (standard grounded nodal matrix).
std::vector<std::vector<double>> dense_port_conductance(const RcNetwork& net,
                                                        const std::vector<int>& ports);

} // namespace snim::mor
