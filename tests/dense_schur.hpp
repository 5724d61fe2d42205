// Dense Schur-complement oracles for the reduction tests: the exact port
// conductance matrix of an RC network and its DC-lumped port capacitances,
// both from a dense LU of its internal block.  O(n^3), so only for the
// small networks the tests build.
#pragma once

#include <vector>

#include "mor/elimination.hpp"

namespace snim::mor {

/// Dense port conductance matrix (Schur complement); row/col i corresponds
/// to ports[i].  Entry (i,j) is dI_i/dV_j with every other port grounded.
/// Ground row eliminated (standard grounded nodal matrix).
std::vector<std::vector<double>> dense_port_conductance(const RcNetwork& net,
                                                        const std::vector<int>& ports);

/// Port capacitance matrix under first-order DC lumping with the influence
/// weights W = Gii^-1 (-Gip): ground caps on the diagonal, port-pair caps
/// off it (symmetric); row/col i corresponds to ports[i].
///   - port-ground and port-port caps are kept as they are;
///   - an internal node k's ground cap goes to port j's ground with weight
///     W(k,j);
///   - a cap between port p and internal node k goes to the pair (p,j) with
///     weight W(k,j) for j != p; the share W(k,p) is shorted, and
///     1 - sum_j W(k,j) goes to p's ground;
///   - an internal-internal cap is half-lumped onto each end's ground first.
std::vector<std::vector<double>> dense_port_capacitance(const RcNetwork& net,
                                                        const std::vector<int>& ports);

} // namespace snim::mor
