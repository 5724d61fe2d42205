// DC operating point: a homotopy ladder of increasingly robust solvers.
//
// Rungs, tried in order until one converges:
//   1. "newton"  — damped Newton from all-zeros,
//   2. "gmin"    — gmin stepping: solve at a large node-to-ground gmin and
//                  continue the solution down to sim::kGmin,
//   3. "source"  — source stepping: ramp every independent source value
//                  from ~0 to 100% in 8 continuation points,
//   4. "ptran"   — pseudo-transient continuation: anchor every node through
//                  a conductance g to the previous pseudo-state (backward-
//                  Euler integration of artificial node capacitors) and
//                  relax g from 1 S toward 0 until plain Newton holds.
// No option skips a rung (tests veto one through the op.rung.<name> fault
// points), and the continuation schedules are constants in op.cpp
// (DESIGN.md §8).  Per-rung attempt/win counters land in the obs registry
// under sim/op/rung/<name>/..., and the failure bundle records the whole
// ladder.
#pragma once

#include <string>

#include "circuit/netlist.hpp"
#include "obs/certify.hpp"

namespace snim::sim {

/// Every rung ends at sim::kGmin; Newton clamps node updates of nonlinear
/// circuits to 0.5 V (a constant in op.cpp).  A failed operating point
/// writes a snim_diag_op_*.json bundle (per-iteration residual history,
/// worst nodes, LU pivot health, the rung ladder; sim/diagnostics.hpp) and
/// the thrown snim::Error names its path.
struct OpOptions {
    int max_iter = 300;
    double reltol = 1e-6;
    double vntol = 1e-9;   // absolute voltage tolerance [V]

    /// Per-solve certificate on the converged verification solve of each
    /// Newton run (backward error, condition estimate, counted refinement).
    /// Active only while the obs registry is enabled; every op solve is
    /// certified.
    obs::CertifyOptions certify;
};

/// The operating point plus how it was won.
struct OpResult {
    std::vector<double> x;        // node voltages then branch currents
    std::string rung;             // "newton" | "gmin" | "source" | "ptran"
    long newton_iters = 0;        // total Newton iterations over the ladder
};

/// Solves the DC operating point; returns the full unknown vector
/// (node voltages then branch currents).  Throws snim::Error once every
/// homotopy rung has failed.
std::vector<double> operating_point(circuit::Netlist& netlist, const OpOptions& opt = {});

/// As operating_point(), also reporting the winning rung and the total
/// Newton iteration count (the tests read these).
OpResult operating_point_ex(circuit::Netlist& netlist, const OpOptions& opt = {});

} // namespace snim::sim
