// Textbook transient oracle for the engine tests: fixed step, a full
// `clear + assemble_tran` and a fresh SparseLU on every Newton iteration,
// each step seeded from the last accepted state, commit_tran on every
// device.  No incremental assembly, factor reuse, predictor or retry
// ladder, so it shares only the device stamps and the MNA assembly with
// sim::transient.
#pragma once

#include <string>
#include <vector>

#include "sim/transient.hpp"

namespace snim::sim {

/// Integrates `netlist` like transient() with the same step, integration
/// order, backward-Euler start-up, gmin, dv_max clamp, Newton convergence
/// test and recording grid (tstop, dt, order, be_startup_steps, gmin,
/// max_newton, reltol, vntol, dv_max, record_start; the other fields are
/// ignored).  Starts from operating_point() and raises
/// on the first step whose Newton iteration fails.
TranResult reference_transient(circuit::Netlist& netlist,
                               const std::vector<std::string>& probes,
                               const TranOptions& opt);

} // namespace snim::sim
