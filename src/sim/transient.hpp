// Transient analysis: fixed-grid trapezoidal (or backward-Euler) integration
// with per-step Newton iteration and convergence recovery.
//
// The recording grid is fixed and deliberate: spur measurement reads tones
// off the sampled waveform with windowed Goertzel sums, which wants uniform
// sampling; and an oscillator run at 3 GHz needs a stable, repeatable phase
// trajectory.  Convergence recovery therefore subdivides *within* the
// nominal grid: a step whose Newton iteration fails (stall, non-finite
// update, singular system) is rejected, the last accepted state is restored,
// and the step is retried at dt/2, dt/4, ... down to dt/4096 with a bounded
// retry budget; dt regrows by doubling — only on nominal-grid-aligned
// boundaries — after four consecutive accepted micro-steps.  Every nominal
// boundary is hit exactly, so recorded samples stay on the same uniform grid
// whether or not recovery fired.  The ladder's budgets are constants in
// transient.cpp (DESIGN.md §8).
//
// There is one engine (DESIGN.md §14): incremental assembly
// (sim::TranAssembler), a ReusableLU refreshed by partial refactorization
// of the nonlinear columns, a fresh solve on every Newton iteration, and
// each attempt seeded by the linear predictor
// x_acc + (dt/dt_prev) (x_acc - x_prev), which turns most steps from three
// Newton iterations into two.  The predictor's inputs are checkpointed, so
// a resumed run predicts bit-identically.
#pragma once

#include <string>

#include "circuit/netlist.hpp"
#include "obs/certify.hpp"
#include "sim/checkpoint.hpp"

namespace snim::sim {

/// Post-accept KCL conservation audit threshold: worst per-node current
/// residual |A(x) x - b(x)|_i over the node rows of the accepted system
/// [A].  Audited every obs::kCertifyStride-th accepted micro-step while
/// the obs registry is on, recorded as the sim/transient/kcl_residual
/// channel and the sim/kcl_worst_residual histogram, budgeted as stage
/// "sim/kcl".
inline constexpr double kKclMax = 1e-6;

/// Number of initial steps integrated with backward Euler to damp the
/// trapezoidal rule's startup ringing.
inline constexpr int kBeStartupSteps = 4;

/// A run starts from its operating point (solved at sim::kGmin, the
/// node-to-ground conductance every step also carries) or from its
/// checkpoint.  Each step's Newton iteration clamps node updates to 0.5 V
/// and gives up after 60 iterations (constants in transient.cpp).  A run
/// the retry ladder cannot rescue writes a snim_diag_transient_*.json
/// bundle (sim/diagnostics.hpp) and the thrown snim::Error names its path.
struct TranOptions {
    double tstop = 0.0;
    double dt = 0.0;
    int order = 2;          // 1 = backward Euler, 2 = trapezoidal
    double reltol = 1e-4;
    double vntol = 1e-6;
    /// Recording starts at this time (settle/startup skip); every nominal
    /// step from there on is recorded.
    double record_start = 0.0;
    /// Accumulate the time-average of the FULL unknown vector over the
    /// recorded window (quasi-DC levels during oscillation).
    bool accumulate_average = false;

    /// Per-solve certificates on accepted steps (backward error, condition
    /// estimate, counted iterative refinement) and the KCL audit, every
    /// obs::kCertifyStride-th accepted micro-step while the obs registry is
    /// enabled.
    obs::CertifyOptions certify;

    // --- checkpoint/restart ---------------------------------------------
    /// Crash-consistent solver-state snapshots and digest-guarded resume
    /// (see sim/checkpoint.hpp).  All knobs are operational — excluded from
    /// the config digest — so a resumed run matches the digest of the run
    /// that wrote the snapshot.  When `checkpoint.dir` is empty the
    /// process-wide policy installed by set_default_checkpoint() applies
    /// (with this struct's `tag` naming the call site).
    CheckpointOptions checkpoint;
};

struct TranResult {
    std::vector<double> time;
    std::vector<std::string> probe_names;
    std::vector<std::vector<double>> waves; // waves[p][k], p indexes probes
    double dt_sample = 0.0;                 // the nominal dt
    /// Mean of every unknown over the recorded window (when requested).
    std::vector<double> average;
    /// Rejected step attempts recovered by the retry ladder (0 on a clean
    /// run; also mirrored in the obs counter sim/transient/step_retries).
    long step_retries = 0;

    const std::vector<double>& wave(const std::string& probe) const;
};

/// Integrates the netlist to `tstop`, recording the named probe nodes.
/// Newton failures are retried with the dt-backoff ladder; snim::Error is
/// thrown only once the ladder's retry budget or its dt/4096 floor is
/// exhausted.
TranResult transient(circuit::Netlist& netlist, const std::vector<std::string>& probes,
                     const TranOptions& opt);

/// transient() with checkpoint.resume forced on: continues from the last
/// intact snapshot in opt.checkpoint.dir (or the process-default checkpoint
/// dir), bit-identical to the uninterrupted run.  Raises when no checkpoint
/// dir is configured anywhere, or when the snapshot's config digest does
/// not match `opt`.
TranResult resume_transient(circuit::Netlist& netlist,
                            const std::vector<std::string>& probes,
                            const TranOptions& opt);

} // namespace snim::sim
