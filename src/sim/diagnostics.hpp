// Failure diagnosis bundles: when a solver engine gives up (Newton refuses
// to converge, an update goes NaN/Inf), it no longer dies with a one-line
// message — it writes a snim_diag_*.json bundle holding everything needed
// for a post-mortem and names the bundle path in the thrown snim::Error:
//
//   * the engine options in effect,
//   * the last-N per-step telemetry (Newton iterations, worst residual,
//     Newton clamp activations, LU pivot health) from a fixed-size ring,
//   * the unknowns with the largest final Newton update, by node name,
//   * the tail of every probed waveform recorded before the failure (the
//     partial result a non-converged transient used to discard),
//   * a snapshot of the obs registry (phase tree, counters, histograms).
//
// Bundle writing must never mask the original solver error: I/O failures
// degrade to "bundle unavailable" in the error message instead of throwing.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "obs/json.hpp"
#include "obs/provenance.hpp"
#include "sim/op.hpp"
#include "sim/transient.hpp"

namespace snim::sim {

/// Version of the snim_diag_*.json document layout.
/// v2: telemetry rows gained "dt", bundles gained "retry_history" /
/// "total_step_retries" (transient) and "rungs" (op).
/// v3: bundles gained "events" — the live event-journal tail (absent when
/// telemetry was off).
/// v4: telemetry rows gained the numerical-health certificate columns
/// "kcl_residual", "cert_omega", "cert_rcond" (-1 = site not audited).
inline constexpr int kDiagSchemaVersion = 4;

/// Telemetry of one solver step (a transient step attempt, a DC Newton
/// attempt, an AC frequency point).
struct StepTelemetry {
    long step = 0;            // 1-based attempt / iteration / point index
    double time = 0.0;        // abscissa: seconds, gmin level or frequency
    double dt = 0.0;          // step size of the attempt (transient only)
    int newton_iters = 0;     // Newton iterations spent on this step
    double residual = 0.0;    // final Newton update inf-norm (dv) [V]
    int worst_unknown = -1;   // unknown index with the largest final update
    int clamp_hits = 0;       // Newton clamp activations over the step
    double lu_min_pivot = 0.0;   // pivot health of the step's last solve
    double lu_fill_growth = 0.0; // nnz(L+U)/nnz(A) of the sparse factors
    bool converged = true;
    // Numerical-health certificate of the step, when the site was audited
    // (obs::kCertifyStride + obs enabled); -1 = not audited.
    double kcl_residual = -1.0; // worst per-node KCL current residual [A]
    double cert_omega = -1.0;   // componentwise backward error of the solve
    double cert_rcond = -1.0;   // reciprocal 1-norm condition estimate
};

/// One rejected transient step attempt: what failed and how dt backed off.
struct RetryEvent {
    long step = 0;        // nominal step being retried
    double time = 0.0;    // target time of the rejected attempt
    double dt_from = 0.0; // rejected attempt's step size
    double dt_to = 0.0;   // next attempt's step size
    int newton_iters = 0; // iterations burned by the rejected attempt
    std::string reason;   // "no_convergence" | "nonfinite_update" |
                          // "singular_system" | "fault_injected"
};

/// Fixed-capacity last-N ring of step telemetry.
class StepTelemetryRing {
public:
    explicit StepTelemetryRing(size_t capacity);

    void push(const StepTelemetry& t);
    size_t capacity() const { return buf_.size(); }
    /// Recorded telemetry, oldest to newest (at most capacity entries).
    std::vector<StepTelemetry> tail() const;

private:
    std::vector<StepTelemetry> buf_;
    size_t next_ = 0;
    uint64_t pushed_ = 0;
};

/// Everything a bundle serialises.
struct FailureDiagnosis {
    std::string engine;  // "transient" | "op" | "ac"
    std::string reason;  // "newton_no_convergence" | "nonfinite_update" | ...
    double fail_time = 0.0;
    long fail_step = -1;
    std::vector<StepTelemetry> telemetry;                    // oldest -> newest
    std::vector<std::pair<std::string, double>> worst_nodes; // name -> |dv|
    obs::JsonObject options;                                 // engine options
    /// Recorded waveform prefix of the failed run (nullptr when the engine
    /// has none); the writer keeps the last `wave_tail` samples per probe.
    const TranResult* partial = nullptr;
    size_t wave_tail = 256;
    /// Retry ladder history (transient): the last-N rejected attempts,
    /// oldest to newest, plus the run's total rejected-attempt count.
    std::vector<RetryEvent> retries;
    long total_retries = 0;
    /// Engine-specific extra top-level members (e.g. the op solver's
    /// per-rung ladder summary under "rungs"); merged into the document.
    obs::JsonObject extra;
};

/// Process-wide directory for the engines' bundles ("" means the current
/// directory).  The bench harness points this at --diag-dir.
void set_default_diag_dir(std::string dir);
const std::string& default_diag_dir();

/// The bundle document (schema_version, options, telemetry, worst nodes,
/// wave tails, obs registry snapshot).
obs::Json diagnosis_json(const FailureDiagnosis& d);

/// Serialises the bundle to `<dir>/snim_diag_<engine>_<run>_<seq>.json`
/// where `<run>` is the current manifest's run id (or a process-unique
/// token when no manifest is set) — parallel sweeps in separate processes
/// cannot collide, and O_EXCL creation guards the remaining window (dir
/// empty -> default_diag_dir() -> ".").  Returns the path, or an empty
/// string when writing failed — never throws.
std::string write_diagnosis_bundle(const FailureDiagnosis& d,
                                   const std::string& dir = {});

/// The `count` unknowns with the largest |dv|, named: node unknowns use
/// their netlist name, branch-current unknowns are "branch:<k>".  The
/// netlist must be finalized.
std::vector<std::pair<std::string, double>> worst_unknowns(
    const circuit::Netlist& netlist, const std::vector<double>& dv, size_t count);

/// Unknown index -> diagnostic name (node name or "branch:<k>"); -1 -> "".
std::string unknown_name(const circuit::Netlist& netlist, int index);

/// Feeds every TranOptions field but the operational checkpoint knobs into
/// a provenance config digest under "tran.*" names.  Any option change —
/// tolerance, integration order, recording window — changes the digest, so
/// artifacts from different configurations never compare as like-for-like.
void digest_options(obs::ConfigDigest& d, const TranOptions& opt);

/// Same for OpOptions under "op.*" names.
void digest_options(obs::ConfigDigest& d, const OpOptions& opt);

/// Validates every TranOptions field, raising an error that names the
/// offending field.  transient() calls this; it is exposed so callers can
/// vet options before an expensive model build.
void validate_tran_options(const TranOptions& opt);

/// Validates every OpOptions field the same way (max_iter >= 1, finite
/// tolerances, ...).  operating_point() calls this.
void validate_op_options(const OpOptions& opt);

} // namespace snim::sim
