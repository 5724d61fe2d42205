#include "sim/transient.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>

#include "numeric/certify.hpp"
#include "numeric/sparse_lu.hpp"
#include "obs/events.hpp"
#include "obs/progress.hpp"
#include "obs/provenance.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/assembly.hpp"
#include "sim/diagnostics.hpp"
#include "sim/op.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace snim::sim {

const std::vector<double>& TranResult::wave(const std::string& probe) const {
    for (size_t i = 0; i < probe_names.size(); ++i)
        if (probe_names[i] == probe) return waves[i];
    raise("no probe named '%s'", probe.c_str());
}

namespace {

/// Newton iterations allowed per step attempt.
constexpr int kMaxNewton = 60;
/// Newton step clamp on node voltages [V].
constexpr double kDvMax = 0.5;

// The retry ladder's policy (DESIGN.md §8) and the bundle's capacities.
/// The dt backoff ladder subdivides the nominal grid by powers of two: at
/// `level`, micro-steps are dt / 2^level and a nominal step is 2^level
/// micro-positions wide.  The deepest level reaches dt / 2^12 = dt / 4096.
constexpr int kMaxLevel = 12;
/// Rejected attempts allowed per nominal step before the run gives up and
/// writes the diagnosis bundle.  A step that fails at every level hits
/// kMaxLevel after 12 rejections; this bounds steps that regrow and fail
/// again.
constexpr int kMaxStepRetries = 16;
/// Consecutive accepted micro-steps required before dt may double back
/// toward the nominal dt.
constexpr int kDtRecoveryAccepts = 4;
/// Last-N retry events kept for the diagnosis bundle.
constexpr size_t kRetryHistory = 64;
/// Last-N steps of telemetry kept for the bundle.
constexpr size_t kDiagTail = 64;
/// Samples of each probed waveform kept in the bundle (the recorded
/// prefix's tail).
constexpr size_t kDiagWaveTail = 256;

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Phase kRunPhase("sim/transient");
const obs::Phase kStepPhase("sim/transient/step");
const obs::Phase kBeginAttemptPhase("sim/transient/begin_attempt");
const obs::Phase kNewtonPhase("sim/transient/newton");
const obs::Phase kAssemblePhase("sim/transient/newton/assemble");
const obs::Phase kSolvePhase("sim/transient/newton/solve");
const obs::Phase kCertifyPhase("sim/transient/certify");
const obs::Counter kStepsCount("sim/transient/steps");
const obs::Counter kConvergenceFailures("sim/transient/convergence_failures");
const obs::Counter kStepRetries("sim/transient/step_retries");
const obs::Counter kCkptResumes("sim/ckpt_resumes");
const obs::Counter kCkptWrites("sim/ckpt_writes");
const obs::Counter kCkptBytes("sim/ckpt_bytes");
const obs::Counter kCkptWriteFailures("sim/ckpt_write_failures");
const obs::Value kNewtonPerStep("sim/transient/newton_per_step");
const obs::Value kKclWorst("sim/kcl_worst_residual");
const obs::Value kSlowStep("sim/transient/slow_step_s");
const obs::Channel kKclChannel("sim/transient/kcl_residual", "A");
const obs::Channel kNewtonItersChannel("sim/transient/newton_iters", "iters");
const obs::Channel kResidualChannel("sim/transient/residual", "V");
const obs::Channel kClampHitsChannel("sim/transient/clamp_hits", "1");
const obs::Channel kMinPivotChannel("sim/transient/lu_min_pivot", "1");
const obs::Channel kFillGrowthChannel("sim/transient/lu_fill_growth", "x");
const obs::Channel kDtChannel("sim/transient/dt", "s");
const obs::CertSite kCertSite("transient");
const obs::BudgetStage kKclStage("sim/kcl");

/// Serialised into the failure bundle so a post-mortem sees the exact
/// solver configuration: every field the config digest covers.
obs::JsonObject tran_options_json(const TranOptions& opt) {
    obs::JsonObject o;
    o.emplace("tstop", opt.tstop);
    o.emplace("dt", opt.dt);
    o.emplace("order", opt.order);
    o.emplace("reltol", opt.reltol);
    o.emplace("vntol", opt.vntol);
    o.emplace("record_start", opt.record_start);
    o.emplace("accumulate_average", opt.accumulate_average);
    o.emplace("certify_rcond_min", opt.certify.rcond_min);
    return o;
}

/// Post-accept KCL conservation audit: the worst per-node current-sum
/// residual |A x - b|_i over the node rows of the freshly assembled system
/// at the accepted solution.  In MNA companion form that residual IS the
/// net device current left sitting on the node, so a healthy accepted step
/// reads near the Newton tolerance and a drifting charge model reads hot.
/// Returns the worst residual and its node index through the out-params;
/// `ax` is the caller's reusable A x buffer.
void kcl_audit(const circuit::Netlist& netlist, const SparseCSC<double>& a,
               const std::vector<double>& b, const std::vector<double>& x,
               std::vector<double>& ax, double& worst, int& worst_node) {
    a.multiply_into(x, ax);
    worst = 0.0;
    worst_node = -1;
    for (size_t i = 0; i < netlist.node_count(); ++i) {
        const double r = std::fabs(ax[i] - b[i]);
        if (!(r <= worst)) { // NaN ranks worst
            worst = std::isfinite(r) ? r : std::numeric_limits<double>::infinity();
            worst_node = static_cast<int>(i);
        }
    }
}

/// Bounded FIFO of retry events for the diagnosis bundle.
class RetryLog {
public:
    void push(RetryEvent e) {
        if (events_.size() == kRetryHistory) events_.erase(events_.begin());
        events_.push_back(std::move(e));
        ++total_;
    }
    const std::vector<RetryEvent>& events() const { return events_; }
    long total() const { return total_; }

private:
    std::vector<RetryEvent> events_;
    long total_ = 0;
};

[[noreturn]] void fail_transient(const circuit::Netlist& netlist,
                                 const TranOptions& opt, const TranResult& partial,
                                 const StepTelemetryRing& ring,
                                 const std::vector<double>& last_dx,
                                 const RetryLog& retries, const char* reason,
                                 long step, long nsteps, double time) {
    std::string bundle;
    std::string worst;
    if (!last_dx.empty()) {
        const auto nodes = worst_unknowns(netlist, last_dx, 5);
        if (!nodes.empty())
            worst = format("; worst node '%s' (dv=%.3g)", nodes.front().first.c_str(),
                           nodes.front().second);
        FailureDiagnosis d;
        d.engine = "transient";
        d.reason = reason;
        d.fail_time = time;
        d.fail_step = step;
        d.telemetry = ring.tail();
        d.worst_nodes = nodes;
        d.options = tran_options_json(opt);
        d.partial = &partial;
        d.wave_tail = kDiagWaveTail;
        d.retries = retries.events();
        d.total_retries = retries.total();
        bundle = write_diagnosis_bundle(d);
    }
    std::string retried;
    if (retries.total() > 0)
        retried = format(" after %ld rejected attempts", retries.total());
    raise("transient Newton %s at t=%.4g (step %ld of %ld, dt=%.3g, %zu samples "
          "recorded)%s%s%s%s",
          reason, time, step, nsteps, opt.dt, partial.time.size(), retried.c_str(),
          worst.c_str(), bundle.empty() ? "" : "; diagnosis bundle: ",
          bundle.empty() ? "" : bundle.c_str());
}

/// Why one step attempt was rejected.
enum class Reject { none, no_convergence, nonfinite, singular };

const char* reject_name(Reject r) {
    switch (r) {
        case Reject::no_convergence: return "no_convergence";
        case Reject::nonfinite: return "nonfinite_update";
        case Reject::singular: return "singular_system";
        default: return "none";
    }
}

/// Merges the per-run checkpoint knobs with the process-default policy and
/// fills the cadence/tag defaults.  Returned dir empty <=> checkpointing
/// off for this run.
CheckpointOptions resolve_checkpoint(const TranOptions& opt) {
    CheckpointOptions c = opt.checkpoint;
    if (c.dir.empty()) {
        const CheckpointOptions& def = default_checkpoint();
        if (def.dir.empty()) {
            if (c.resume)
                raise("transient: checkpoint.resume requested but no "
                      "checkpoint dir is configured (set checkpoint.dir or "
                      "sim::set_default_checkpoint)");
            return c;
        }
        c.dir = def.dir;
        if (c.every_steps <= 0) c.every_steps = def.every_steps;
        if (c.every_s <= 0.0) c.every_s = def.every_s;
        c.resume = c.resume || def.resume;
        if (c.tag.empty()) c.tag = def.tag;
    }
    if (c.every_steps <= 0 && c.every_s <= 0.0) c.every_s = 5.0;
    if (c.tag.empty()) c.tag = "tran";
    return c;
}

/// Resume-time consistency checks beyond the config digest: the snapshot
/// must describe THIS netlist and probe set, under the same RNG seed.
void validate_resume(const TranCheckpoint& c, size_t n,
                     const std::vector<std::string>& probes,
                     const std::string& path) {
    if (c.x_acc.size() != n || c.x_prev.size() != n)
        raise("checkpoint '%s' holds %zu unknowns but the netlist has %zu — "
              "refusing to resume",
              path.c_str(), c.x_acc.size(), n);
    if (c.probe_names != probes || c.waves.size() != probes.size())
        raise("checkpoint '%s' was recorded with different probes — refusing "
              "to resume",
              path.c_str());
    const uint64_t seed = default_rng_seed();
    if (c.rng_seed != seed)
        raise("checkpoint '%s' was written under RNG seed %llu but the "
              "current seed is %llu — refusing to resume",
              path.c_str(), static_cast<unsigned long long>(c.rng_seed),
              static_cast<unsigned long long>(seed));
}

} // namespace

TranResult transient(circuit::Netlist& netlist, const std::vector<std::string>& probes,
                     const TranOptions& opt) {
    validate_tran_options(opt);
    obs::ScopedTimer obs_run(kRunPhase, obs::Timing::WhenEnabled, obs::Rss::Track);
    netlist.finalize();
    const size_t n = netlist.unknown_count();

    // Checkpoint policy + resume load happen BEFORE the operating point:
    // a resumed run restores the accepted state instead of re-solving DC.
    const CheckpointOptions cko = resolve_checkpoint(opt);
    const bool ckpt_on = !cko.dir.empty();
    uint64_t ckpt_digest = 0;
    std::string ckpt_file;
    std::optional<TranCheckpoint> res;
    if (ckpt_on) {
        obs::ConfigDigest cd;
        digest_options(cd, opt);
        ckpt_digest = cd.value64();
        ckpt_file = checkpoint_path(cko.dir, cko.tag);
        if (cko.resume) {
            res = load_checkpoint(ckpt_file, ckpt_digest);
            if (res) validate_resume(*res, n, probes, ckpt_file);
        }
    }
    const bool resuming = res.has_value();

    std::vector<double> x;
    if (resuming) {
        x = res->x_acc;
    } else {
        OpOptions oo;
        // The embedded op inherits the transient's certificate policy so a
        // caller that relaxes thresholds (ablation runs) relaxes both solves.
        oo.certify = opt.certify;
        x = operating_point(netlist, oo);
    }

    if (resuming) {
        // Device state comes from the snapshot, NOT init_tran — the restored
        // values must reproduce the killed run bit-for-bit.
        size_t pos = 0;
        for (const auto& d : netlist.devices()) d->load_tran_state(res->device_state, pos);
        if (pos != res->device_state.size())
            raise("checkpoint '%s' carries %zu device-state values but this "
                  "netlist consumed %zu — refusing to resume",
                  ckpt_file.c_str(), res->device_state.size(), pos);
    } else {
        for (const auto& d : netlist.devices()) d->init_tran(x);
    }

    TranResult out;
    out.probe_names = probes;
    out.waves.resize(probes.size());
    out.dt_sample = opt.dt;
    std::vector<circuit::NodeId> probe_ids;
    probe_ids.reserve(probes.size());
    for (const auto& p : probes) probe_ids.push_back(netlist.existing_node(p));

    const long nsteps = static_cast<long>(std::ceil(opt.tstop / opt.dt));
    // Reserved up front, up to 2^20 samples per wave; a longer record grows
    // as it is written instead of allocating its whole length at once.
    constexpr double kMaxReserve = 1 << 20;
    const size_t est = static_cast<size_t>(std::min(
        std::max(0.0, (opt.tstop - opt.record_start) / out.dt_sample), kMaxReserve)) + 2;
    out.time.reserve(est);
    for (auto& w : out.waves) w.reserve(est);

    circuit::RealStamper s(n);
    std::vector<double> x_acc = x;       // last accepted (committed) state
    std::vector<double> x_prev = x;      // accepted state one micro-step back
    std::vector<double> xit = x;         // Newton iterate of the attempt
    std::vector<double> last_dx(n, 0.0); // per-unknown update of the last iteration
    std::vector<double> xn;              // tentative Newton iterate
    std::vector<double> lu_tmp;          // solve_into scratch
    std::vector<double> kcl_ax;          // kcl_audit scratch
    StepTelemetryRing ring(kDiagTail);
    RetryLog retries;
    if (opt.accumulate_average) out.average.assign(n, 0.0);
    if (resuming) {
        // Replay the recorded prefix and the accumulator state; `average`
        // holds RAW sums until the final divide.
        x_prev = res->x_prev;
        if (opt.accumulate_average) out.average = res->average;
        out.time = res->time;
        out.waves = res->waves;
        out.step_retries = static_cast<long>(res->step_retries);
    }

    // One symbolic analysis + pivot sequence computed on the first
    // iteration, then numeric-only refactors fed by the assembler: the
    // linear baseline is restored and only the nonlinear devices re-stamp.
    s.enable_compiled_assembly();
    TranAssembler assembler(netlist, s);
    ReusableLU<double> rlu;

    long attempt_no = 0;       // global step-attempt counter (telemetry "step")
    long be_steps_done = 0;    // accepted steps integrated with BE so far
    int level = 0;             // current subdivision depth (0 = nominal dt)
    int consecutive_accepts = 0;
    double dt_prev = 0.0;      // accepted step before the current one
    if (resuming) {
        attempt_no = static_cast<long>(res->attempt_no);
        be_steps_done = static_cast<long>(res->be_steps_done);
        level = static_cast<int>(res->level);
        consecutive_accepts = static_cast<int>(res->consecutive_accepts);
        dt_prev = res->dt_prev;
    }

    // Live progress over the nominal grid (heartbeats/ETA); inert unless
    // the event journal or a heartbeat observer is active.
    obs::ProgressScope progress("sim/transient", static_cast<uint64_t>(nsteps));

    const long start_step = resuming ? static_cast<long>(res->step) + 1 : 1;
    if (resuming) {
        if (res->step > nsteps)
            raise("checkpoint '%s' is %lld steps in but this run has only %ld "
                  "— refusing to resume",
                  ckpt_file.c_str(), static_cast<long long>(res->step), nsteps);
        // The ledger merge is monotone, so restoring a later state of the
        // same execution path reproduces the uninterrupted ledger exactly.
        obs::budget_restore(res->budget);
        obs::count(kCkptResumes);
        obs::event(obs::EventLevel::Info, "ckpt", "ckpt_resume",
                   {{"path", ckpt_file},
                    {"step", static_cast<long>(res->step)},
                    {"of", nsteps},
                    {"samples", static_cast<uint64_t>(out.time.size())}});
        log_info("transient: resumed from '%s' at step %lld of %ld (%zu "
                 "samples replayed)",
                 ckpt_file.c_str(), static_cast<long long>(res->step), nsteps,
                 out.time.size());
        progress.advance(static_cast<uint64_t>(res->step));
    }

    // Snapshot machinery: writing copies state, never mutates it, so the
    // cadence (wall-clock included) cannot change numeric results.
    auto ckpt_last_write = std::chrono::steady_clock::now();
    auto write_snapshot = [&](long steps_done) {
        TranCheckpoint c;
        c.config_digest = ckpt_digest;
        c.rng_seed = default_rng_seed();
        c.step = steps_done;
        c.attempt_no = attempt_no;
        c.be_steps_done = be_steps_done;
        c.level = level;
        c.consecutive_accepts = consecutive_accepts;
        c.step_retries = out.step_retries;
        c.dt_prev = dt_prev;
        c.x_acc = x_acc;
        c.x_prev = x_prev;
        for (const auto& d : netlist.devices()) d->save_tran_state(c.device_state);
        c.average = out.average;
        c.probe_names = out.probe_names;
        c.time = out.time;
        c.waves = out.waves;
        c.budget = obs::budget_state();
        try {
            const size_t bytes = write_checkpoint(ckpt_file, c);
            obs::count(kCkptWrites);
            obs::count(kCkptBytes, bytes);
            obs::event(obs::EventLevel::Info, "ckpt", "ckpt_write",
                       {{"path", ckpt_file},
                        {"step", steps_done},
                        {"of", nsteps},
                        {"bytes", static_cast<uint64_t>(bytes)}});
        } catch (const Error& e) {
            // A failed snapshot must never kill the run: the last-good pair
            // stays on disk and integration continues.
            obs::count(kCkptWriteFailures);
            obs::event(obs::EventLevel::Warn, "ckpt", "ckpt_write_failed",
                       {{"path", ckpt_file},
                        {"step", steps_done},
                        {"error", e.what()}});
            log_warn("transient: checkpoint write failed (%s); continuing on "
                     "the last good snapshot",
                     e.what());
        }
        ckpt_last_write = std::chrono::steady_clock::now();
    };

    for (long step = start_step; step <= nsteps; ++step) {
        // Position within the nominal step in units of dt / 2^level.  The
        // step completes when k reaches 2^level; regrowth halves both the
        // numerator and the denominator, so alignment is exact.
        long k = 0;
        int step_retries = 0;
        const double t_base = static_cast<double>(step - 1) * opt.dt;

        while (k < (1L << level)) {
            const double dt_cur = opt.dt / static_cast<double>(1L << level);
            circuit::TranParams tp;
            tp.dt = dt_cur;
            // The last micro-step lands on the nominal boundary *exactly*
            // (computed as step * dt, not t_base + k * dt_cur) so source
            // evaluation and recording stay bit-identical to the fixed-step
            // loop whenever no retry fired.
            tp.time = (k + 1 == (1L << level))
                          ? static_cast<double>(step) * opt.dt
                          : t_base + static_cast<double>(k + 1) * dt_cur;
            tp.order = (be_steps_done < kBeStartupSteps) ? 1 : opt.order;

            obs::ScopedTimer obs_step(kStepPhase);

            // Newton iteration, starting from the linear predictor once
            // there is a step to extrapolate from; it starts close enough
            // that most steps converge in two quadratic iterations instead
            // of three.  x_acc, x_prev and dt_prev are
            // all checkpointed, so a resumed run predicts the exact same
            // starting iterate.
            StepTelemetry tel;
            tel.step = ++attempt_no;
            tel.time = tp.time;
            tel.dt = dt_cur;
            Reject reject = Reject::none;
            bool converged = false;
            double max_dx = 0.0;
            if (dt_prev > 0.0) {
                const double r = dt_cur / dt_prev;
                for (size_t i = 0; i < n; ++i)
                    xit[i] = x_acc[i] + r * (x_acc[i] - x_prev[i]);
            } else {
                xit = x_acc;
            }
            {
                obs::ScopedTimer obs_ba(kBeginAttemptPhase);
                assembler.begin_attempt(xit, tp);
            }
            for (int it = 0; it < kMaxNewton; ++it) {
                obs::ScopedTimer obs_newton(kNewtonPhase);
                tel.newton_iters = it + 1;
                {
                    obs::ScopedTimer obs_asm(kAssemblePhase);
                    assembler.assemble(xit, tp);
                }
                // Outside the nonlinear columns the matrix is the
                // assembler's cached linear image, so factors taken under
                // the same (dt bits, order, epoch) key — a relearn bumps the
                // epoch — are refreshed by a partial refactorization of just
                // those columns' elimination closure.  order >= 1 keeps the
                // key nonzero, which is what arms the partial path.
                ReusableLU<double>::RefactorHint hint;
                if (assembler.learned()) {
                    std::memcpy(&hint.key[0], &tp.dt, sizeof(hint.key[0]));
                    hint.key[1] = static_cast<std::uint64_t>(tp.order);
                    hint.key[2] = assembler.epoch();
                    hint.changed_cols = &assembler.nonlinear_cols();
                }
                try {
                    obs::ScopedTimer obs_solve(kSolvePhase);
                    if (fault::fires("tran.lu.singular"))
                        raise("fault injected: tran.lu.singular");
                    rlu.factor(s.csc(), hint);
                    rlu.lu().solve_into(s.rhs(), xn, lu_tmp);
                    tel.lu_min_pivot = rlu.factor_stats().min_pivot;
                    tel.lu_fill_growth = rlu.factor_stats().fill_growth;
                } catch (const Error&) {
                    reject = Reject::singular;
                    break;
                }
                int clamp_hits = 0;
                bool nonfinite = false;
                auto eval_update = [&](const std::vector<double>& cand) {
                    max_dx = 0.0;
                    tel.worst_unknown = -1;
                    clamp_hits = 0;
                    nonfinite = false;
                    for (size_t i = 0; i < n; ++i) {
                        double dx = cand[i] - xit[i];
                        // A NaN never wins a '>' comparison, so test
                        // finiteness explicitly — a poisoned update must
                        // trip the recovery ladder, not silently spin until
                        // kMaxNewton runs out.
                        if (!std::isfinite(dx)) nonfinite = true;
                        if (i < netlist.node_count()) {
                            const double clamped = std::clamp(dx, -kDvMax, kDvMax);
                            if (clamped != dx) ++clamp_hits;
                            dx = clamped;
                        }
                        last_dx[i] = dx;
                        if (std::fabs(dx) > max_dx) {
                            max_dx = std::fabs(dx);
                            tel.worst_unknown = static_cast<int>(i);
                        }
                    }
                };
                eval_update(xn);
                // The fault simulates a non-finite update, which must reach
                // the retry ladder.
                if (fault::fires("tran.newton.nonfinite")) {
                    xn[0] = std::numeric_limits<double>::quiet_NaN();
                    eval_update(xn);
                }
                tel.clamp_hits += clamp_hits;
                // Apply the update and compute ||xit||_inf in one pass (max
                // is order-independent, so this matches norm_inf).
                double xit_norm = 0.0;
                for (size_t i = 0; i < n; ++i) {
                    xit[i] += last_dx[i];
                    xit_norm = std::max(xit_norm, std::fabs(xit[i]));
                }
                if (nonfinite) {
                    reject = Reject::nonfinite;
                    break;
                }
                if (max_dx < opt.vntol + opt.reltol * xit_norm) {
                    converged = true;
                    break;
                }
            }
            if (converged && fault::fires("tran.step.fail")) {
                converged = false;
                reject = Reject::no_convergence;
            }
            if (!converged && reject == Reject::none) reject = Reject::no_convergence;
            tel.residual = max_dx;
            tel.converged = converged;

            // Numerical-health audit of accepted attempts, every
            // kCertifyStride-th accepted micro-step (be_steps_done counts
            // accepts, so the gate is deterministic).  The certificate covers
            // the final Newton solve whose system is still in the stamper —
            // refinement (if it fires) lands before the commit.  Entirely
            // obs-gated: an unobserved run does no extra work.
            if (converged && obs::enabled() &&
                be_steps_done % obs::kCertifyStride == 0) {
                obs::ScopedTimer obs_cert(kCertifyPhase);
                const obs::SolveCertificate cert =
                    certify_solve(rlu.lu(), s.csc(), xit, s.rhs(), opt.certify);
                tel.cert_omega = cert.omega;
                tel.cert_rcond = cert.rcond;
                obs::record_certificate(kCertSite, cert, opt.certify);

                // Conservation audit at the (possibly refined) accepted
                // solution: re-assemble there and read the node-row residual.
                assembler.assemble(xit, tp);
                double kcl = 0.0;
                int kcl_node = -1;
                kcl_audit(netlist, s.csc(), s.rhs(), xit, kcl_ax, kcl, kcl_node);
                tel.kcl_residual = kcl;
                obs::ts_append(kKclChannel, tp.time, kcl);
                obs::record_value(kKclWorst, kcl);
                obs::budget_update_lazy(kKclStage, kcl, kKclMax, "A",
                                        /*higher_is_worse=*/true,
                                        [&] { return unknown_name(netlist, kcl_node); });
            }
            ring.push(tel);
            // A fired slow-step fault marks the attempt as pathologically
            // slow in the health lanes (queried unconditionally so firing
            // positions don't depend on whether the registry is on) and
            // actually stalls the thread, so watchdog tests can induce a
            // real hang.  Sleeping cannot change numeric results.
            if (fault::fires("tran.slow_step")) {
                obs::record_value(kSlowStep, 1.0);
                const double stall_s = fault::slow_step_seconds();
                if (stall_s > 0.0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(stall_s));
            }
            if (obs::enabled()) {
                obs::count(kStepsCount);
                obs::record_value(kNewtonPerStep, tel.newton_iters);
                if (!converged) obs::count(kConvergenceFailures);
                // Solver-health time-series: the per-step view of how hard
                // the engine worked, exported to VCD and Perfetto lanes.
                obs::ts_append(kNewtonItersChannel, tp.time, tel.newton_iters);
                obs::ts_append(kResidualChannel, tp.time,
                               std::isfinite(max_dx) ? max_dx : 0.0);
                obs::ts_append(kClampHitsChannel, tp.time, tel.clamp_hits);
                obs::ts_append(kMinPivotChannel, tp.time, tel.lu_min_pivot);
                obs::ts_append(kFillGrowthChannel, tp.time, tel.lu_fill_growth);
                obs::ts_append(kDtChannel, tp.time, dt_cur);
            }

            if (!converged) {
                // Reject the attempt.  Device state only advances in
                // commit_tran, so restoring the iterate to the last accepted
                // solution is the entire rollback.
                const bool can_halve =
                    level < kMaxLevel && step_retries < kMaxStepRetries;
                if (!can_halve) {
                    // Budget exhausted: report the failure against the
                    // nominal grid the caller knows.
                    const char* why =
                        reject == Reject::nonfinite ? "produced a non-finite update"
                        : reject == Reject::singular ? "hit a singular system"
                                                     : "did not converge";
                    fail_transient(netlist, opt, out, ring, last_dx, retries, why,
                                   step, nsteps,
                                   static_cast<double>(step) * opt.dt);
                }
                RetryEvent ev;
                ev.step = step;
                ev.time = tp.time;
                ev.dt_from = dt_cur;
                ev.dt_to = dt_cur / 2.0;
                ev.newton_iters = tel.newton_iters;
                ev.reason = reject_name(reject);
                retries.push(ev);
                ++out.step_retries;
                ++step_retries;
                obs::count(kStepRetries);
                log_info("transient: step %ld rejected (%s) at t=%.4g, retrying "
                         "with dt=%.3g",
                         step, ev.reason.c_str(), tp.time, ev.dt_to);
                ++level;
                k *= 2; // same position, finer units
                consecutive_accepts = 0;
                continue;
            }

            // Accept.  commit_tran is a no-op for LinearStatic devices, so the
            // assembler's partitioned list commits the identical state while
            // skipping the static majority of the netlist.
            assembler.commit(xit, tp);
            x_prev = x_acc;
            x_acc = xit;
            dt_prev = dt_cur;
            ++be_steps_done;
            ++k;
            ++consecutive_accepts;

            // Regrow dt (level--) only on even positions, so the coarser
            // grid still lands exactly on the nominal boundary.
            if (level > 0 && consecutive_accepts >= kDtRecoveryAccepts &&
                k % 2 == 0) {
                --level;
                k /= 2;
                consecutive_accepts = 0;
            }
        }

        // Nominal boundary reached: record on the uniform grid exactly as
        // the fixed-step loop did.
        const double t_nominal = static_cast<double>(step) * opt.dt;
        if (t_nominal >= opt.record_start) {
            out.time.push_back(t_nominal);
            for (size_t p = 0; p < probe_ids.size(); ++p)
                out.waves[p].push_back(circuit::volt(x_acc, probe_ids[p]));
            if (opt.accumulate_average)
                for (size_t i = 0; i < n; ++i) out.average[i] += x_acc[i];
        }
        progress.advance();

        if (ckpt_on && step < nsteps) {
            const bool due_steps =
                cko.every_steps > 0 && step % cko.every_steps == 0;
            const bool due_wall =
                cko.every_s > 0.0 &&
                std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              ckpt_last_write)
                        .count() >= cko.every_s;
            if (due_steps || due_wall) write_snapshot(step);
        }
    }
    // Final snapshot: a finished run leaves a step==nsteps checkpoint, so a
    // blanket --resume over a corner sweep replays completed corners
    // instantly and only integrates the unfinished ones.
    if (ckpt_on) write_snapshot(nsteps);
    // Every recorded sample was summed into `average` (empty when not
    // accumulating).
    if (!out.time.empty())
        for (auto& v : out.average) v /= static_cast<double>(out.time.size());
    return out;
}

TranResult resume_transient(circuit::Netlist& netlist,
                            const std::vector<std::string>& probes,
                            const TranOptions& opt) {
    TranOptions o = opt;
    o.checkpoint.resume = true;
    return transient(netlist, probes, o);
}

} // namespace snim::sim
