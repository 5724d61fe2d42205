#include "sim/op.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numeric/certify.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/vecops.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/diagnostics.hpp"
#include "sim/mna.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace snim::sim {

namespace {

/// Newton step clamp on node voltages of nonlinear circuits [V].
constexpr double kDvMax = 0.5;

// The homotopy ladder's continuation schedules (DESIGN.md §8) and the
// bundle's capacity.
/// Continuation points of the source ramp (scale = k / kSourceSteps).
constexpr int kSourceSteps = 8;
/// Initial node-anchor conductance [S] (the pseudo dt starts small).
constexpr double kPtranG0 = 1.0;
/// Geometric anchor relaxation per accepted pseudo-step: sqrt(10).
constexpr double kPtranGrowth = 3.1622776601683795;
/// Pseudo-step budget before the rung gives up.
constexpr int kPtranSteps = 80;
/// Anchor level treated as "free": once g falls below this and the
/// pseudo-state stops moving, the rung locks in with plain Newton.
constexpr double kPtranGFloor = 1e-9;
/// Last-N Newton iterations of telemetry kept for the bundle.
constexpr size_t kDiagTail = 64;

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Phase kRunPhase("sim/op");
const obs::Phase kNewtonPhase("sim/op/newton");
const obs::Counter kGminSteps("sim/op/gmin_steps");
const obs::Counter kSourceStepsCount("sim/op/source_steps");
const obs::Counter kPtranStepsCount("sim/op/ptran_steps");
const obs::Channel kResidualChannel("sim/op/residual", "V");
const obs::Channel kRungChannel("sim/op/rung_active", "rung");
const obs::CertSite kCertSite("op");

/// Telemetry shared across every homotopy-ladder attempt of one operating
/// point so the failure bundle shows the whole search, not just the last
/// Newton run.
struct OpTelemetry {
    StepTelemetryRing ring;
    std::vector<double> last_dx;
    long total_iters = 0;

    explicit OpTelemetry(size_t tail, size_t n) : ring(tail), last_dx(n, 0.0) {}
};

/// One Newton solve at fixed gmin; returns true on convergence and leaves
/// the result in `x`.  `source_scale` ramps the independent sources (the
/// source-stepping rung); a positive `g_anchor` ties every node through a
/// conductance to `*anchor` (the pseudo-transient rung's artificial node
/// capacitors, backward-Euler form).
bool newton_dc(circuit::Netlist& netlist, std::vector<double>& x, double gmin,
               const OpOptions& opt, OpTelemetry& diag, double source_scale = 1.0,
               double g_anchor = 0.0, const std::vector<double>* anchor = nullptr) {
    const size_t n = netlist.unknown_count();
    const bool nonlinear = netlist.partition().has_nonlinear();

    circuit::RealStamper s(n);
    s.enable_compiled_assembly();
    // The stamp sequence (including the optional anchor entries) is fixed
    // for the duration of this solve, so the symbolic analysis and pivot
    // sequence of the first iteration carry across the whole Newton run.
    ReusableLU<double> rlu;
    for (int it = 0; it < opt.max_iter; ++it) {
        obs::ScopedTimer obs_newton(kNewtonPhase);
        StepTelemetry tel;
        tel.step = ++diag.total_iters;
        tel.time = gmin; // abscissa: the gmin level this iteration ran at
        tel.newton_iters = it + 1;
        s.clear();
        assemble_dc(netlist, s, x, gmin, source_scale);
        if (g_anchor > 0.0 && anchor) {
            for (size_t i = 0; i < netlist.node_count(); ++i) {
                s.entry(static_cast<circuit::NodeId>(i),
                        static_cast<circuit::NodeId>(i), g_anchor);
                s.rhs_current(static_cast<circuit::NodeId>(i),
                              g_anchor * (*anchor)[i]);
            }
        }
        std::vector<double> xn;
        try {
            if (fault::fires("op.lu.singular"))
                raise("fault injected: op.lu.singular");
            rlu.factor(s.csc());
            xn = rlu.solve(s.rhs());
            tel.lu_min_pivot = rlu.factor_stats().min_pivot;
            tel.lu_fill_growth = rlu.factor_stats().fill_growth;
        } catch (const Error&) {
            tel.converged = false;
            diag.ring.push(tel);
            return false; // singular at this homotopy level
        }
        if (fault::fires("op.newton.nonfinite"))
            xn[0] = std::numeric_limits<double>::quiet_NaN();
        // Clamp voltage-like updates for stability (nonlinear circuits only;
        // a linear solve is exact and must not be truncated).
        double max_dx = 0.0;
        bool nonfinite = false;
        for (size_t i = 0; i < n; ++i) {
            double dx = xn[i] - x[i];
            if (!std::isfinite(dx)) nonfinite = true;
            const bool is_node = i < netlist.node_count();
            if (is_node && nonlinear) {
                const double clamped = std::clamp(dx, -kDvMax, kDvMax);
                if (clamped != dx) ++tel.clamp_hits;
                dx = clamped;
            }
            diag.last_dx[i] = dx;
            if (std::fabs(dx) > max_dx) {
                max_dx = std::fabs(dx);
                tel.worst_unknown = static_cast<int>(i);
            }
            x[i] += dx;
        }
        tel.residual = max_dx;
        tel.converged = false;
        // Abscissa: Newton iterations numbered over the process, so the
        // channel stays monotone across repeated op solves (one scenario
        // runs dozens: calibration, ablations, sweeps).  The number is taken
        // when the op log is applied, in task order inside parallel_tasks.
        obs::ts_append_numbered(kResidualChannel, std::isfinite(max_dx) ? max_dx : 0.0);
        if (!nonlinear) {
            tel.converged = !nonfinite && std::isfinite(max_dx) &&
                            !fault::fires("op.newton.stall");
            // A linear solve is exact Newton: x == xn, so the certificate
            // covers the solution the caller receives.
            if (tel.converged && obs::enabled()) {
                const obs::SolveCertificate cert =
                    certify_solve(rlu.lu(), s.csc(), x, s.rhs(), opt.certify);
                tel.cert_omega = cert.omega;
                tel.cert_rcond = cert.rcond;
                obs::record_certificate(kCertSite, cert, opt.certify);
            }
            diag.ring.push(tel);
            return tel.converged;
        }
        if (nonfinite || !std::isfinite(max_dx)) {
            diag.ring.push(tel);
            return false;
        }
        if (max_dx < opt.vntol + opt.reltol * norm_inf(x)) {
            if (fault::fires("op.newton.stall")) {
                diag.ring.push(tel);
                continue; // fault: pretend the fixpoint keeps slipping away
            }
            // One undamped verification pass: the iterate must reproduce
            // itself (companion models are exact at the fixpoint).
            s.clear();
            assemble_dc(netlist, s, x, gmin, source_scale);
            if (g_anchor > 0.0 && anchor) {
                for (size_t i = 0; i < netlist.node_count(); ++i) {
                    s.entry(static_cast<circuit::NodeId>(i),
                            static_cast<circuit::NodeId>(i), g_anchor);
                    s.rhs_current(static_cast<circuit::NodeId>(i),
                                  g_anchor * (*anchor)[i]);
                }
            }
            try {
                rlu.factor(s.csc());
                xn = rlu.solve(s.rhs());
            } catch (const Error&) {
                diag.ring.push(tel);
                return false;
            }
            tel.converged =
                max_abs_diff(xn, x) < 10 * (opt.vntol + opt.reltol * norm_inf(x));
            // Certify the accepted fixpoint against the verification system
            // (still held by the stamper and rlu).  A refinement step, if one
            // fires, is one extra chord iteration on the returned iterate.
            if (tel.converged && obs::enabled()) {
                const obs::SolveCertificate cert =
                    certify_solve(rlu.lu(), s.csc(), x, s.rhs(), opt.certify);
                tel.cert_omega = cert.omega;
                tel.cert_rcond = cert.rcond;
                obs::record_certificate(kCertSite, cert, opt.certify);
            }
            diag.ring.push(tel);
            return tel.converged;
        }
        diag.ring.push(tel);
    }
    return false;
}

/// Rung 2: solve at a strong node-to-ground gmin, then continue the
/// solution down decade by decade to kGmin.
bool gmin_stepping_rung(circuit::Netlist& netlist, std::vector<double>& x,
                        const OpOptions& opt, OpTelemetry& diag) {
    std::vector<double> xg(netlist.unknown_count(), 0.0);
    for (double g = 1e-2; g >= kGmin; g *= 0.1) {
        obs::count(kGminSteps);
        if (!newton_dc(netlist, xg, g, opt, diag)) return false;
    }
    if (!newton_dc(netlist, xg, kGmin, opt, diag)) return false;
    x = std::move(xg);
    return true;
}

/// Rung 3: ramp every independent source from 1/kSourceSteps to 100%,
/// warm-starting each continuation point from the previous one.  The first
/// point is nearly source-free, which a gmin'd Newton almost always wins.
bool source_stepping_rung(circuit::Netlist& netlist, std::vector<double>& x,
                          const OpOptions& opt, OpTelemetry& diag) {
    std::vector<double> xs(netlist.unknown_count(), 0.0);
    for (int k = 1; k <= kSourceSteps; ++k) {
        obs::count(kSourceStepsCount);
        const double scale = static_cast<double>(k) / kSourceSteps;
        if (!newton_dc(netlist, xs, kGmin, opt, diag, scale)) return false;
    }
    x = std::move(xs);
    return true;
}

/// Rung 4: pseudo-transient continuation.  Every node is anchored to the
/// previous pseudo-state through a conductance g (backward-Euler form of an
/// artificial node capacitor; g = C/dt).  g relaxes geometrically while the
/// anchored solves keep converging, stiffens on failure, and the rung locks
/// in with a plain Newton solve once the state stops moving at a negligible
/// anchor level.
bool ptran_rung(circuit::Netlist& netlist, std::vector<double>& x,
                const OpOptions& opt, OpTelemetry& diag) {
    std::vector<double> anchor = x;
    double g = kPtranG0;
    const double g_ceiling = kPtranG0 * 1e6;
    for (int k = 0; k < kPtranSteps; ++k) {
        obs::count(kPtranStepsCount);
        std::vector<double> xk = anchor;
        if (newton_dc(netlist, xk, kGmin, opt, diag, 1.0, g, &anchor)) {
            const double move = max_abs_diff(xk, anchor);
            anchor = std::move(xk);
            if (g <= kPtranGFloor &&
                move < opt.vntol + opt.reltol * norm_inf(anchor)) {
                x = anchor;
                return newton_dc(netlist, x, kGmin, opt, diag);
            }
            g /= kPtranGrowth; // grow the pseudo time step
        } else {
            // Diverging even when frozen at the ceiling anchor: give up.
            if (g >= g_ceiling) return false;
            // Shrink the pseudo time step; the last stiffening lands on
            // the ceiling exactly, so the rung always tries that anchor.
            g = std::min(g * kPtranGrowth * kPtranGrowth, g_ceiling);
        }
    }
    return false;
}

obs::JsonObject op_options_json(const OpOptions& opt) {
    obs::JsonObject o;
    o.emplace("max_iter", opt.max_iter);
    o.emplace("reltol", opt.reltol);
    o.emplace("vntol", opt.vntol);
    o.emplace("certify_rcond_min", opt.certify.rcond_min);
    return o;
}

} // namespace

OpResult operating_point_ex(circuit::Netlist& netlist, const OpOptions& opt) {
    validate_op_options(opt);
    obs::ScopedTimer obs_run(kRunPhase, obs::Timing::WhenEnabled, obs::Rss::Track);
    netlist.finalize();
    const size_t n = netlist.unknown_count();

    OpTelemetry diag(kDiagTail, n);

    // The homotopy ladder: each rung is tried in order; the first winner
    // returns.  "op.fail" fails the whole ladder, "op.rung.<name>" vetoes
    // one rung — both let tests drive every recovery and diagnosis path.
    struct Rung {
        const char* name;
        bool (*attempt)(circuit::Netlist&, std::vector<double>&, const OpOptions&,
                        OpTelemetry&);
    };
    const Rung ladder[] = {
        {"newton",
         [](circuit::Netlist& nl, std::vector<double>& x, const OpOptions& o,
            OpTelemetry& d) { return newton_dc(nl, x, kGmin, o, d); }},
        {"gmin", gmin_stepping_rung},
        {"source", source_stepping_rung},
        {"ptran", ptran_rung},
    };

    const bool forced_fail = fault::fires("op.fail");
    obs::JsonObject rung_log;
    int rung_index = 0;
    for (const Rung& rung : ladder) {
        ++rung_index;
        if (forced_fail) continue;
        if (fault::fires(format("op.rung.%s", rung.name).c_str())) {
            rung_log.emplace(rung.name, "fault_injected");
            continue;
        }
        obs::count(format("sim/op/rung/%s/attempts", rung.name));
        if (obs::enabled())
            obs::ts_append(kRungChannel, static_cast<double>(diag.total_iters),
                           rung_index);
        const long iters_before = diag.total_iters;
        std::vector<double> x(n, 0.0);
        if (rung.attempt(netlist, x, opt, diag)) {
            obs::count(format("sim/op/rung/%s/wins", rung.name));
            if (rung_index > 1)
                log_info("operating point: recovered on the '%s' rung (%ld Newton "
                         "iterations over the ladder)",
                         rung.name, diag.total_iters);
            OpResult out;
            out.x = std::move(x);
            out.rung = rung.name;
            out.newton_iters = diag.total_iters;
            return out;
        }
        rung_log.emplace(rung.name,
                         format("failed after %ld Newton iterations",
                                diag.total_iters - iters_before));
        log_info("operating point: '%s' rung failed, descending the ladder",
                 rung.name);
    }

    FailureDiagnosis d;
    d.engine = "op";
    d.reason = forced_fail ? "fault_injected" : "newton_no_convergence";
    d.fail_step = diag.total_iters;
    d.fail_time = 0.0;
    d.telemetry = diag.ring.tail();
    d.worst_nodes = worst_unknowns(netlist, diag.last_dx, 5);
    d.options = op_options_json(opt);
    d.extra.emplace("rungs", obs::Json(std::move(rung_log)));
    const std::string bundle = write_diagnosis_bundle(d);
    raise("operating point did not converge (%zu unknowns, %ld Newton iterations "
          "over the homotopy ladder)%s%s",
          n, diag.total_iters, bundle.empty() ? "" : "; diagnosis bundle: ",
          bundle.empty() ? "" : bundle.c_str());
}

std::vector<double> operating_point(circuit::Netlist& netlist, const OpOptions& opt) {
    return operating_point_ex(netlist, opt).x;
}

} // namespace snim::sim
