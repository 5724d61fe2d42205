// Produces obs::SolveCertificate for one linear solve on cached LU factors.
//
// certify_solve() is the glue between the raw estimators (numeric/condest)
// and the accuracy-budget ledger (obs/certify): it measures the
// componentwise backward error of the solution in `x`, spends up to
// kMaxRefineSteps counted iterative-refinement steps on the existing
// factors when the error breaches obs::kCertifyOmegaMax, attaches the
// Hager/Higham rcond estimate, and flags the breach verdict.  The caller
// feeds the result to obs::record_certificate().
//
// The fault point `numeric.cert.breach` forces the breach verdict (and one
// refinement step, so the recovery path is exercised end to end).  It is
// queried here — at certificate sites only — so arming it requires
// observability to be on; certificate sites never run otherwise.
//
// When refinement never triggers (the clean-run case) `x` is not touched
// and results stay bit-identical to an uncertified run.
#pragma once

#include <cmath>
#include <vector>

#include "numeric/condest.hpp"
#include "obs/certify.hpp"
#include "util/fault.hpp"

namespace snim {

/// Refinement budget per certified solve.
inline constexpr int kMaxRefineSteps = 1;

/// Certifies the solve of a*x = b whose factorization is `lu` (SparseLU,
/// ReusableLU or DenseLU — anything with solve() and rcond_estimate()).
/// `x` may be refined in place; see the header comment for when.
/// `allow_fault` must be false from parallel workers: fault query order is
/// part of the determinism contract and worker scheduling is not (the AC
/// sweep certifies its serial reference point with faults armed instead).
template <class Solver, class T>
obs::SolveCertificate certify_solve(const Solver& lu, const SparseCSC<T>& a,
                                    std::vector<T>& x, const std::vector<T>& b,
                                    const obs::CertifyOptions& opt,
                                    bool allow_fault = true) {
    obs::SolveCertificate cert;
    cert.omega = componentwise_backward_error(a, x, b);
    while (cert.refine_steps < kMaxRefineSteps &&
           !(cert.omega <= obs::kCertifyOmegaMax)) { // NaN/inf must enter the loop
        cert.omega = refine_once(lu, a, x, b);
        ++cert.refine_steps;
    }
    if (allow_fault && fault::fires("numeric.cert.breach")) {
        cert.fault_injected = true;
        if (cert.refine_steps == 0) {
            // Exercise the counted-refinement path even though the solve was
            // healthy; on a clean system the correction is ~1 ulp.
            cert.omega = refine_once(lu, a, x, b);
            ++cert.refine_steps;
        }
    }
    cert.rcond = lu.rcond_estimate();
    cert.breach = cert.fault_injected || !(cert.omega <= obs::kCertifyOmegaMax) ||
                  cert.rcond < opt.rcond_min;
    return cert;
}

} // namespace snim
