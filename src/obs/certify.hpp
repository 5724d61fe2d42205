// Numerical-health observability: solve certificates and the accuracy-budget
// ledger.
//
// Every pipeline stage that loses accuracy — LU solves, transient KCL
// conservation, MOR reduction, figure reproduction — registers its worst
// error contribution against a stage-specific threshold.  The ledger turns
// those into a uniform "margin" expressed in dB:
//
//   margin_db = 20 log10(worst / threshold)   (higher-is-worse quantities)
//   margin_db = 20 log10(threshold / worst)   (lower-is-worse, e.g. rcond)
//
// so 0 dB means "exactly at budget", negative means headroom, positive means
// breach.  snim_report budget ranks stages by margin; BENCH reports (schema
// 4) embed the per-scenario snapshot so budgets diff across runs like any
// other metric.
//
// Solve certificates (SolveCertificate) are produced by the templated
// helpers in numeric/certify.hpp — this header stays numeric-free so the
// obs library never depends on the numeric one (it is the other way round).
// record_certificate() folds one certificate into counters
// (numeric/solve_certificates, numeric/ir_refinement_steps,
// numeric/cert_breaches), value histograms, the ledger, and — on breach — a
// {"comp":"numeric","code":"cert_breach"} journal event.
//
// Determinism: ledger updates are max/sum aggregations, hence commutative;
// parallel AC workers may update it directly and the snapshot is still
// independent of thread count.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace snim::obs {

/// Componentwise backward-error acceptance threshold of every certified
/// solve.  Healthy solves sit near machine epsilon (~1e-16); 1e-8 flags a
/// solve that lost half the mantissa before it can bend a figure.
inline constexpr double kCertifyOmegaMax = 1e-8;

/// Engines certify every kCertifyStride-th site (accepted transient
/// micro-step, AC frequency point); the condition estimate costs a few
/// triangular solves, so sweeps amortise it.  Operating points certify
/// every solve.
inline constexpr int kCertifyStride = 8;

/// Per-engine certificate knob, carried inside TranOptions / OpOptions /
/// AcOptions / rf::OscOptions and validated by validate_certify_options
/// (raise-style, like the other option validators).  Certificates run
/// whenever obs::enabled().
struct CertifyOptions {
    /// Reciprocal-condition floor: below this the linear system itself has
    /// fewer trustworthy digits than the figure tolerances assume.
    double rcond_min = 1e-14;
};

/// Raises on out-of-range knobs, naming the offending field and engine.
void validate_certify_options(const CertifyOptions& opt, const char* engine);

/// The result of certifying one linear solve (see numeric/certify.hpp).
/// Plain data so it crosses the obs/numeric layering freely.
struct SolveCertificate {
    double omega = 0.0;     // componentwise backward error after refinement
    double rcond = 0.0;     // reciprocal 1-norm condition estimate
    int refine_steps = 0;   // iterative-refinement steps actually taken
    bool breach = false;    // omega or rcond violated its threshold
    bool fault_injected = false; // numeric.cert.breach forced this breach
};

/// One ledger row.  `worst` is the extreme raw value seen (max for
/// higher-is-worse stages, min otherwise); margin_db is derived from it.
struct BudgetEntry {
    std::string stage;      // e.g. "numeric/transient/omega", "figure/fig7"
    std::string unit;       // unit of `worst` ("1", "V", "A", "dB")
    double worst = 0.0;
    double threshold = 0.0;
    double margin_db = 0.0; // > 0 means over budget
    bool higher_is_worse = true;
    uint64_t samples = 0;
    uint64_t breaches = 0;  // samples whose margin was positive
    std::string detail;     // attribution for the worst sample (node name...)
};

/// Raw ledger state for checkpointing: the per-stage rows plus the
/// aggregate certificate summary, exactly as the ledger holds them (no
/// derived margin).  Restoring a BudgetState taken later along the SAME
/// execution path is idempotent — see budget_restore().
struct BudgetState {
    struct Row {
        std::string stage;
        std::string unit;
        std::string detail;
        double worst = 0.0;
        double threshold = 0.0;
        bool higher_is_worse = true;
        uint64_t samples = 0;
        uint64_t breaches = 0;
    };
    std::vector<Row> rows;
    uint64_t cert_solves = 0;
    uint64_t cert_breaches = 0;
    uint64_t cert_refine_steps = 0;
    uint64_t breach_events = 0; // certificate_breach_count()
    double worst_omega = 0.0;
    double min_rcond = 0.0; // 0 encodes "none yet" (internal +inf)

    bool empty() const { return rows.empty() && cert_solves == 0; }
};

/// Interned handle of one ledger stage: the name is resolved to its row
/// once (make it a namespace-scope or function-local static), so an update
/// through it builds no string and does no name lookup.  The stage shows in
/// snapshots from its first update on, as with the name-keyed form.
class BudgetStage {
public:
    explicit BudgetStage(std::string_view name);

private:
    friend struct LedgerAccess;
    void* row_; // the ledger's row for this stage, valid for the process
};

/// Interned ledger stages of one certificate site ("transient", "op",
/// "ac"): "numeric/<site>/omega" and "numeric/<site>/rcond".
class CertSite {
public:
    explicit CertSite(std::string_view site);
    const std::string& name() const { return name_; }
    const BudgetStage& omega() const { return omega_; }
    const BudgetStage& rcond() const { return rcond_; }

private:
    std::string name_;
    BudgetStage omega_, rcond_;
};

/// Folds one sample into the named ledger stage.  Thread-safe and
/// commutative (max/min + sums), so parallel workers call it directly.
/// `detail` is kept for the sample that defines `worst`: a strictly worse
/// sample replaces it, a tie keeps the lexicographically smaller detail.
void budget_update(std::string_view stage, double value, double threshold,
                   std::string_view unit, bool higher_is_worse = true,
                   std::string_view detail = {});

namespace detail {
using DetailFn = std::string (*)(const void* ctx);
void budget_update_lazy(const BudgetStage& stage, double value, double threshold,
                        std::string_view unit, bool higher_is_worse, DetailFn make,
                        const void* ctx);
} // namespace detail

/// budget_update() through an interned stage, for attributions that cost a
/// string build: `make_detail()` runs (once, under the ledger lock) only
/// when the sample can define the stage's worst under the worse-or-tie
/// rule.
template <class MakeDetail>
void budget_update_lazy(const BudgetStage& stage, double value, double threshold,
                        std::string_view unit, bool higher_is_worse,
                        const MakeDetail& make_detail) {
    if (!enabled()) return;
    detail::budget_update_lazy(
        stage, value, threshold, unit, higher_is_worse,
        [](const void* ctx) -> std::string {
            return (*static_cast<const MakeDetail*>(ctx))();
        },
        &make_detail);
}

/// Snapshot sorted by descending margin (worst stage first).
std::vector<BudgetEntry> budget_snapshot();

/// The snapshot as a JSON array (the BENCH "budget" member).
Json budget_json();

/// Aggregate certificate summary as JSON: {"solves","breaches",
/// "refinement_steps","worst_omega","min_rcond"} (the BENCH "certificates"
/// member).  Null-equivalent empty object when no solve was certified.
Json certificate_summary_json();

/// Clears the ledger and the certificate summary (obs::reset() calls this).
void budget_reset();

/// Records one solve certificate: counters, histograms, the site's two
/// ledger stages (one ledger lock for both and the summary), and a Warn
/// journal event on breach.
void record_certificate(const CertSite& site, const SolveCertificate& cert,
                        const CertifyOptions& opt);

/// Breaches recorded since the last budget_reset(); cheap (one relaxed
/// load), surfaced by progress heartbeats and watchdog stall events.
uint64_t certificate_breach_count();

/// The ledger's raw state, for checkpoint serialisation.
BudgetState budget_state();

/// Folds a saved BudgetState back in with MONOTONE merges: per-row worst
/// via the same worse-or-tie rule budget_update uses, samples/breaches and
/// the summary counters via max (min for min_rcond).  Along one execution
/// path ledger state only grows, so restoring a snapshot taken later on
/// that path yields exactly the later state — a resumed run reproduces the
/// uninterrupted ledger without double-counting rows already present.
void budget_restore(const BudgetState& st);

} // namespace snim::obs
