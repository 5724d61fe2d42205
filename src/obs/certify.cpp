#include "obs/certify.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>

#include "obs/events.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"

namespace snim::obs {

void validate_certify_options(const CertifyOptions& opt, const char* engine) {
    if (!(opt.rcond_min >= 0.0) || !std::isfinite(opt.rcond_min))
        raise("%s options: certify.rcond_min must be finite and >= 0 (got %g)",
              engine, opt.rcond_min);
    if (opt.rcond_min >= 1.0)
        raise("%s options: certify.rcond_min must be < 1 (got %g) — rcond is "
              "a reciprocal condition number",
              engine, opt.rcond_min);
}

namespace {

/// Margins are clamped to +-400 dB so exact zeros (a stage that contributed
/// no error at all) stay plottable and diffable instead of going to -inf.
constexpr double kMarginClampDb = 400.0;

// Telemetry handles (obs/registry.hpp), interned once per process.
const Counter kSolveCertificates("numeric/solve_certificates");
const Counter kRefinementSteps("numeric/ir_refinement_steps");
const Counter kCertBreaches("numeric/cert_breaches");
const Value kCertOmega("numeric/cert_omega");
const Value kCertRcond("numeric/cert_rcond");

double margin_db_of(double value, double threshold, bool higher_is_worse) {
    const double num = higher_is_worse ? value : threshold;
    const double den = higher_is_worse ? threshold : value;
    if (!(num > 0.0)) return -kMarginClampDb; // no error contribution (or NaN)
    if (!(den > 0.0)) return kMarginClampDb;  // zero/invalid budget: over by definition
    const double db = 20.0 * std::log10(num / den);
    if (!std::isfinite(db)) return db > 0.0 ? kMarginClampDb : -kMarginClampDb;
    return std::clamp(db, -kMarginClampDb, kMarginClampDb);
}

/// One mutable ledger row; threshold/unit/direction are fixed by the first
/// update of a stage so concurrent updates stay commutative.  Rows are never
/// erased, so interned handles keep pointing at them: a stage without an
/// update since the last reset is not `live` and stays out of snapshots.
struct LedgerRow {
    bool live = false;
    std::string unit;
    double worst = 0.0;
    double threshold = 0.0;
    bool higher_is_worse = true;
    uint64_t samples = 0;
    uint64_t breaches = 0;
    std::string detail;
};

struct Ledger {
    std::mutex mu;
    std::map<std::string, LedgerRow, std::less<>> rows;

    // Aggregate certificate summary across every certified solve.
    uint64_t cert_solves = 0;
    uint64_t cert_breaches = 0;
    uint64_t cert_refine_steps = 0;
    double worst_omega = 0.0;
    double min_rcond = std::numeric_limits<double>::infinity();
};

Ledger& ledger() {
    // Leaked on purpose, like the registry: interned stages point at its
    // rows for the whole process, late exit-time updates included.
    static Ledger* l = new Ledger;
    return *l;
}

std::atomic<uint64_t> g_breach_count{0};

LedgerRow& row_of(Ledger& l, std::string_view stage) {
    auto it = l.rows.find(stage);
    if (it == l.rows.end()) it = l.rows.emplace(std::string(stage), LedgerRow{}).first;
    return it->second;
}

/// Folds one sample into `row`; callers hold the ledger lock.  `detail()`
/// is only called when the sample opens the stage, is worse than its worst
/// or ties it: a strict improvement replaces the worst, an exact tie keeps
/// the lexicographically smaller detail, so the aggregate is independent
/// of update order.
template <class Detail>
void fold_sample(LedgerRow& row, double value, double threshold, std::string_view unit,
                 bool higher_is_worse, const Detail& detail) {
    if (!row.live) {
        row.live = true;
        row.unit = std::string(unit);
        row.threshold = threshold;
        row.higher_is_worse = higher_is_worse;
        row.worst = value;
        row.detail = std::string(detail());
    } else {
        const bool worse = row.higher_is_worse ? value > row.worst
                                               : value < row.worst;
        if (worse || value == row.worst) {
            const auto d = detail();
            if (worse || d < row.detail) {
                row.worst = value;
                row.detail = std::string(d);
            }
        }
    }
    ++row.samples;
    if (margin_db_of(value, row.threshold, row.higher_is_worse) > 0.0)
        ++row.breaches;
}

} // namespace

struct LedgerAccess {
    static LedgerRow& row(const BudgetStage& s) { return *static_cast<LedgerRow*>(s.row_); }
};

BudgetStage::BudgetStage(std::string_view name) {
    Ledger& l = ledger();
    std::lock_guard<std::mutex> lock(l.mu);
    row_ = &row_of(l, name);
}

CertSite::CertSite(std::string_view site)
    : name_(site),
      omega_("numeric/" + name_ + "/omega"),
      rcond_("numeric/" + name_ + "/rcond") {}

void budget_update(std::string_view stage, double value, double threshold,
                   std::string_view unit, bool higher_is_worse,
                   std::string_view detail) {
    if (!enabled()) return;
    Ledger& l = ledger();
    std::lock_guard<std::mutex> lock(l.mu);
    fold_sample(row_of(l, stage), value, threshold, unit, higher_is_worse,
                [detail] { return detail; });
}

void detail::budget_update_lazy(const BudgetStage& stage, double value, double threshold,
                                std::string_view unit, bool higher_is_worse,
                                DetailFn make, const void* ctx) {
    Ledger& l = ledger();
    std::lock_guard<std::mutex> lock(l.mu);
    fold_sample(LedgerAccess::row(stage), value, threshold, unit, higher_is_worse,
                [make, ctx] { return make(ctx); });
}

std::vector<BudgetEntry> budget_snapshot() {
    std::vector<BudgetEntry> out;
    Ledger& l = ledger();
    std::lock_guard<std::mutex> lock(l.mu);
    out.reserve(l.rows.size());
    for (const auto& [stage, row] : l.rows) {
        if (!row.live) continue;
        BudgetEntry e;
        e.stage = stage;
        e.unit = row.unit;
        e.worst = row.worst;
        e.threshold = row.threshold;
        e.higher_is_worse = row.higher_is_worse;
        e.margin_db = margin_db_of(row.worst, row.threshold, row.higher_is_worse);
        e.samples = row.samples;
        e.breaches = row.breaches;
        e.detail = row.detail;
        out.push_back(std::move(e));
    }
    std::sort(out.begin(), out.end(), [](const BudgetEntry& a, const BudgetEntry& b) {
        if (a.margin_db != b.margin_db) return a.margin_db > b.margin_db;
        return a.stage < b.stage;
    });
    return out;
}

Json budget_json() {
    JsonArray arr;
    for (const BudgetEntry& e : budget_snapshot()) {
        JsonObject o;
        o.emplace("stage", e.stage);
        o.emplace("unit", e.unit);
        o.emplace("worst", e.worst);
        o.emplace("threshold", e.threshold);
        o.emplace("margin_db", e.margin_db);
        o.emplace("higher_is_worse", e.higher_is_worse);
        o.emplace("samples", e.samples);
        o.emplace("breaches", e.breaches);
        if (!e.detail.empty()) o.emplace("detail", e.detail);
        arr.emplace_back(std::move(o));
    }
    return Json(std::move(arr));
}

Json certificate_summary_json() {
    Ledger& l = ledger();
    std::lock_guard<std::mutex> lock(l.mu);
    JsonObject o;
    if (l.cert_solves == 0) return Json(std::move(o));
    o.emplace("solves", l.cert_solves);
    o.emplace("breaches", l.cert_breaches);
    o.emplace("refinement_steps", l.cert_refine_steps);
    o.emplace("worst_omega", l.worst_omega);
    o.emplace("min_rcond",
              std::isfinite(l.min_rcond) ? l.min_rcond : 0.0);
    return Json(std::move(o));
}

void budget_reset() {
    Ledger& l = ledger();
    std::lock_guard<std::mutex> lock(l.mu);
    for (auto& [stage, row] : l.rows) row = LedgerRow{}; // handles keep their rows
    l.cert_solves = 0;
    l.cert_breaches = 0;
    l.cert_refine_steps = 0;
    l.worst_omega = 0.0;
    l.min_rcond = std::numeric_limits<double>::infinity();
    g_breach_count.store(0, std::memory_order_relaxed);
}

void record_certificate(const CertSite& site, const SolveCertificate& cert,
                        const CertifyOptions& opt) {
    if (!enabled()) return;
    // A non-finite omega (inconsistent zero row, NaN residual) is folded in
    // as "worst representable" so it ranks at the top instead of vanishing.
    const double omega = std::isfinite(cert.omega)
                             ? cert.omega
                             : std::numeric_limits<double>::max();
    count(kSolveCertificates);
    if (cert.refine_steps > 0)
        count(kRefinementSteps, static_cast<uint64_t>(cert.refine_steps));
    record_value(kCertOmega, omega);
    record_value(kCertRcond, cert.rcond);

    {
        Ledger& l = ledger();
        std::lock_guard<std::mutex> lock(l.mu);
        const std::string_view omega_detail =
            cert.fault_injected ? "fault_injected" : std::string_view{};
        fold_sample(LedgerAccess::row(site.omega()), omega, kCertifyOmegaMax, "1",
                    /*higher_is_worse=*/true, [omega_detail] { return omega_detail; });
        // rcond_min == 0 means the caller disabled the condition gate
        // (ablation runs whose conductance spread collapses the estimate by
        // construction); a disabled gate makes no budget claim, so those
        // samples must not drag the stage's worst below the threshold the
        // gated solves are held to.
        if (opt.rcond_min > 0.0)
            fold_sample(LedgerAccess::row(site.rcond()), cert.rcond, opt.rcond_min, "1",
                        /*higher_is_worse=*/false, [] { return std::string_view{}; });
        ++l.cert_solves;
        if (cert.breach) ++l.cert_breaches;
        l.cert_refine_steps += static_cast<uint64_t>(cert.refine_steps);
        l.worst_omega = std::max(l.worst_omega, omega);
        l.min_rcond = std::min(l.min_rcond, cert.rcond);
    }

    if (cert.breach) {
        count(kCertBreaches);
        g_breach_count.fetch_add(1, std::memory_order_relaxed);
        event(EventLevel::Warn, "numeric", "cert_breach",
              {{"site", site.name()},
               {"omega", omega},
               {"omega_max", kCertifyOmegaMax},
               {"rcond", cert.rcond},
               {"rcond_min", opt.rcond_min},
               {"refine_steps", cert.refine_steps},
               {"fault_injected", cert.fault_injected}});
    }
}

uint64_t certificate_breach_count() {
    return g_breach_count.load(std::memory_order_relaxed);
}

BudgetState budget_state() {
    BudgetState st;
    Ledger& l = ledger();
    std::lock_guard<std::mutex> lock(l.mu);
    st.rows.reserve(l.rows.size());
    for (const auto& [stage, row] : l.rows) {
        if (!row.live) continue;
        BudgetState::Row r;
        r.stage = stage;
        r.unit = row.unit;
        r.detail = row.detail;
        r.worst = row.worst;
        r.threshold = row.threshold;
        r.higher_is_worse = row.higher_is_worse;
        r.samples = row.samples;
        r.breaches = row.breaches;
        st.rows.push_back(std::move(r));
    }
    st.cert_solves = l.cert_solves;
    st.cert_breaches = l.cert_breaches;
    st.cert_refine_steps = l.cert_refine_steps;
    st.worst_omega = l.worst_omega;
    st.min_rcond = std::isfinite(l.min_rcond) ? l.min_rcond : 0.0;
    st.breach_events = g_breach_count.load(std::memory_order_relaxed);
    return st;
}

void budget_restore(const BudgetState& st) {
    Ledger& l = ledger();
    std::lock_guard<std::mutex> lock(l.mu);
    for (const auto& r : st.rows) {
        LedgerRow& row = row_of(l, r.stage);
        if (!row.live) {
            row.live = true;
            row.unit = r.unit;
            row.threshold = r.threshold;
            row.higher_is_worse = r.higher_is_worse;
            row.worst = r.worst;
            row.detail = r.detail;
            row.samples = r.samples;
            row.breaches = r.breaches;
            continue;
        }
        const bool worse = row.higher_is_worse ? r.worst > row.worst
                                               : r.worst < row.worst;
        if (worse || (r.worst == row.worst && r.detail < row.detail)) {
            row.worst = r.worst;
            row.detail = r.detail;
        }
        row.samples = std::max(row.samples, r.samples);
        row.breaches = std::max(row.breaches, r.breaches);
    }
    l.cert_solves = std::max(l.cert_solves, st.cert_solves);
    l.cert_breaches = std::max(l.cert_breaches, st.cert_breaches);
    l.cert_refine_steps = std::max(l.cert_refine_steps, st.cert_refine_steps);
    l.worst_omega = std::max(l.worst_omega, st.worst_omega);
    if (st.min_rcond > 0.0) l.min_rcond = std::min(l.min_rcond, st.min_rcond);
    uint64_t prev = g_breach_count.load(std::memory_order_relaxed);
    while (prev < st.breach_events &&
           !g_breach_count.compare_exchange_weak(prev, st.breach_events,
                                                 std::memory_order_relaxed)) {
    }
}

} // namespace snim::obs
