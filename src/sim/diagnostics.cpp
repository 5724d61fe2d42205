#include "sim/diagnostics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/certify.hpp"
#include "obs/report.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace snim::sim {

namespace {

obs::Json telemetry_json(const StepTelemetry& t) {
    obs::JsonObject o;
    o.emplace("step", static_cast<double>(t.step));
    o.emplace("time", t.time);
    o.emplace("dt", t.dt);
    o.emplace("newton_iters", t.newton_iters);
    o.emplace("residual", t.residual);
    o.emplace("worst_unknown", t.worst_unknown);
    o.emplace("clamp_hits", t.clamp_hits);
    o.emplace("lu_min_pivot", t.lu_min_pivot);
    o.emplace("lu_fill_growth", t.lu_fill_growth);
    o.emplace("converged", t.converged);
    // Schema 4: certificate columns; -1 = the site was not audited.
    o.emplace("kcl_residual", t.kcl_residual);
    o.emplace("cert_omega", t.cert_omega);
    o.emplace("cert_rcond", t.cert_rcond);
    return obs::Json(std::move(o));
}

/// Newton convergence tolerances must be finite and >= 0: an infinite one
/// accepts any iterate as converged, a NaN one accepts none.
void validate_tolerances(const char* engine, double reltol, double vntol) {
    const std::pair<const char*, double> tolerances[] = {{"reltol", reltol},
                                                         {"vntol", vntol}};
    for (const auto& [name, v] : tolerances)
        if (!(std::isfinite(v) && v >= 0.0))
            raise("%s.%s must be finite and >= 0 (got %g)", engine, name, v);
}

obs::Json wave_tail_json(const TranResult& r, size_t tail) {
    const size_t n = r.time.size();
    const size_t begin = n > tail ? n - tail : 0;
    obs::JsonObject waves;
    waves.emplace("dt_sample", r.dt_sample);
    waves.emplace("recorded_samples", static_cast<double>(n));
    waves.emplace("tail_begin", static_cast<double>(begin));
    obs::JsonArray time;
    for (size_t k = begin; k < n; ++k) time.push_back(r.time[k]);
    waves.emplace("time", obs::Json(std::move(time)));
    obs::JsonObject probes;
    for (size_t p = 0; p < r.probe_names.size(); ++p) {
        obs::JsonArray w;
        const auto& wave = r.waves[p];
        for (size_t k = begin; k < n && k < wave.size(); ++k) w.push_back(wave[k]);
        probes.emplace(r.probe_names[p], obs::Json(std::move(w)));
    }
    waves.emplace("probes", obs::Json(std::move(probes)));
    return obs::Json(std::move(waves));
}

/// The engine's part of the bundle document; obs::write_bundle adds the
/// manifest, registry and event tail.
obs::JsonObject diagnosis_json(const FailureDiagnosis& d) {
    obs::JsonObject root;
    root.emplace("schema_version", kDiagSchemaVersion);
    root.emplace("tool", "snim");
    root.emplace("engine", d.engine);
    root.emplace("reason", d.reason);
    root.emplace("fail_time", d.fail_time);
    root.emplace("fail_step", static_cast<double>(d.fail_step));
    root.emplace("options", obs::Json(d.options));

    obs::JsonArray tel;
    for (const auto& t : d.telemetry) tel.push_back(telemetry_json(t));
    root.emplace("telemetry", obs::Json(std::move(tel)));

    obs::JsonArray worst;
    for (const auto& [name, dv] : d.worst_nodes) {
        obs::JsonObject o;
        o.emplace("node", name);
        o.emplace("dv", dv);
        worst.push_back(obs::Json(std::move(o)));
    }
    root.emplace("worst_residual_nodes", obs::Json(std::move(worst)));

    obs::JsonArray retries;
    for (const auto& r : d.retries) {
        obs::JsonObject o;
        o.emplace("step", static_cast<double>(r.step));
        o.emplace("time", r.time);
        o.emplace("dt_from", r.dt_from);
        o.emplace("dt_to", r.dt_to);
        o.emplace("newton_iters", r.newton_iters);
        o.emplace("reason", r.reason);
        retries.push_back(obs::Json(std::move(o)));
    }
    root.emplace("retry_history", obs::Json(std::move(retries)));
    root.emplace("total_step_retries", static_cast<double>(d.total_retries));
    for (const auto& [key, value] : d.extra) root.emplace(key, value);

    if (d.partial) root.emplace("waves", wave_tail_json(*d.partial, d.wave_tail));
    return root;
}

} // namespace

StepTelemetryRing::StepTelemetryRing(size_t capacity)
    : buf_(std::max<size_t>(1, capacity)) {}

void StepTelemetryRing::push(const StepTelemetry& t) {
    buf_[next_] = t;
    next_ = (next_ + 1) % buf_.size();
    ++pushed_;
}

std::vector<StepTelemetry> StepTelemetryRing::tail() const {
    std::vector<StepTelemetry> out;
    const size_t count = std::min<uint64_t>(pushed_, buf_.size());
    out.reserve(count);
    // Oldest entry sits at next_ once the ring has wrapped.
    const size_t start = pushed_ > buf_.size() ? next_ : 0;
    for (size_t k = 0; k < count; ++k) out.push_back(buf_[(start + k) % buf_.size()]);
    return out;
}

void digest_options(obs::ConfigDigest& d, const TranOptions& opt) {
    d.add("tran.tstop", opt.tstop);
    d.add("tran.dt", opt.dt);
    d.add("tran.order", opt.order);
    d.add("tran.reltol", opt.reltol);
    d.add("tran.vntol", opt.vntol);
    d.add("tran.record_start", opt.record_start);
    d.add("tran.accumulate_average", opt.accumulate_average);
    d.add("tran.certify.rcond_min", opt.certify.rcond_min);
    // Checkpoint knobs (dir/tag/cadence/resume) are deliberately excluded:
    // they are operational, like thread counts, and a resumed run must
    // produce the same digest as the run that wrote the snapshot.
}

void digest_options(obs::ConfigDigest& d, const OpOptions& opt) {
    d.add("op.max_iter", opt.max_iter);
    d.add("op.reltol", opt.reltol);
    d.add("op.vntol", opt.vntol);
    d.add("op.certify.rcond_min", opt.certify.rcond_min);
}

std::string write_diagnosis_bundle(const FailureDiagnosis& d) {
    std::string path;
    try {
        path = obs::write_bundle("diag_" + d.engine, diagnosis_json(d));
    } catch (...) {
        return {}; // diagnosis must never mask the original solver error
    }
    if (!path.empty()) log_warn("wrote failure diagnosis bundle: %s", path.c_str());
    return path;
}

std::string unknown_name(const circuit::Netlist& netlist, int index) {
    if (index < 0) return {};
    if (static_cast<size_t>(index) < netlist.node_count())
        return netlist.node_name(static_cast<circuit::NodeId>(index));
    return format("branch:%zu", static_cast<size_t>(index) - netlist.node_count());
}

std::vector<std::pair<std::string, double>> worst_unknowns(
    const circuit::Netlist& netlist, const std::vector<double>& dv, size_t count) {
    std::vector<size_t> order(dv.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    count = std::min(count, order.size());
    // NaN updates rank worst of all; mapping them to +inf keeps the
    // comparator a strict weak ordering (raw NaN comparisons would not be).
    auto key = [&](size_t i) {
        const double m = std::fabs(dv[i]);
        return std::isnan(m) ? std::numeric_limits<double>::infinity() : m;
    };
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(count),
                      order.end(),
                      [&](size_t a, size_t b) { return key(a) > key(b); });
    std::vector<std::pair<std::string, double>> out;
    out.reserve(count);
    for (size_t k = 0; k < count; ++k)
        out.emplace_back(unknown_name(netlist, static_cast<int>(order[k])),
                         dv[order[k]]);
    return out;
}

void validate_tran_options(const TranOptions& opt) {
    if (!(std::isfinite(opt.tstop) && opt.tstop > 0.0))
        raise("TranOptions.tstop must be finite and > 0 (got %g)", opt.tstop);
    if (!(std::isfinite(opt.dt) && opt.dt > 0.0))
        raise("TranOptions.dt must be finite and > 0 (got %g)", opt.dt);
    // The step count is held in integers (and cast from this double).
    const double steps = std::ceil(opt.tstop / opt.dt);
    if (!(steps <= 0x1p53))
        raise("TranOptions.tstop / TranOptions.dt must give at most 2^53 steps "
              "(got %g / %g = %g)",
              opt.tstop, opt.dt, steps);
    if (opt.order != 1 && opt.order != 2)
        raise("TranOptions.order must be 1 (BE) or 2 (trapezoidal), got %d", opt.order);
    // A NaN start compares false against every step time: nothing would be
    // recorded and no error raised.
    if (!std::isfinite(opt.record_start))
        raise("TranOptions.record_start must be finite (got %g)", opt.record_start);
    if (opt.record_start >= opt.tstop)
        raise("TranOptions.record_start (%g) must be before tstop (%g) — nothing "
              "would be recorded",
              opt.record_start, opt.tstop);
    validate_tolerances("TranOptions", opt.reltol, opt.vntol);
    if (opt.checkpoint.every_steps < 0)
        raise("TranOptions.checkpoint.every_steps must be >= 0 (got %ld)",
              opt.checkpoint.every_steps);
    if (opt.checkpoint.every_s < 0.0 || !std::isfinite(opt.checkpoint.every_s))
        raise("TranOptions.checkpoint.every_s must be finite and >= 0 (got %g)",
              opt.checkpoint.every_s);
    obs::validate_certify_options(opt.certify, "TranOptions");
}

void validate_op_options(const OpOptions& opt) {
    if (opt.max_iter <= 0)
        raise("OpOptions.max_iter must be > 0 (got %d)", opt.max_iter);
    validate_tolerances("OpOptions", opt.reltol, opt.vntol);
    obs::validate_certify_options(opt.certify, "OpOptions");
}

} // namespace snim::sim
