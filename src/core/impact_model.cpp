#include "core/impact_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "obs/certify.hpp"
#include "obs/registry.hpp"
#include "sim/op.hpp"
#include "sim/transfer.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace snim::core {

namespace {

/// Split-window certificate tolerances: the halves of a calibration pair
/// must agree on K within 1% of its scale, the halves of the baseline on
/// the carrier amplitude within 0.1%.
constexpr double kPairTol = 0.01;
constexpr double kAmplitudeTol = 1e-3;
/// Capture length of simulate(), in noise periods.
constexpr double kCapturePeriods = 3.0;
/// A path whose |K_res| is below this fraction of the total K_src is
/// considered capacitive and quantified by lever * |H_rel(f)|.
constexpr double kResistiveThreshold = 0.03;
/// DC perturbation applied to lever sources [V].
constexpr double kLeverDv = 0.02;

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Counter kCalibrationPairs("core/calibration_pairs");
const obs::Counter kCalibrationFallbacks("core/calibration_fallbacks");

/// Rejects analyzer options no capture could run with, naming the field.
void validate_analyzer_options(const AnalyzerOptions& opt) {
    const std::pair<const char*, double> positive[] = {
        {"osc.dt", opt.osc.dt},
        {"osc.capture", opt.osc.capture}};
    for (const auto& [name, v] : positive)
        if (!(std::isfinite(v) && v > 0.0))
            raise("AnalyzerOptions.%s must be finite and > 0 (got %g)", name, v);
    if (!(std::isfinite(opt.osc.settle) && opt.osc.settle >= 0.0))
        raise("AnalyzerOptions.osc.settle must be finite and >= 0 (got %g)",
              opt.osc.settle);
    if (!(opt.osc.f_min > 0.0))
        raise("AnalyzerOptions.osc.f_min must be > 0 (got %g)", opt.osc.f_min);
    if (!(opt.osc.f_min < opt.osc.f_max))
        raise("AnalyzerOptions.osc.f_max (%g) must be above osc.f_min (%g)",
              opt.osc.f_max, opt.osc.f_min);
}

/// Runs `undo` when the scope ends, by return or by exception, so a capture
/// that throws cannot leave the model perturbed.
template <class F>
class Restore {
public:
    explicit Restore(F undo) : undo_(std::move(undo)) {}
    ~Restore() { undo_(); }
    Restore(const Restore&) = delete;
    Restore& operator=(const Restore&) = delete;

private:
    F undo_;
};

/// One calibration capture with the carrier measured on the whole wave and
/// on each of its two equal halves.
struct SplitCapture {
    rf::OscCapture whole;
    double half_fc[2] = {0.0, 0.0};
    double half_amplitude[2] = {0.0, 0.0};
    bool measured = false; // the estimator accepted the whole wave and both halves
};

/// Records one capture on `osc`.  A transient failure propagates.  An
/// estimator error leaves the capture unmeasured, except on the whole wave
/// of a full-window capture, where it propagates as capture_oscillator's.
SplitCapture record_split(circuit::Netlist& netlist, const rf::OscOptions& osc,
                          bool full_window) {
    SplitCapture s;
    s.whole = rf::record_oscillator(netlist, osc);
    try {
        rf::measure_carrier(s.whole, osc);
    } catch (const Error&) {
        if (full_window) throw;
        return s;
    }
    const size_t n = s.whole.wave.size() / 2;
    for (size_t k = 0; k < 2; ++k) {
        rf::OscCapture half;
        half.fs = s.whole.fs;
        const auto first = s.whole.wave.begin() + static_cast<std::ptrdiff_t>(k * n);
        half.wave.assign(first, first + static_cast<std::ptrdiff_t>(n));
        try {
            rf::measure_carrier(half, osc);
        } catch (const Error&) {
            return s;
        }
        s.half_fc[k] = half.fc;
        s.half_amplitude[k] = half.amplitude;
    }
    s.measured = true;
    return s;
}

/// Baseline certificate ratio: the halves' amplitude disagreement relative
/// to the amplitude, rescaled so that its 0.1% tolerance reads as the
/// pairs' 1%.
double baseline_ratio(const SplitCapture& s) {
    if (!s.measured) return std::numeric_limits<double>::infinity();
    const double rel =
        std::fabs(s.half_amplitude[0] - s.half_amplitude[1]) / s.whole.amplitude;
    return rel * (kPairTol / kAmplitudeTol);
}

/// Pair certificate ratio: |K_first - K_second| / max(|K|, k_floor), where
/// K_first and K_second are the pair's K from the first and second halves.
/// Halves that agree exactly certify even a pair with K = 0.
double pair_ratio(const SplitCapture& plus, const SplitCapture& minus, double dv,
                  double k_floor) {
    if (!plus.measured || !minus.measured) return std::numeric_limits<double>::infinity();
    const double k = (plus.whole.fc - minus.whole.fc) / (2.0 * dv);
    const double k_first = (plus.half_fc[0] - minus.half_fc[0]) / (2.0 * dv);
    const double k_second = (plus.half_fc[1] - minus.half_fc[1]) / (2.0 * dv);
    const double disagreement = std::fabs(k_first - k_second);
    return disagreement == 0.0 ? 0.0 : disagreement / std::max(std::fabs(k), k_floor);
}

/// The calibration window rule: `measure(false)` runs on the quarter
/// window and `ratio` certifies it; when the certificate fails (or the
/// fault point `core.calibrate.uncertified` fires), `measure(true)` runs
/// once on the caller's full window, and its result is kept even if it
/// fails too.  The accepted ratio feeds the `core/calibration` budget stage.
template <class Measure, class Ratio>
auto certified(const std::string& what, Measure measure, Ratio ratio) {
    auto certify = [&](const auto& result) {
        return fault::fires("core.calibrate.uncertified")
                   ? std::numeric_limits<double>::infinity()
                   : ratio(result);
    };
    obs::count(kCalibrationPairs);
    auto result = measure(false);
    double r = certify(result);
    if (!(r <= kPairTol)) {
        obs::count(kCalibrationFallbacks);
        log_info("impact: %s uncertified on the quarter window (ratio %.3g); "
                 "re-running on the full window",
                 what.c_str(), r);
        result = measure(true);
        r = certify(result);
        if (!(r <= kPairTol))
            log_warn("impact: %s uncertified on the full window too (ratio %.3g > %g); "
                     "keeping the full-window result",
                     what.c_str(), r, kPairTol);
    }
    log_debug("impact: %s certificate ratio %.3g", what.c_str(), r);
    // JSON has no infinity: an unmeasured certificate enters the ledger as
    // the largest double, still a breach.
    obs::budget_update("core/calibration", std::min(r, std::numeric_limits<double>::max()),
                       kPairTol, "1", /*higher_is_worse=*/true, what);
    return result;
}

} // namespace

double ImpactPrediction::Part::spur_dbc(double carrier) const {
    const double amp = std::max(fm_spur_amp, am_spur_amp);
    return units::db20(std::max(amp, 1e-30) / carrier);
}

double ImpactPrediction::left_dbc() const {
    return units::db20(std::max(left_amp, 1e-30) / carrier_amp);
}

double ImpactPrediction::right_dbc() const {
    return units::db20(std::max(right_amp, 1e-30) / carrier_amp);
}

double ImpactPrediction::total_dbm(double rload) const {
    const double p = (left_amp * left_amp + right_amp * right_amp) / (2.0 * rload);
    return 10.0 * std::log10(std::max(p, 1e-300) / 1e-3);
}

ImpactAnalyzer::ImpactAnalyzer(ImpactModel& model, std::string noise_source,
                               std::vector<NoiseEntry> entries, AnalyzerOptions opt)
    : model_(model),
      source_(std::move(noise_source)),
      entries_(std::move(entries)),
      opt_(std::move(opt)) {
    validate_analyzer_options(opt_);
    SNIM_ASSERT(!entries_.empty(), "impact analysis needs at least one entry");
    SNIM_ASSERT(model_.netlist.find_as<circuit::VSource>(source_) != nullptr,
                "noise source '%s' must be a V source", source_.c_str());
}

const rf::OscCapture& ImpactAnalyzer::baseline() const {
    SNIM_ASSERT(calibrated_, "call calibrate() first");
    return baseline_;
}

void ImpactAnalyzer::set_noise_dc(double value) {
    model_.netlist.find_as<circuit::VSource>(source_)->set_waveform(
        circuit::Waveform::dc(value));
}

void ImpactAnalyzer::set_noise_sin(double amp, double freq) {
    model_.netlist.find_as<circuit::VSource>(source_)->set_waveform(
        circuit::Waveform::sin(0.0, amp, freq));
}

std::vector<circuit::Device*> ImpactAnalyzer::coupling_devices(const NoiseEntry& e) {
    std::vector<circuit::Device*> out;
    std::vector<circuit::NodeId> claim;
    for (const auto& n : e.coupling_nodes)
        claim.push_back(model_.netlist.existing_node(n));
    for (const auto& d : model_.netlist.devices()) {
        bool match = false;
        for (const auto& prefix : e.coupling_prefixes) {
            if (starts_with_nocase(d->name(), prefix)) {
                match = true;
                break;
            }
        }
        if (!match && !claim.empty() && starts_with_nocase(d->name(), "sub:")) {
            for (const auto id : d->nodes()) {
                if (std::find(claim.begin(), claim.end(), id) != claim.end()) {
                    match = true;
                    break;
                }
            }
        }
        if (match) out.push_back(d.get());
    }
    return out;
}

rf::OscOptions ImpactAnalyzer::osc_tagged(const std::string& suffix) const {
    rf::OscOptions osc = opt_.osc;
    // Every capture in a calibration sequence shares one checkpoint dir, and
    // several of them run with IDENTICAL transient options (the +dv and -dv
    // sensitivity pair, for one), so the config digest alone cannot tell
    // their snapshots apart -- the file name must.
    const std::string base =
        osc.checkpoint.tag.empty() ? std::string("osc") : osc.checkpoint.tag;
    osc.checkpoint.tag = base + "." + suffix;
    return osc;
}

rf::OscOptions ImpactAnalyzer::osc_window(const std::string& suffix,
                                          bool full_window) const {
    if (full_window) return osc_tagged(suffix);
    rf::OscOptions osc = osc_tagged(suffix + ".q");
    osc.settle /= 4.0;
    osc.capture /= 4.0;
    return osc;
}

std::pair<rf::OscCapture, rf::OscCapture> ImpactAnalyzer::sensitivity_pair(
    const std::string& tag, const std::string& what, circuit::VSource& source,
    double center, double dv, double k_floor) {
    const circuit::Waveform saved = source.waveform();
    Restore restore_source([&] { source.set_waveform(saved); });
    auto measure = [&](bool full_window) {
        source.set_waveform(circuit::Waveform::dc(center + dv));
        auto plus = record_split(model_.netlist, osc_window(tag + ".p", full_window),
                                 full_window);
        source.set_waveform(circuit::Waveform::dc(center - dv));
        auto minus = record_split(model_.netlist, osc_window(tag + ".m", full_window),
                                  full_window);
        return std::pair{std::move(plus), std::move(minus)};
    };
    auto ratio = [&](const auto& pm) {
        return pair_ratio(pm.first, pm.second, dv, k_floor);
    };
    auto pm = certified(what, measure, ratio);
    return {std::move(pm.first.whole), std::move(pm.second.whole)};
}

std::pair<double, double> ImpactAnalyzer::dc_path_sensitivity(const std::string& tag,
                                                              const std::string& what,
                                                              double k_floor) {
    auto* noise = model_.netlist.find_as<circuit::VSource>(source_);
    const auto [plus, minus] =
        sensitivity_pair(tag, what, *noise, 0.0, kCalibrationDv, k_floor);
    const double k = (plus.fc - minus.fc) / (2.0 * kCalibrationDv);
    const double g =
        (plus.amplitude - minus.amplitude) / (2.0 * kCalibrationDv * baseline_.amplitude);
    return {k, g};
}

void ImpactAnalyzer::calibrate() {
    calibrated_ = false; // a capture that throws must not leave half an update
    set_noise_dc(0.0);
    log_info("impact: baseline oscillator run");
    auto measure = [&](bool full_window) {
        return record_split(model_.netlist, osc_window("cal0", full_window), full_window);
    };
    baseline_ = certified("baseline amplitude", measure, baseline_ratio).whole;
    log_info("impact: fc = %.6g Hz, amplitude = %.4g V", baseline_.fc,
             baseline_.amplitude);

    auto [k, g] = dc_path_sensitivity("cal", "K_src", 0.0);
    k_src_ = k;
    g_src_ = g;
    log_info("impact: K_src = %.5g Hz/V, G_src = %.4g 1/V", k_src_, g_src_);

    xop_ = sim::operating_point(model_.netlist);
    calibrated_ = true;
}

rf::OscCapture ImpactAnalyzer::capture_noisy(double fnoise, double min_periods) {
    rf::OscOptions osc = osc_tagged(format("sim_%g", fnoise));
    osc.capture = std::max(osc.capture, min_periods / fnoise);
    return rf::capture_oscillator(model_.netlist, osc);
}

void ImpactAnalyzer::calibrate_paths() {
    SNIM_ASSERT(calibrated_, "call calibrate() first");
    paths_.clear();
    std::vector<PathSensitivity> paths; // published only once every capture ran

    // Leave-one-out DC sensitivities.  A path with short_prefixes is
    // ablated by shorting those wire resistances ONLY (the ground path:
    // removing its taps would unground the substrate); otherwise its
    // coupling devices are disabled.
    for (size_t ei = 0; ei < entries_.size(); ++ei) {
        const auto& e = entries_[ei];
        std::vector<circuit::Device*> devices;
        if (e.short_prefixes.empty()) devices = coupling_devices(e);
        std::vector<std::pair<circuit::Resistor*, double>> shorted;
        const double rcond_floor = opt_.osc.certify.rcond_min;
        Restore restore_model([&] {
            opt_.osc.certify.rcond_min = rcond_floor;
            for (auto* d : devices) d->set_disabled(false);
            for (auto& [r, value] : shorted) r->set_resistance(value);
        });
        for (const auto& prefix : e.short_prefixes) {
            for (const auto& d : model_.netlist.devices()) {
                if (!starts_with_nocase(d->name(), prefix)) continue;
                if (auto* r = dynamic_cast<circuit::Resistor*>(d.get())) {
                    shorted.emplace_back(r, r->resistance());
                    r->set_resistance(1e-4);
                }
            }
        }
        log_info("impact: path '%s' -> %zu coupling devices, %zu shorted resistors",
                 e.label.c_str(), devices.size(), shorted.size());
        for (auto* d : devices) d->set_disabled(true);
        // The ablated netlist intentionally spans the full conductance range
        // (1e-4 ohm shorted taps against gmin anchors), so the global
        // condition estimate collapses by construction.  Suspend the rcond
        // certificate floor for the leave-one-out runs; the backward-error
        // gate still certifies every solve.
        opt_.osc.certify.rcond_min = 0.0;
        // K_wo enters only through k_res = K_src - K_wo, so its certificate
        // is scaled by |K_src| when the ablation leaves K_wo small.
        const auto [k_wo, g_wo] =
            dc_path_sensitivity(format("wo%zu", ei),
                                format("leave-one-out '%s'", e.label.c_str()),
                                std::fabs(k_src_));

        PathSensitivity p;
        p.label = e.label;
        p.k_res = k_src_ - k_wo;
        p.g_res = g_src_ - g_wo;
        paths.push_back(p);
        log_info("impact: K(%s) = %.5g Hz/V (leave-one-out)", e.label.c_str(), p.k_res);
    }

    // Capacitive paths (no DC footprint): measure the oscillator lever
    // d f / d(entry variable) by perturbing the path's lever source at DC.
    const double kref = std::fabs(k_src_);
    std::unordered_map<std::string, double> lever_cache;
    for (size_t i = 0; i < paths.size(); ++i) {
        if (std::fabs(paths[i].k_res) >= kResistiveThreshold * kref) continue;
        paths[i].capacitive = true;
        const std::string& src = entries_[i].lever_source;
        if (src.empty()) continue;
        auto it = lever_cache.find(src);
        if (it == lever_cache.end()) {
            auto* v = model_.netlist.find_as<circuit::VSource>(src);
            SNIM_ASSERT(v != nullptr, "lever source '%s' is not a V source", src.c_str());
            const auto [plus, minus] = sensitivity_pair(
                format("lever%zu", i), format("lever '%s'", src.c_str()), *v,
                v->waveform().dc_value(), kLeverDv, 0.0);
            const double lever = (plus.fc - minus.fc) / (2.0 * kLeverDv);
            it = lever_cache.emplace(src, lever).first;
            log_info("impact: lever(%s) = %.5g Hz/V", src.c_str(), lever);
        }
        paths[i].lever = it->second;
    }
    paths_ = std::move(paths);
}

std::complex<double> ImpactAnalyzer::entry_transfer(
    size_t entry, double fnoise, const std::vector<const circuit::Device*>* exclude) {
    const auto& e = entries_[entry];
    SNIM_ASSERT(!e.observe_nodes.empty(), "entry '%s' has no observation node",
                e.label.c_str());
    const auto tr = sim::transfer_multi(model_.netlist, source_, e.observe_nodes,
                                        {fnoise}, xop_, exclude);
    std::complex<double> h = tr[0].h[0];
    if (e.observe_nodes.size() > 1) h -= tr[1].h[0];
    return h;
}

std::vector<std::complex<double>> ImpactAnalyzer::entry_transfers(double fnoise) {
    SNIM_ASSERT(calibrated_, "call calibrate() first");
    std::vector<std::complex<double>> out;
    out.reserve(entries_.size());
    for (size_t i = 0; i < entries_.size(); ++i)
        out.push_back(entry_transfer(i, fnoise, nullptr));
    return out;
}

std::complex<double> ImpactAnalyzer::isolated_entry_transfer(size_t entry,
                                                             double fnoise) {
    // All OTHER paths' coupling devices removed so only this path injects.
    std::vector<const circuit::Device*> exclude;
    for (size_t o = 0; o < entries_.size(); ++o) {
        if (o == entry) continue;
        for (auto* d : coupling_devices(entries_[o])) {
            if (std::find(exclude.begin(), exclude.end(), d) == exclude.end())
                exclude.push_back(d);
        }
    }
    return entry_transfer(entry, fnoise, exclude.empty() ? nullptr : &exclude);
}

ImpactPrediction ImpactAnalyzer::predict(double fnoise) {
    SNIM_ASSERT(calibrated_, "call calibrate() first");
    SNIM_ASSERT(fnoise > 0, "noise frequency must be positive");

    ImpactPrediction out;
    out.fnoise = fnoise;
    out.fc = baseline_.fc;
    out.carrier_amp = baseline_.amplitude;
    const double a = kNoiseAmplitude;

    // Resistive total: frequency-flat deviation -> beta ~ 1/fn.  The
    // capacitive paths sit tens of dB below the resistive mechanism in the
    // studied band (the paper's central finding); they are reported as
    // parts but deliberately not folded into the total, whose accuracy
    // rests on the well-conditioned DC path sensitivity.
    const std::complex<double> beta(k_src_ * a / fnoise, 0.0);
    const std::complex<double> m(g_src_ * a, 0.0);

    out.freq_dev = std::abs(beta) * fnoise;
    out.am_dev = std::abs(m) * out.carrier_amp;
    out.right_amp = 0.5 * out.carrier_amp * std::abs(m + beta);
    out.left_amp = 0.5 * out.carrier_amp * std::abs(std::conj(m) - std::conj(beta));

    for (size_t i = 0; i < paths_.size(); ++i) {
        const auto& p = paths_[i];
        ImpactPrediction::Part part;
        part.label = p.label;
        part.capacitive = p.capacitive;
        double beta_p;
        if (p.capacitive) {
            // Only this path's coupling active: the isolated transfer is
            // the direct capacitive pickup, free of ground-bounce ride.
            const auto h = isolated_entry_transfer(i, fnoise);
            beta_p = std::fabs(p.lever) * std::abs(h) * a / fnoise;
        } else {
            beta_p = std::fabs(p.k_res) * a / fnoise;
        }
        part.fm_spur_amp = 0.5 * out.carrier_amp * beta_p;
        part.am_spur_amp = 0.5 * out.carrier_amp * std::fabs(p.g_res) * a;
        out.parts.push_back(part);
    }
    return out;
}

rf::SpurResult ImpactAnalyzer::simulate(double fnoise) {
    SNIM_ASSERT(calibrated_, "call calibrate() first");
    SNIM_ASSERT(fnoise > 0, "noise frequency must be positive");
    set_noise_sin(kNoiseAmplitude, fnoise);
    auto cap = capture_noisy(fnoise, kCapturePeriods);
    set_noise_dc(0.0);
    return rf::measure_spur(cap, fnoise);
}

} // namespace snim::core
