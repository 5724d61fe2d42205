#include "rf/oscillator.hpp"

#include <cmath>

#include "dsp/goertzel.hpp"
#include "dsp/window.hpp"
#include "numeric/dense.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace snim::rf {

OscCapture capture_oscillator(circuit::Netlist& netlist, const OscOptions& opt) {
    OscCapture cap = record_oscillator(netlist, opt);
    measure_carrier(cap, opt);
    return cap;
}

OscCapture record_oscillator(circuit::Netlist& netlist, const OscOptions& opt) {
    SNIM_ASSERT(!opt.probe_p.empty(), "oscillator capture needs a probe");
    sim::TranOptions to;
    to.tstop = opt.settle + opt.capture;
    to.dt = opt.dt;
    to.record_start = opt.settle;
    to.accumulate_average = true;
    to.certify = opt.certify;
    to.checkpoint = opt.checkpoint;

    std::vector<std::string> probes{opt.probe_p};
    if (!opt.probe_n.empty()) probes.push_back(opt.probe_n);
    const auto res = sim::transient(netlist, probes, to);

    OscCapture cap;
    cap.fs = 1.0 / res.dt_sample;
    cap.node_avg = res.average;
    const auto& wp = res.waves[0];
    if (opt.probe_n.empty()) {
        cap.wave = wp;
    } else {
        cap.wave.resize(wp.size());
        for (size_t i = 0; i < wp.size(); ++i) cap.wave[i] = wp[i] - res.waves[1][i];
    }
    return cap;
}

void measure_carrier(OscCapture& cap, const OscOptions& opt) {
    double mean = 0.0;
    for (double v : cap.wave) mean += v;
    mean /= static_cast<double>(cap.wave.size());
    cap.mean = mean;

    // Coarse carrier frequency from zero crossings of the AC component.
    const auto inst = instantaneous_frequency(cap.wave, cap.fs, mean);
    if (inst.size() < 8)
        raise("oscillator capture: too few periods detected (%zu) -- not oscillating?",
              inst.size());
    double favg = 0.0;
    for (const auto& [t, f] : inst) favg += f;
    favg /= static_cast<double>(inst.size());
    if (!(favg > opt.f_min && favg < opt.f_max))
        raise("oscillator frequency %.4g Hz outside expected band [%.3g, %.3g]", favg,
              opt.f_min, opt.f_max);

    // Refine with windowed Goertzel around the coarse estimate.  The search
    // span must stay within the window's mainlobe (~8/T wide for
    // Blackman-Harris) or the golden-section search sees multiple lobes; the
    // zero-crossing estimate is far more accurate than that already.
    std::vector<double> ac(cap.wave.size());
    for (size_t i = 0; i < ac.size(); ++i) ac[i] = cap.wave[i] - mean;
    const auto w = dsp::make_window(dsp::WindowKind::BlackmanHarris4, ac.size());
    const double t_window = static_cast<double>(ac.size()) / cap.fs;
    const double span = std::min(0.02 * favg, 3.0 / t_window);
    cap.fc = dsp::refine_tone_frequency(ac, cap.fs, favg, span, w);
    cap.amplitude = dsp::tone_amplitude(ac, cap.fs, cap.fc, w);
    if (cap.amplitude < 1e-6)
        raise("oscillator capture: negligible amplitude %.3g V", cap.amplitude);
}

std::vector<std::pair<double, double>> instantaneous_frequency(
    const std::vector<double>& wave, double fs, double mean) {
    // Rising-edge zero crossings of (wave - mean) with linear interpolation;
    // each consecutive pair yields one (midpoint time, 1/period) sample.
    std::vector<double> crossings;
    for (size_t i = 1; i < wave.size(); ++i) {
        const double a = wave[i - 1] - mean;
        const double b = wave[i] - mean;
        if (a < 0.0 && b >= 0.0) {
            const double frac = a / (a - b);
            crossings.push_back((static_cast<double>(i - 1) + frac) / fs);
        }
    }
    std::vector<std::pair<double, double>> out;
    for (size_t k = 1; k < crossings.size(); ++k) {
        const double period = crossings[k] - crossings[k - 1];
        if (period <= 0) continue;
        out.emplace_back(0.5 * (crossings[k] + crossings[k - 1]), 1.0 / period);
    }
    return out;
}

std::vector<std::pair<double, double>> envelope(const std::vector<double>& wave,
                                                double fs, double mean) {
    // Local maxima of |wave - mean| with parabolic refinement.
    std::vector<std::pair<double, double>> out;
    for (size_t i = 1; i + 1 < wave.size(); ++i) {
        const double a = std::fabs(wave[i - 1] - mean);
        const double b = std::fabs(wave[i] - mean);
        const double c = std::fabs(wave[i + 1] - mean);
        if (b >= a && b > c) {
            const double denom = a - 2 * b + c;
            double peak = b;
            double shift = 0.0;
            if (denom < 0) {
                shift = 0.5 * (a - c) / denom;
                peak = b - 0.25 * (a - c) * shift;
            }
            out.emplace_back((static_cast<double>(i) + shift) / fs, peak);
        }
    }
    return out;
}

ToneFit fit_tone(const std::vector<std::pair<double, double>>& samples, double freq) {
    SNIM_ASSERT(samples.size() >= 5, "tone fit needs at least 5 samples (got %zu)",
                samples.size());
    SNIM_ASSERT(freq > 0, "tone fit needs a positive frequency");
    // Normal equations for y ~ c + d*(t-t0) + a cos(wt) + b sin(wt); the
    // time origin is centred to keep the system well conditioned.
    const double t0 = 0.5 * (samples.front().first + samples.back().first);
    const double tspan = std::max(samples.back().first - samples.front().first, 1e-30);
    DenseMatrix<double> m(4, 4);
    std::vector<double> rhs(4, 0.0);
    for (const auto& [t, y] : samples) {
        const double ct = std::cos(units::kTwoPi * freq * t);
        const double st = std::sin(units::kTwoPi * freq * t);
        const double basis[4] = {1.0, (t - t0) / tspan, ct, st};
        for (size_t i = 0; i < 4; ++i) {
            rhs[i] += basis[i] * y;
            for (size_t j = 0; j < 4; ++j) m(i, j) += basis[i] * basis[j];
        }
    }
    const auto sol = dense_solve(m, rhs);
    ToneFit fit;
    fit.offset = sol[0];
    fit.trend = sol[1] / tspan;
    fit.amplitude = std::hypot(sol[2], sol[3]);
    fit.phase = std::atan2(-sol[3], sol[2]);
    return fit;
}

} // namespace snim::rf
