#include <gtest/gtest.h>

#include <cmath>

#include "circuit/controlled.hpp"
#include "circuit/diode.hpp"
#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "rf/oscillator.hpp"
#include "rf/phase_noise.hpp"
#include "rf/spur.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace snim::rf {
namespace {

using namespace snim::circuit;
using snim::units::kTwoPi;

// Synthetic FM/AM-modulated carrier for demodulation tests.
std::vector<double> modulated_carrier(size_t n, double fs, double fc, double ac,
                                      double fn, double beta, double m,
                                      double dc = 0.0) {
    std::vector<double> x(n);
    for (size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i) / fs;
        const double env = ac * (1.0 + m * std::cos(kTwoPi * fn * t));
        const double phase = kTwoPi * fc * t + beta * std::sin(kTwoPi * fn * t);
        x[i] = dc + env * std::cos(phase);
    }
    return x;
}

OscCapture make_capture(std::vector<double> wave, double fs, double fc, double ac,
                        double dc) {
    OscCapture cap;
    cap.wave = std::move(wave);
    cap.fs = fs;
    cap.fc = fc;
    cap.amplitude = ac;
    cap.mean = dc;
    return cap;
}

TEST(OscillatorToolsTest, InstantaneousFrequencyOfPureTone) {
    const double fs = 100e9, fc = 2.5e9;
    auto w = modulated_carrier(20000, fs, fc, 1.0, 1e6, 0.0, 0.0);
    auto inst = instantaneous_frequency(w, fs, 0.0);
    ASSERT_GT(inst.size(), 100u);
    for (size_t k = 10; k < inst.size() - 10; ++k)
        EXPECT_NEAR(inst[k].second, fc, 2e-4 * fc);
}

TEST(OscillatorToolsTest, EnvelopeOfAmCarrier) {
    const double fs = 100e9, fc = 2.0e9, fn = 20e6;
    auto w = modulated_carrier(50000, fs, fc, 0.8, fn, 0.0, 0.1);
    auto env = envelope(w, fs, 0.0);
    ASSERT_GT(env.size(), 100u);
    const auto fit = fit_tone(env, fn);
    EXPECT_NEAR(fit.offset, 0.8, 0.01);
    EXPECT_NEAR(fit.amplitude, 0.08, 0.008);
}

TEST(OscillatorToolsTest, ToneFitRecoversTrend) {
    std::vector<std::pair<double, double>> samples;
    const double f = 3e6;
    for (int i = 0; i < 400; ++i) {
        const double t = i * 1e-9;
        samples.emplace_back(t, 2.0 + 5e4 * t + 0.3 * std::cos(kTwoPi * f * t + 0.5));
    }
    const auto fit = fit_tone(samples, f);
    EXPECT_NEAR(fit.amplitude, 0.3, 1e-3);
    EXPECT_NEAR(fit.phase, 0.5, 1e-2);
    EXPECT_NEAR(fit.trend, 5e4, 2e3);
    EXPECT_NEAR(fit.offset, 2.0 + 5e4 * 200e-9, 0.01); // centred time origin
}

TEST(OscillatorToolsTest, MeasureCarrierRecoversSyntheticTone) {
    // Closed-form oracle: a cosine on a DC offset with two odd harmonics,
    // on windows that hold no whole number of periods.
    const double fs = 100e9, fc = 2.9137e9, ac = 0.8, dc = 0.3;
    OscOptions opt;
    opt.f_min = 1e9;
    opt.f_max = 6e9;
    for (double window : {15e-9, 37.5e-9, 150e-9}) {
        SCOPED_TRACE(window);
        OscCapture cap;
        cap.fs = fs;
        const auto n = static_cast<size_t>(std::lround(window * fs));
        for (size_t i = 0; i < n; ++i) {
            const double ph = kTwoPi * fc * static_cast<double>(i) / fs + 0.4;
            cap.wave.push_back(dc + ac * std::cos(ph) +
                               0.05 * ac * std::cos(3.0 * ph + 1.0) +
                               0.01 * ac * std::cos(5.0 * ph - 0.5));
        }
        measure_carrier(cap, opt);
        EXPECT_NEAR(cap.fc, fc, 1e-6 * fc);
        EXPECT_NEAR(cap.amplitude, ac, 1e-5 * ac);
        EXPECT_NEAR(cap.mean, dc, 0.01 * ac);
    }
}

TEST(SpurTest, PureFmDemodulation) {
    const double fs = 200e9, fc = 3e9, fn = 10e6;
    const double beta = 2e-3;
    auto cap = make_capture(modulated_carrier(100000, fs, fc, 1.2, fn, beta, 0.0), fs,
                            fc, 1.2, 0.0);
    auto spur = measure_spur(cap, fn);
    EXPECT_NEAR(spur.freq_dev, beta * fn, 0.05 * beta * fn);
    // Pure FM: anti-symmetric sidebands of equal magnitude Ac*beta/2.
    EXPECT_NEAR(spur.left_amp, 0.5 * 1.2 * beta, 0.1 * 0.5 * 1.2 * beta);
    EXPECT_NEAR(spur.right_amp, spur.left_amp, 0.1 * spur.left_amp);
    EXPECT_LT(spur.am_dev, 0.1 * 1.2 * beta);
}

TEST(SpurTest, PureAmDemodulation) {
    const double fs = 200e9, fc = 3e9, fn = 10e6;
    const double m = 1e-3;
    auto cap = make_capture(modulated_carrier(100000, fs, fc, 1.0, fn, 0.0, m), fs, fc,
                            1.0, 0.0);
    auto spur = measure_spur(cap, fn);
    EXPECT_NEAR(spur.am_dev, m, 0.1 * m);
    EXPECT_NEAR(spur.left_amp, 0.5 * m, 0.15 * 0.5 * m);
    EXPECT_LT(spur.freq_dev, 0.2 * m * fn);
}

TEST(SpurTest, BasebandFeedthroughRejected) {
    // Additive tone at fn (direct coupling) must not read as FM/AM.
    const double fs = 200e9, fc = 3e9, fn = 10e6;
    auto w = modulated_carrier(100000, fs, fc, 1.0, fn, 0.0, 0.0);
    for (size_t i = 0; i < w.size(); ++i)
        w[i] += 5e-3 * std::cos(kTwoPi * fn * static_cast<double>(i) / fs);
    auto cap = make_capture(std::move(w), fs, fc, 1.0, 0.0);
    auto spur = measure_spur(cap, fn);
    EXPECT_LT(spur.left_amp, 1e-4);
    EXPECT_LT(spur.right_amp, 1e-4);
}

TEST(SpurTest, SpectralMatchesDemodOnSyntheticFm) {
    const double fs = 100e9, fc = 2.5e9, fn = 50e6;
    const double beta = 5e-3;
    auto cap = make_capture(modulated_carrier(1 << 16, fs, fc, 1.0, fn, beta, 0.0), fs,
                            fc, 1.0, 0.0);
    auto d = measure_spur(cap, fn);
    auto s = measure_spur_spectral(cap, fn);
    EXPECT_NEAR(d.left_dbc(), s.left_dbc(), 1.0);
    EXPECT_NEAR(d.right_dbc(), s.right_dbc(), 1.0);
}

TEST(SpurTest, CaptureTooShortThrows) {
    auto cap = make_capture(modulated_carrier(1000, 100e9, 2e9, 1.0, 1e6, 0, 0), 100e9,
                            2e9, 1.0, 0.0);
    EXPECT_THROW(measure_spur(cap, 1e4), Error); // < 1.5 periods in window
}

TEST(CaptureTest, VccsLcOscillator) {
    // Cross-coupled VCCS pair on an LC tank: a minimal oscillator the
    // capture pipeline must lock onto.  gm > 1/Rp for startup.
    Netlist nl;
    const auto a = nl.node("a");
    const auto b = nl.node("b");
    nl.add<Inductor>("la", a, kGround, 4e-9, 2.0);
    nl.add<Inductor>("lb", b, kGround, 4e-9, 2.0);
    nl.add<Capacitor>("ca", a, kGround, 1e-12);
    nl.add<Capacitor>("cb", b, kGround, 1e-12);
    // Cross-coupled negative resistance; anti-parallel diodes across the
    // tank clamp the amplitude (a linear model would grow without bound).
    nl.add<Vccs>("gma", a, kGround, b, kGround, 20e-3);
    nl.add<Vccs>("gmb", b, kGround, a, kGround, 20e-3);
    nl.add<Resistor>("rsat_a", a, kGround, 2000.0);
    nl.add<Resistor>("rsat_b", b, kGround, 2000.0);
    nl.add<Diode>("dlim1", a, b, DiodeModel{});
    nl.add<Diode>("dlim2", b, a, DiodeModel{});
    nl.add<ISource>("kick", kGround, a,
                    Waveform::pwl({{0.0, 0.0}, {0.05e-9, 2e-3}, {0.1e-9, 0.0}}));

    OscOptions opt;
    opt.probe_p = "a";
    opt.probe_n = "b";
    opt.dt = 5e-12;
    opt.settle = 10e-9;
    opt.capture = 30e-9;
    opt.f_min = 1e9;
    opt.f_max = 5e9;
    auto cap = capture_oscillator(nl, opt);
    // Hard diode clamping pulls the frequency well below the small-signal
    // LC resonance; the capture just has to lock onto the real oscillation.
    const double f0 = 1.0 / (units::kTwoPi * std::sqrt(4e-9 * 1e-12));
    EXPECT_GT(cap.fc, 0.5 * f0);
    EXPECT_LT(cap.fc, 1.1 * f0);
    EXPECT_GT(cap.amplitude, 0.01);
    EXPECT_EQ(cap.node_avg.size(), nl.unknown_count());
}

TEST(CaptureTest, NonOscillatingCircuitThrows) {
    Netlist nl;
    nl.add<VSource>("v1", nl.node("a"), kGround, Waveform::dc(1.0));
    nl.add<Resistor>("r1", nl.node("a"), nl.node("b"), 100.0);
    nl.add<Capacitor>("c1", nl.node("b"), kGround, 1e-12);
    OscOptions opt;
    opt.probe_p = "b";
    opt.settle = 1e-9;
    opt.capture = 5e-9;
    EXPECT_THROW(capture_oscillator(nl, opt), Error);
}

TEST(PhaseNoiseTest, QFromResonance) {
    // Synthetic Lorentzian-ish resonance with Q = 25.
    const double f0 = 1e9, q = 25.0;
    std::vector<double> freq, mag;
    for (double f = 0.8e9; f <= 1.2e9; f += 1e6) {
        const double x = 2.0 * q * (f - f0) / f0;
        freq.push_back(f);
        mag.push_back(1.0 / std::sqrt(1.0 + x * x));
    }
    EXPECT_NEAR(q_from_resonance(freq, mag), q, 0.05 * q);
}

TEST(PhaseNoiseTest, LeesonSlopes) {
    LeesonInputs in;
    in.fc = 3e9;
    in.q_loaded = 10.0;
    in.psig_dbm = 5.0;
    in.flicker_corner = 50e3;
    const double l100k = leeson_phase_noise(in, 100e3);
    const double l1m = leeson_phase_noise(in, 1e6);
    // -20 dB/dec in the 1/f^2 region.
    EXPECT_NEAR(l100k - l1m, 20.0, 2.5);
    // Order of magnitude sanity for a 3 GHz LC oscillator.
    EXPECT_LT(l100k, -80.0);
    EXPECT_GT(l100k, -130.0);
    EXPECT_THROW(leeson_phase_noise(in, -1.0), Error);
}

class FmBetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(FmBetaSweep, DemodulationIsLinearInBeta) {
    const double beta = GetParam();
    const double fs = 200e9, fc = 3e9, fn = 20e6;
    auto cap = make_capture(modulated_carrier(80000, fs, fc, 1.0, fn, beta, 0.0), fs,
                            fc, 1.0, 0.0);
    auto spur = measure_spur(cap, fn);
    EXPECT_NEAR(spur.freq_dev, beta * fn, 0.08 * beta * fn + 200.0);
}

INSTANTIATE_TEST_SUITE_P(Betas, FmBetaSweep,
                         ::testing::Values(1e-4, 1e-3, 1e-2, 5e-2));

} // namespace
} // namespace snim::rf
