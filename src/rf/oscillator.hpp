// Oscillator measurement tools: steady-state capture, carrier frequency and
// amplitude estimation, and instantaneous frequency / envelope demodulation.
//
// Demodulation is the key to affordable spur measurement: instead of a very
// long FFT window to separate a -50 dBc spur from the carrier skirt, the
// waveform is FM/AM-demodulated (the paper's eq. (1) decomposition) and the
// modulation tone is fitted directly at the known noise frequency.
#pragma once

#include "circuit/netlist.hpp"
#include "sim/transient.hpp"

namespace snim::rf {

struct OscOptions {
    /// Probe node (single-ended) or pair for differential observation.
    std::string probe_p;
    std::string probe_n; // empty -> single-ended
    double dt = 10e-12;
    /// Settling time discarded before measurement.
    double settle = 300e-9;
    /// Captured (recorded) time span.
    double capture = 300e-9;
    /// Expected oscillation band, used to sanity-check the result [Hz].
    double f_min = 0.5e9;
    double f_max = 20e9;
    int order = 2;
    double gmin = 1e-12;
    /// Solve-certificate knob forwarded to the transient (and its internal
    /// operating-point solve).  Ablation experiments that intentionally
    /// produce extreme conductance spreads (shorted taps vs gmin anchors)
    /// relax certify.rcond_min here; the backward-error gate stays.
    obs::CertifyOptions certify;
    /// Checkpoint/restart knobs forwarded to the transient.  Callers that
    /// run several captures per process (analyzer calibration, bench
    /// corners) must give each capture a distinct `checkpoint.tag`.
    sim::CheckpointOptions checkpoint;
};

struct OscCapture {
    std::vector<double> wave; // probe waveform, uniformly sampled
    double fs = 0.0;          // sample rate
    double fc = 0.0;          // carrier frequency [Hz]
    double amplitude = 0.0;   // carrier amplitude [V peak]
    double mean = 0.0;        // DC value of the probe
    /// Average of the full unknown vector over the capture (quasi-DC levels
    /// of every node during oscillation).
    std::vector<double> node_avg;
};

/// Runs the transient and measures the oscillator: record_oscillator()
/// followed by measure_carrier().  Throws if no oscillation is detected
/// within [f_min, f_max] or amplitude is tiny.
OscCapture capture_oscillator(circuit::Netlist& netlist, const OscOptions& opt);

/// The transient half of capture_oscillator(): fills `wave`, `fs` and
/// `node_avg`, leaving the carrier estimate to measure_carrier().
OscCapture record_oscillator(circuit::Netlist& netlist, const OscOptions& opt);

/// Carrier estimate of a recorded wave (`wave` and `fs` set): the mean, a
/// coarse fc from zero crossings, a Blackman-Harris-windowed Goertzel
/// refine of fc, and the amplitude at it.  Fills `mean`, `fc` and
/// `amplitude`; raises on too few periods, an fc outside [f_min, f_max] or
/// a negligible amplitude.  Any stretch of a capture can be measured on its
/// own, which is how the analyzer certifies a short calibration window.
void measure_carrier(OscCapture& cap, const OscOptions& opt);

/// Instantaneous frequency samples from interpolated zero crossings of the
/// (DC-removed) waveform: returns pairs (t, f) at each full period.
std::vector<std::pair<double, double>> instantaneous_frequency(
    const std::vector<double>& wave, double fs, double mean);

/// Envelope samples (t, |peak|) from local extrema of the DC-removed wave.
std::vector<std::pair<double, double>> envelope(const std::vector<double>& wave,
                                                double fs, double mean);

/// Least-squares fit of y(t) ~ c + d t + a cos(2 pi f t) + b sin(2 pi f t)
/// over irregular samples; the linear trend term absorbs slow oscillator
/// settling so it cannot alias into the tone estimate.  Returns the tone
/// amplitude sqrt(a^2+b^2) and phase atan2(-b, a).
struct ToneFit {
    double amplitude = 0.0;
    double phase = 0.0;
    double offset = 0.0;
    double trend = 0.0; // per second
};
ToneFit fit_tone(const std::vector<std::pair<double, double>>& samples, double freq);

} // namespace snim::rf
