// The impact simulator: two independent estimates of substrate-noise spurs
// on an oscillator victim.
//
//  * simulate(): brute-force time domain -- noise source on, full transient,
//    FM/AM demodulation (the paper's "impact simulator" output; our stand-in
//    for the silicon measurement is the independent spectral readout of the
//    same engine).
//  * predict(): the paper's eqs. (2)/(3): resistive coupling is frequency-
//    flat, so one DC path-sensitivity K_src = d f_osc / d V_noise captures
//    every resistive entry with all circuit "ride" ratios exact, giving
//    FM spurs proportional to 1/fnoise.  Capacitive paths are measured by
//    leave-one-out ablation at a reference frequency and extrapolated flat.
//
// Per-entry contributions (Figure 9) come from leave-one-out ablation: the
// entry's coupling devices are disabled and the drop in K_src (or in the
// demodulated sidebands at the reference frequency) is its contribution.
//
// Calibration window rule: every calibration capture (the baseline, the
// +-kCalibrationDv pair, the leave-one-out and lever pairs) first runs on a
// quarter of opt.osc's settle and capture.  A split-window certificate --
// the carrier measured on each half of the recorded waves -- decides whether
// that short result holds; if not, the measurement is re-run once on
// opt.osc itself, whose values are then exactly the single-window ones.
#pragma once

#include <complex>

#include "core/impact_flow.hpp"
#include "rf/spur.hpp"

namespace snim::circuit {
class VSource;
} // namespace snim::circuit

namespace snim::core {

/// A noise entry: one physical coupling path into the victim.
struct NoiseEntry {
    std::string label; // "ground interconnect", "NMOS back-gate", ...
    /// Observation nodes: the entry variable is V(observe_nodes[0]) minus
    /// V(observe_nodes[1]) when a second node is given (relative coordinate
    /// that cancels common-mode ground bounce), else the absolute voltage.
    std::vector<std::string> observe_nodes;
    /// For capacitive paths: a V source whose DC perturbation measures the
    /// oscillator's lever for this entry variable (e.g. the board-side
    /// tuning source measures d f / d(vtune - vgnd)).  Empty -> the path is
    /// quantified by its DC leave-one-out sensitivity only.
    std::string lever_source;
    /// Coupling-element identification for ablation: substrate macromodel
    /// devices ("sub:*") touching these nodes belong to this path...
    std::vector<std::string> coupling_nodes;
    /// ...as do devices whose name starts with one of these prefixes
    /// (extracted wire capacitances are named "c:<net>#k").
    std::vector<std::string> coupling_prefixes;
    /// Resistors with these name prefixes are SHORTED (not removed) for
    /// this path's ablation.  This is how the ground-interconnect path is
    /// isolated: the paper's mechanism is the voltage drop over the wire's
    /// parasitic resistance, so its ablation is the ideal (0 ohm) wire --
    /// removing the taps instead would unground the substrate and distort
    /// every other path.
    std::vector<std::string> short_prefixes;
};

/// One coupling path's calibrated strength.
struct PathSensitivity {
    std::string label;
    /// DC path sensitivity drop: K_res = K_src(full) - K_src(without path)
    /// [Hz/V].  Meaningful for resistive paths.
    double k_res = 0.0;
    /// AM counterpart [1/V].
    double g_res = 0.0;
    /// Oscillator lever d f / d(entry variable) [Hz/V] measured through the
    /// path's lever source (capacitive paths).
    double lever = 0.0;
    /// True when the path has no DC footprint and is quantified by
    /// lever * |H_rel(f)| instead of K_res.
    bool capacitive = false;
};

struct ImpactPrediction {
    double fnoise = 0.0;
    double fc = 0.0;
    double carrier_amp = 0.0;
    double freq_dev = 0.0; // predicted peak frequency deviation [Hz]
    double am_dev = 0.0;   // predicted peak envelope deviation [V]

    struct Part {
        std::string label;
        double fm_spur_amp = 0.0; // V peak at the sidebands, this path alone
        double am_spur_amp = 0.0;
        bool capacitive = false;
        double spur_dbc(double carrier) const;
    };
    std::vector<Part> parts;

    double left_amp = 0.0;  // combined sideband at fc - fnoise [V peak]
    double right_amp = 0.0; // combined sideband at fc + fnoise [V peak]

    double left_dbc() const;
    double right_dbc() const;
    double total_dbm(double rload = 50.0) const;
};

/// DC perturbation of the noise source for the path sensitivity [V]: the
/// calibration pairs run at +-kCalibrationDv.
inline constexpr double kCalibrationDv = 0.356;
/// Amplitude of the noise source used by simulate(); predict() scales to
/// the same drive [V]: -5 dBm available power from 50 ohm.
inline constexpr double kNoiseAmplitude = 0.356;

struct AnalyzerOptions {
    rf::OscOptions osc;
};

class ImpactAnalyzer {
public:
    /// `noise_source` names the V source driving the injection contact; its
    /// waveform is managed by this class.
    ImpactAnalyzer(ImpactModel& model, std::string noise_source,
                   std::vector<NoiseEntry> entries, AnalyzerOptions opt);

    /// Baseline oscillator + total DC path sensitivity.  Required before
    /// predict()/simulate().  Leaves the noise source at 0 V DC; a capture
    /// that throws also leaves the analyzer uncalibrated.
    void calibrate();
    bool calibrated() const { return calibrated_; }

    /// Per-path leave-one-out calibration (needed for prediction Parts and
    /// the Figure-9 style contribution analysis): two DC oscillator runs
    /// per path plus two per distinct lever source.  A capture that throws
    /// restores every disabled device, shorted resistance, source value and
    /// the rcond floor before the error leaves.
    void calibrate_paths();
    bool paths_calibrated() const { return !paths_.empty(); }

    /// Fast methodology prediction (paper eqs. 2-3) at `fnoise`.
    ImpactPrediction predict(double fnoise);

    /// Reference "measurement": transient with the noise source active,
    /// demodulated at fnoise.
    rf::SpurResult simulate(double fnoise);

    /// AC transfer from the noise source to each entry variable (relative
    /// node combination) at `fnoise`, full coupled model.
    std::vector<std::complex<double>> entry_transfers(double fnoise);
    /// Same transfer with every OTHER path's coupling devices removed:
    /// the direct pickup of one path in isolation.
    std::complex<double> isolated_entry_transfer(size_t entry, double fnoise);

    const rf::OscCapture& baseline() const;
    double k_src() const { return k_src_; }
    double g_src() const { return g_src_; }
    const std::vector<PathSensitivity>& paths() const { return paths_; }
    const std::vector<NoiseEntry>& entries() const { return entries_; }
    const AnalyzerOptions& options() const { return opt_; }

private:
    void set_noise_dc(double value);
    void set_noise_sin(double amp, double freq);
    std::vector<circuit::Device*> coupling_devices(const NoiseEntry& e);
    std::complex<double> entry_transfer(size_t entry, double fnoise,
                                        const std::vector<const circuit::Device*>* exclude);
    /// Copy of opt_.osc with `suffix` appended to the checkpoint tag, so
    /// every capture in a calibration sequence snapshots to its own file.
    rf::OscOptions osc_tagged(const std::string& suffix) const;
    /// Options of one calibration capture: opt_.osc tagged `suffix`, or on
    /// the quarter window (settle/4 + capture/4) tagged `suffix.q`.
    rf::OscOptions osc_window(const std::string& suffix, bool full_window) const;
    /// Captures at center +- dv on `source` under the calibration window
    /// rule, with the current enable/disable state.  `tag` names the
    /// checkpoint files of the pair and `what` its log lines and budget
    /// detail; the certificate scales the halves' K disagreement by
    /// max(|K|, k_floor).  `source` is restored on exit.
    std::pair<rf::OscCapture, rf::OscCapture> sensitivity_pair(
        const std::string& tag, const std::string& what, circuit::VSource& source,
        double center, double dv, double k_floor);
    /// K_src/G_src measurement with the current enable/disable state.
    std::pair<double, double> dc_path_sensitivity(const std::string& tag,
                                                  const std::string& what,
                                                  double k_floor);
    rf::OscCapture capture_noisy(double fnoise, double min_periods);

    ImpactModel& model_;
    std::string source_;
    std::vector<NoiseEntry> entries_;
    AnalyzerOptions opt_;
    bool calibrated_ = false;
    rf::OscCapture baseline_;
    double k_src_ = 0.0;
    double g_src_ = 0.0;
    std::vector<PathSensitivity> paths_;
    std::vector<double> xop_;
};

} // namespace snim::core
