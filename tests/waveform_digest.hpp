// Frozen-waveform digests shared by the transient tests: FNV-1a over the
// bytes of a TranResult, so a frozen value pins a waveform bit for bit,
// and the VCO calibration-capture options the frozen digests are taken on.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/provenance.hpp"
#include "rf/oscillator.hpp"
#include "sim/transient.hpp"
#include "testcases/vco.hpp"

namespace snim::sim {

/// FNV-1a over the bytes of `v`, continuing from `h`.
inline uint64_t digest_doubles(const std::vector<double>& v, uint64_t h) {
    return obs::fnv1a64(std::string_view(reinterpret_cast<const char*>(v.data()),
                                         v.size() * sizeof(double)),
                        h);
}

/// FNV-1a over the bytes of `time` and then of every probe wave, in probe
/// order: a frozen digest pins a waveform bit for bit.
inline uint64_t waveform_digest(const TranResult& r) {
    uint64_t h = digest_doubles(r.time, 0xcbf29ce484222325ull);
    for (const auto& w : r.waves) h = digest_doubles(w, h);
    return h;
}

/// waveform_digest() continued over the node-average vector.
inline uint64_t capture_digest(const TranResult& r) {
    return digest_doubles(r.average, waveform_digest(r));
}

/// record_oscillator()'s transient options for a vco_osc_options() capture
/// of `settle` + `capture` seconds.
inline TranOptions vco_capture_options(double settle, double capture) {
    const rf::OscOptions osc = testcases::vco_osc_options();
    TranOptions vo;
    vo.dt = osc.dt;
    vo.tstop = settle + capture;
    vo.record_start = settle;
    vo.accumulate_average = true;
    return vo;
}

/// waveform_digest() of the nominal VCO impact model over the first
/// calibration capture's quarter window (vco_capture_options() of settle/4
/// and capture/4 of vco_osc_options(), 6,750 steps of 10 ps), probing both
/// tank outputs.
inline constexpr uint64_t kVcoQuarterWindowDigest = 0xcfecda685e598f84ull;

} // namespace snim::sim
