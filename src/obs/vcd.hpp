// Waveform export: VCD (IEEE 1364 value-change dump, real-valued vars) and
// CSV writers plus a small VCD reader for round-trip checks.
//
// This is how "waveforms at every substrate-interface node and circuit
// node" — the paper's deliverable — leave the process: transient probe
// waves and solver-health time-series channels become signals a designer
// opens in GTKWave / Surfer, or greps as CSV.  Signals carry independent
// time axes (a solver channel samples per accepted step, a probe per
// recorded stride); the writers merge them onto one monotone axis.
//
// Unlike the rest of obs/, this module has no registry dependency:
// waveform export works with the registry off too (TranResult waves exist
// regardless of instrumentation).
#pragma once

#include <string>
#include <vector>

#include "obs/timeseries.hpp"

namespace snim::obs {

/// One real-valued signal with its own (monotone non-decreasing) time axis.
struct WaveSignal {
    std::string name;           // "vgnd_dev", "sim/transient/newton_iters"
    std::string unit;           // optional; becomes a VCD comment
    std::vector<double> time;   // seconds
    std::vector<double> value;
};

/// Builds the VCD document.  `timescale_s` is the tick length in seconds;
/// <= 0 picks one automatically (the largest of 1fs/1ps/1ns/1us that still
/// resolves the smallest time delta).  Raises on an empty signal list, a
/// name used twice, size-mismatched time/value vectors or time running
/// backwards within a signal.
std::string vcd_document(const std::vector<WaveSignal>& signals,
                         double timescale_s = 0.0);

/// Writes `vcd_document(signals, timescale_s)` to `path`; raises on I/O
/// failure.
void write_vcd(const std::string& path, const std::vector<WaveSignal>& signals,
               double timescale_s = 0.0);

/// Parses a VCD document produced by vcd_document (real vars, one scope).
/// Returns the signals with time in seconds, in declaration order.
std::vector<WaveSignal> parse_vcd(const std::string& document);

/// Reads and parses a VCD file; raises on I/O failure.
std::vector<WaveSignal> read_vcd(const std::string& path);

/// Writes the signals as CSV: a merged "time" column plus one column per
/// signal.  Between a signal's samples its last value is held; cells before
/// its first sample are empty.  Raises on I/O failure or invalid signals.
void write_wave_csv(const std::string& path, const std::vector<WaveSignal>& signals);

/// Converts a time-series channel snapshot into a wave signal.  A channel
/// whose abscissa is not monotone (solver channels restart their clock on
/// every engine run within a scenario) falls back to the sample index so
/// the result is always VCD-exportable.
WaveSignal wave_from_timeseries(const TimeSeries& ts);

} // namespace snim::obs
