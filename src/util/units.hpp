// Unit helpers and physical constants used throughout the library.
//
// Internal conventions:
//   * geometry in micrometres (um) inside layout/geom, converted to metres
//     at extraction boundaries;
//   * electrical quantities in SI (V, A, ohm, F, H, Hz, s).
#pragma once

#include <cmath>

namespace snim::units {

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kTwoPi = 2.0 * kPi;

/// Vacuum permittivity [F/m].
inline constexpr double kEps0 = 8.8541878128e-12;
/// Relative permittivity of SiO2.
inline constexpr double kEpsOx = 3.9;
/// Relative permittivity of silicon.
inline constexpr double kEpsSi = 11.7;
/// Boltzmann constant [J/K].
inline constexpr double kBoltzmann = 1.380649e-23;
/// Elementary charge [C].
inline constexpr double kQ = 1.602176634e-19;
/// Thermal voltage at 300 K [V].
inline constexpr double kVt300 = 0.025852;

/// Power ratio in dB (P in W or ratio of powers).
inline double db10(double power_ratio) { return 10.0 * std::log10(power_ratio); }
/// Amplitude ratio in dB.
inline double db20(double amp_ratio) { return 20.0 * std::log10(amp_ratio); }
inline double from_db10(double db) { return std::pow(10.0, db / 10.0); }
inline double from_db20(double db) { return std::pow(10.0, db / 20.0); }

/// dBm for a sinusoid of amplitude `amp` volts across `rload` ohms.
double dbm_from_amplitude(double amp, double rload = 50.0);
/// Amplitude in volts of a sinusoid dissipating `dbm` in `rload` ohms.
double amplitude_from_dbm(double dbm, double rload = 50.0);

} // namespace snim::units
