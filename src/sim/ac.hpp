// Small-signal AC sweep around a DC operating point.
#pragma once

#include <complex>

#include "circuit/netlist.hpp"

namespace snim::sim {

struct AcResult {
    std::vector<double> freq;                              // [Hz]
    std::vector<std::vector<std::complex<double>>> x;      // per-freq full solution

    /// Complex node voltage at sweep point `k`.
    std::complex<double> at(size_t k, circuit::NodeId node) const;
};

struct AcOptions {
    /// Devices skipped during assembly (coupling-path ablation).
    const std::vector<const circuit::Device*>* exclude = nullptr;
};

/// Runs the AC sweep; `xop` is a converged operating point from
/// operating_point().  Sources stamp their AcSpec excitations.  The
/// frequency points fan out over util::default_thread_count() workers (the
/// SNIM_THREADS override); results and recorded obs metrics are
/// bit-identical for every thread count.  While the obs registry is on,
/// every obs::kCertifyStride-th point carries a solve certificate
/// (backward error on the complex system, condition estimate, counted
/// refinement) at the default thresholds; workers certify their own
/// points and the ledger aggregation is commutative.
AcResult ac_sweep(circuit::Netlist& netlist, const std::vector<double>& freqs,
                  const std::vector<double>& xop, const AcOptions& opt = {});

} // namespace snim::sim
