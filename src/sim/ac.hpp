// Small-signal AC sweep around a DC operating point.
#pragma once

#include <complex>

#include "circuit/netlist.hpp"
#include "obs/certify.hpp"

namespace snim::sim {

struct AcResult {
    std::vector<double> freq;                              // [Hz]
    std::vector<std::vector<std::complex<double>>> x;      // per-freq full solution

    /// Complex node voltage at sweep point `k`.
    std::complex<double> at(size_t k, circuit::NodeId node) const;
};

struct AcOptions {
    double gmin = 1e-12;
    /// Devices skipped during assembly (coupling-path ablation).
    const std::vector<const circuit::Device*>* exclude = nullptr;
    /// Worker threads for the frequency sweep; 0 -> util::default_thread_count()
    /// (the SNIM_THREADS environment override).  Results and recorded obs
    /// metrics are bit-identical for every thread count.
    int threads = 0;
    /// Per-solve certificates on every obs::kCertifyStride-th frequency
    /// point (backward error on the complex system, condition estimate,
    /// counted refinement).  Active only while the obs registry is enabled;
    /// workers certify their own points, the ledger aggregation is
    /// commutative so results stay thread-count independent.
    obs::CertifyOptions certify;
};

/// Runs the AC sweep; `xop` is a converged operating point from
/// operating_point().  Sources stamp their AcSpec excitations.
AcResult ac_sweep(circuit::Netlist& netlist, const std::vector<double>& freqs,
                  const std::vector<double>& xop, const AcOptions& opt = {});

} // namespace snim::sim
