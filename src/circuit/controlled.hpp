// Linear controlled sources: VCCS (G element) and VCVS (E element).  Used by
// behavioural macromodels and tests.
#pragma once

#include "circuit/device.hpp"

namespace snim::circuit {

/// Voltage-controlled current source: i(out_p -> out_n) = gm * v(cp, cn).
class Vccs : public Device {
public:
    Vccs(std::string name, NodeId out_p, NodeId out_n, NodeId cp, NodeId cn, double gm);

    double gm() const { return gm_; }

    void stamp_dc(RealStamper& s, const std::vector<double>& x) const override;
    void stamp_ac(ComplexStamper& s, const std::vector<double>& xop,
                  double omega) const override;
    std::string card(const NodeNamer& nn) const override;

private:
    double gm_;
};

/// Voltage-controlled voltage source: v(out_p) - v(out_n) = gain * v(cp, cn).
class Vcvs : public Device {
public:
    Vcvs(std::string name, NodeId out_p, NodeId out_n, NodeId cp, NodeId cn,
         double gain);

    double gain() const { return gain_; }
    size_t aux_count() const override { return 1; }

    void stamp_dc(RealStamper& s, const std::vector<double>& x) const override;
    void stamp_ac(ComplexStamper& s, const std::vector<double>& xop,
                  double omega) const override;
    std::string card(const NodeNamer& nn) const override;

private:
    double gain_;
};

} // namespace snim::circuit
