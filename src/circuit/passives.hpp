// Linear passive devices: resistor, capacitor, inductor (with optional
// series resistance, the way on-chip spiral inductors are modelled).
#pragma once

#include "circuit/device.hpp"

namespace snim::circuit {

class Resistor : public Device {
public:
    Resistor(std::string name, NodeId a, NodeId b, double resistance);

    double resistance() const { return r_; }
    void set_resistance(double r);

    void stamp_dc(RealStamper& s, const std::vector<double>& x) const override;
    void stamp_ac(ComplexStamper& s, const std::vector<double>& xop,
                  double omega) const override;
    std::string card(const NodeNamer& nn) const override;

    /// Current flowing a -> b for solution `x`.
    double current(const std::vector<double>& x) const;

private:
    double r_;
};

class Capacitor : public Device {
public:
    Capacitor(std::string name, NodeId a, NodeId b, double capacitance);

    double capacitance() const { return c_; }

    // Integration state, read by the incremental assembler's compiled
    // refresh plan (which recomputes the companion stamp values without
    // replaying stamp_tran).
    double tran_v_prev() const { return v_prev_; }
    double tran_i_prev() const { return i_prev_; }

    void stamp_dc(RealStamper& s, const std::vector<double>& x) const override;
    void stamp_tran(RealStamper& s, const std::vector<double>& x,
                    const TranParams& tp) override;
    void init_tran(const std::vector<double>& x) override;
    void commit_tran(const std::vector<double>& x, const TranParams& tp) override;
    /// commit_tran with the companion conductance geq = kord * C / dt
    /// already formed (the incremental assembler keeps it per (dt, order)).
    void commit_companion(const std::vector<double>& x, double geq, int order) {
        const double v = volt(x, term(0)) - volt(x, term(1));
        const double i = (order == 2) ? geq * (v - v_prev_) - i_prev_ : geq * (v - v_prev_);
        v_prev_ = v;
        i_prev_ = i;
    }
    void save_tran_state(std::vector<double>& out) const override;
    void load_tran_state(const std::vector<double>& in, size_t& pos) override;
    void stamp_ac(ComplexStamper& s, const std::vector<double>& xop,
                  double omega) const override;
    Partition partition() const override { return Partition::LinearDynamic; }
    std::string card(const NodeNamer& nn) const override;

private:
    double c_;
    double v_prev_ = 0.0;
    double i_prev_ = 0.0;
};

/// Inductor with optional series resistance; adds one branch-current
/// unknown.  The branch equation is v_a - v_b - R i - L di/dt = 0.
class Inductor : public Device {
public:
    Inductor(std::string name, NodeId a, NodeId b, double inductance,
             double series_res = 0.0);

    double inductance() const { return l_; }
    double series_res() const { return rs_; }

    size_t aux_count() const override { return 1; }

    void stamp_dc(RealStamper& s, const std::vector<double>& x) const override;
    void stamp_tran(RealStamper& s, const std::vector<double>& x,
                    const TranParams& tp) override;
    void init_tran(const std::vector<double>& x) override;
    void commit_tran(const std::vector<double>& x, const TranParams& tp) override;
    void save_tran_state(std::vector<double>& out) const override;
    void load_tran_state(const std::vector<double>& in, size_t& pos) override;
    void stamp_ac(ComplexStamper& s, const std::vector<double>& xop,
                  double omega) const override;
    Partition partition() const override { return Partition::LinearDynamic; }
    std::string card(const NodeNamer& nn) const override;

    /// Branch current for solution `x` (flows a -> b).
    double current(const std::vector<double>& x) const;

private:
    double l_;
    double rs_;
    double i_prev_ = 0.0;
    double v_prev_ = 0.0; // inductor voltage net of series resistance
};

} // namespace snim::circuit
