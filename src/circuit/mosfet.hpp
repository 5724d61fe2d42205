// Four-terminal MOSFET: level-1 square-law DC model with body effect and
// channel-length modulation, Meyer gate capacitances and bias-dependent
// junction capacitances.
//
// The back-gate transconductance gmb is the star of the paper's Figure 3:
// substrate noise arriving at the bulk terminal is converted to drain
// current with gain gmb and read out over the output impedance 1/gds.
#pragma once

#include <array>

#include "circuit/device.hpp"
#include "tech/technology.hpp"

namespace snim::circuit {

struct MosGeometry {
    double w = 10.0;  // drawn width [um]
    double l = 0.18;  // drawn length [um]
    int m = 1;        // parallel multiplier
    /// Drain/source junction areas [um^2] and perimeters [um]; when zero,
    /// defaults of 0.48um-deep junctions are derived from W.
    double ad = 0.0, as = 0.0, pd = 0.0, ps = 0.0;
};

class Mosfet : public Device {
public:
    Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
           tech::MosModelCard model, MosGeometry geom);

    /// DC solution and small-signal parameters at an operating point.
    struct SmallSignal {
        double ids = 0.0; // drain terminal current (actual polarity) [A]
        double gm = 0.0;  // [S]
        double gds = 0.0; // [S]
        double gmb = 0.0; // back-gate transconductance [S]
        double vgs = 0.0, vds = 0.0, vbs = 0.0; // effective (device polarity)
        double vt = 0.0;
        bool saturated = false;
        bool on = false;
        // Capacitances at this bias [F].
        double cgs = 0.0, cgd = 0.0, cgb = 0.0, cdb = 0.0, csb = 0.0;
    };
    SmallSignal small_signal(const std::vector<double>& x) const;

    const tech::MosModelCard& model() const { return model_; }
    const MosGeometry& geometry() const { return geom_; }

    void stamp_dc(RealStamper& s, const std::vector<double>& x) const override;
    void stamp_tran(RealStamper& s, const std::vector<double>& x,
                    const TranParams& tp) override;
    void init_tran(const std::vector<double>& x) override;
    void commit_tran(const std::vector<double>& x, const TranParams& tp) override;
    void save_tran_state(std::vector<double>& out) const override;
    void load_tran_state(const std::vector<double>& in, size_t& pos) override;
    void stamp_ac(ComplexStamper& s, const std::vector<double>& xop,
                  double omega) const override;
    Partition partition() const override { return Partition::Nonlinear; }
    std::string card(const NodeNamer& nn) const override;

    /// Zero-bias drain junction capacitance (for reporting; the paper
    /// quotes Cdbj = 120 fF for its four-transistor structure).
    double cdb_zero_bias() const;

private:
    /// Charge-based capacitor state for transient integration.  Gate caps
    /// use a CONSTANT capacitance frozen at the operating point (bias-
    /// refreshed Meyer caps are not charge conserving and cause systematic
    /// oscillator frequency drift); junction caps use the exact analytic
    /// charge so their bias dependence is kept without charge pumping.
    struct CapState {
        double q = 0.0; // charge at last accepted step
        double i = 0.0; // current at last accepted step
        double c = 0.0; // fixed capacitance (gate caps) [F]
        bool junction = false;
        double cj0 = 0.0; // zero-bias junction capacitance (area+perimeter)
    };

    /// Linearised channel at a bias, in the fixed D/G/S/B stamp layout: the
    /// drain row's entries in column order kD, kG, kS, kB; the source row is
    /// its exact negation.  The drain/source orientation is carried in these
    /// values, never in the stamp positions, so a vds sign change keeps the
    /// stamp sequence (DESIGN.md §14).
    struct ChannelStamp {
        std::array<double, 4> row{};
        double rhs = 0.0; // RHS current into the drain node; the source node gets -rhs
    };
    /// small_signal() without the capacitances: the DC channel point
    /// (ids, gm, gds, gmb and the effective biases) the Newton stamps use.
    SmallSignal channel_op(const std::vector<double>& x) const;
    ChannelStamp channel_stamp(const SmallSignal& ss, const std::vector<double>& x) const;
    void stamp_channel(RealStamper& s, const std::vector<double>& x) const;
    double junction_cap0(double v, double cj0) const;
    double junction_charge(double v, double cj0) const;
    double cap_charge(const CapState& st, double v) const;
    double cap_value(const CapState& st, double v) const;
    // k is the companion factor kord / dt, formed once per stamp/commit.
    void stamp_cap(RealStamper& s, NodeId a, NodeId b, CapState& st,
                   const std::vector<double>& x, double k, int order) const;
    void commit_cap(const std::vector<double>& x, NodeId a, NodeId b, CapState& st,
                    double k, int order) const;

    tech::MosModelCard model_;
    MosGeometry geom_;
    // Integration state for the five capacitances, updated per accepted step.
    mutable CapState cgs_st_, cgd_st_, cgb_st_, cdb_st_, csb_st_;
};

} // namespace snim::circuit
