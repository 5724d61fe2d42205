#include "circuit/passives.hpp"

#include "util/strings.hpp"

namespace snim::circuit {

namespace {
constexpr size_t kA = 0;
constexpr size_t kB = 1;
} // namespace

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, NodeId a, NodeId b, double resistance)
    : Device(std::move(name), {a, b}), r_(resistance) {
    SNIM_ASSERT(r_ > 0, "resistor '%s': non-positive resistance %g",
                this->name().c_str(), r_);
}

void Resistor::set_resistance(double r) {
    SNIM_ASSERT(r > 0, "resistor '%s': non-positive resistance %g", name().c_str(), r);
    r_ = r;
}

void Resistor::stamp_dc(RealStamper& s, const std::vector<double>&) const {
    s.admittance(term(kA), term(kB), 1.0 / r_);
}

void Resistor::stamp_ac(ComplexStamper& s, const std::vector<double>&, double) const {
    s.admittance(term(kA), term(kB), {1.0 / r_, 0.0});
}

double Resistor::current(const std::vector<double>& x) const {
    return (volt(x, term(kA)) - volt(x, term(kB))) / r_;
}

std::string Resistor::card(const NodeNamer& nn) const {
    return format("%s %s %s %s", spice_head('R', name()).c_str(),
                  nn(term(kA)).c_str(), nn(term(kB)).c_str(),
                  eng_format(r_, 6).c_str());
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double capacitance)
    : Device(std::move(name), {a, b}), c_(capacitance) {
    SNIM_ASSERT(c_ > 0, "capacitor '%s': non-positive capacitance %g",
                this->name().c_str(), c_);
}

void Capacitor::set_capacitance(double c) {
    SNIM_ASSERT(c > 0, "capacitor '%s': non-positive capacitance %g", name().c_str(), c);
    c_ = c;
}

void Capacitor::stamp_dc(RealStamper&, const std::vector<double>&) const {
    // Open circuit at DC.
}

void Capacitor::init_tran(const std::vector<double>& x) {
    v_prev_ = volt(x, term(kA)) - volt(x, term(kB));
    i_prev_ = 0.0;
}

void Capacitor::stamp_tran(RealStamper& s, const std::vector<double>&,
                           const TranParams& tp) {
    // Companion model: trapezoidal  i = (2C/dt)(v - v_n) - i_n
    //                  BE           i = (C/dt)(v - v_n)
    const double geq = (tp.order == 2 ? 2.0 : 1.0) * c_ / tp.dt;
    const double ieq = (tp.order == 2) ? (-geq * v_prev_ - i_prev_) : (-geq * v_prev_);
    s.admittance(term(kA), term(kB), geq);
    // ieq is the history current of the Norton companion (flows a -> b).
    s.rhs_current(term(kA), -ieq);
    s.rhs_current(term(kB), ieq);
}

void Capacitor::commit_tran(const std::vector<double>& x, const TranParams& tp) {
    commit_companion(x, (tp.order == 2 ? 2.0 : 1.0) * c_ / tp.dt, tp.order);
}

void Capacitor::save_tran_state(std::vector<double>& out) const {
    out.push_back(v_prev_);
    out.push_back(i_prev_);
}

void Capacitor::load_tran_state(const std::vector<double>& in, size_t& pos) {
    v_prev_ = take_tran_state(in, pos, name().c_str());
    i_prev_ = take_tran_state(in, pos, name().c_str());
}

void Capacitor::stamp_ac(ComplexStamper& s, const std::vector<double>&,
                         double omega) const {
    s.admittance(term(kA), term(kB), {0.0, omega * c_});
}

std::string Capacitor::card(const NodeNamer& nn) const {
    return format("%s %s %s %s", spice_head('C', name()).c_str(),
                  nn(term(kA)).c_str(), nn(term(kB)).c_str(),
                  eng_format(c_, 6).c_str());
}

// ---------------------------------------------------------------- Inductor

Inductor::Inductor(std::string name, NodeId a, NodeId b, double inductance,
                   double series_res)
    : Device(std::move(name), {a, b}), l_(inductance), rs_(series_res) {
    SNIM_ASSERT(l_ > 0, "inductor '%s': non-positive inductance %g",
                this->name().c_str(), l_);
    SNIM_ASSERT(rs_ >= 0, "inductor '%s': negative series resistance", this->name().c_str());
}

void Inductor::stamp_dc(RealStamper& s, const std::vector<double>&) const {
    const NodeId br = aux_base();
    // KCL: branch current leaves a, enters b.
    s.entry(term(kA), br, 1.0);
    s.entry(term(kB), br, -1.0);
    // Branch equation: v_a - v_b - R i = 0 (short at DC through R).
    s.entry(br, term(kA), 1.0);
    s.entry(br, term(kB), -1.0);
    s.entry(br, br, -rs_);
}

void Inductor::init_tran(const std::vector<double>& x) {
    i_prev_ = volt(x, aux_base());
    v_prev_ = 0.0; // at DC the inductor voltage (net of R) is zero
}

void Inductor::stamp_tran(RealStamper& s, const std::vector<double>&,
                          const TranParams& tp) {
    const NodeId br = aux_base();
    s.entry(term(kA), br, 1.0);
    s.entry(term(kB), br, -1.0);
    // Trapezoidal: vL = (2L/dt)(i - i_n) - vL_n, with vL = v_a - v_b - R i.
    const double req = (tp.order == 2 ? 2.0 : 1.0) * l_ / tp.dt;
    const double veq = (tp.order == 2) ? (-req * i_prev_ - v_prev_) : (-req * i_prev_);
    s.entry(br, term(kA), 1.0);
    s.entry(br, term(kB), -1.0);
    s.entry(br, br, -(rs_ + req));
    s.rhs_entry(br, veq);
}

void Inductor::commit_tran(const std::vector<double>& x, const TranParams& tp) {
    const double i = volt(x, aux_base());
    const double req = (tp.order == 2 ? 2.0 : 1.0) * l_ / tp.dt;
    const double vl = (tp.order == 2) ? req * (i - i_prev_) - v_prev_ : req * (i - i_prev_);
    i_prev_ = i;
    v_prev_ = vl;
}

void Inductor::save_tran_state(std::vector<double>& out) const {
    out.push_back(i_prev_);
    out.push_back(v_prev_);
}

void Inductor::load_tran_state(const std::vector<double>& in, size_t& pos) {
    i_prev_ = take_tran_state(in, pos, name().c_str());
    v_prev_ = take_tran_state(in, pos, name().c_str());
}

void Inductor::stamp_ac(ComplexStamper& s, const std::vector<double>&,
                        double omega) const {
    const NodeId br = aux_base();
    s.entry(term(kA), br, {1.0, 0.0});
    s.entry(term(kB), br, {-1.0, 0.0});
    s.entry(br, term(kA), {1.0, 0.0});
    s.entry(br, term(kB), {-1.0, 0.0});
    s.entry(br, br, {-rs_, -omega * l_});
}

double Inductor::current(const std::vector<double>& x) const {
    return volt(x, aux_base());
}

std::string Inductor::card(const NodeNamer& nn) const {
    if (rs_ > 0)
        return format("%s %s %s %s rser=%s", spice_head('L', name()).c_str(),
                      nn(term(kA)).c_str(), nn(term(kB)).c_str(),
                      eng_format(l_, 6).c_str(), eng_format(rs_, 6).c_str());
    return format("%s %s %s %s", spice_head('L', name()).c_str(),
                  nn(term(kA)).c_str(), nn(term(kB)).c_str(),
                  eng_format(l_, 6).c_str());
}

} // namespace snim::circuit
