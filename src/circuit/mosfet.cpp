#include "circuit/mosfet.hpp"

#include <algorithm>
#include <cmath>

#include "util/strings.hpp"

namespace snim::circuit {

namespace {
constexpr size_t kD = 0, kG = 1, kS = 2, kB = 3;
// Forward-bias junction linearisation point (fraction of pb).
constexpr double kFc = 0.5;
// Smoothing half-width for Meyer region transitions [V].
constexpr double kSmooth = 0.05;

double lerp(double a, double b, double f) { return a + (b - a) * f; }
} // namespace

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
               tech::MosModelCard model, MosGeometry geom)
    : Device(std::move(name), {d, g, s, b}), model_(std::move(model)), geom_(geom) {
    SNIM_ASSERT(geom_.w > 0 && geom_.l > 0, "mosfet '%s': bad W/L", this->name().c_str());
    SNIM_ASSERT(geom_.m >= 1, "mosfet '%s': bad multiplier", this->name().c_str());
    // Default junction geometry: 0.48 um deep drain/source fingers.
    const double ext = 0.48;
    if (geom_.ad <= 0) geom_.ad = geom_.w * ext;
    if (geom_.as <= 0) geom_.as = geom_.w * ext;
    if (geom_.pd <= 0) geom_.pd = 2.0 * (geom_.w + ext);
    if (geom_.ps <= 0) geom_.ps = 2.0 * (geom_.w + ext);
}

Mosfet::SmallSignal Mosfet::channel_op(const std::vector<double>& x) const {
    const double sgn = model_.is_nmos ? 1.0 : -1.0;
    const double vd = sgn * volt(x, term(kD));
    const double vg = sgn * volt(x, term(kG));
    const double vs = sgn * volt(x, term(kS));
    const double vb = sgn * volt(x, term(kB));

    // Source/drain swap so vds >= 0 in the effective frame.
    const bool swapped = vd < vs;
    const double veff_d = swapped ? vs : vd;
    const double veff_s = swapped ? vd : vs;

    SmallSignal out;
    out.vds = veff_d - veff_s;
    out.vgs = vg - veff_s;
    out.vbs = vb - veff_s;

    // Threshold with body effect; clamp the sqrt argument to keep Newton
    // derivatives finite under forward body bias.
    const double phi = model_.phi;
    const double arg = std::max(phi - out.vbs, 0.04);
    const bool clamped = (phi - out.vbs) < 0.04;
    const double sq = std::sqrt(arg);
    out.vt = model_.vt0 + model_.gamma * (sq - std::sqrt(phi));

    const double wl = geom_.w * geom_.m / geom_.l;
    const double beta = model_.kp * wl;
    const double vov = out.vgs - out.vt;
    const double lam = model_.lambda;

    double ids = 0.0, gm = 0.0, gds = 0.0;
    if (vov <= 0.0) {
        // Subthreshold treated as off; a tiny conductance keeps the matrix
        // regular (analyses also add a global gmin).
        out.on = false;
        out.saturated = false;
        ids = 0.0;
        gm = 0.0;
        gds = 1e-12;
    } else if (out.vds >= vov) {
        out.on = true;
        out.saturated = true;
        const double clm = 1.0 + lam * out.vds;
        ids = 0.5 * beta * vov * vov * clm;
        gm = beta * vov * clm;
        gds = 0.5 * beta * vov * vov * lam;
    } else {
        out.on = true;
        out.saturated = false;
        const double clm = 1.0 + lam * out.vds;
        ids = beta * (vov * out.vds - 0.5 * out.vds * out.vds) * clm;
        gm = beta * out.vds * clm;
        gds = beta * (vov - out.vds) * clm +
              beta * (vov * out.vds - 0.5 * out.vds * out.vds) * lam;
    }
    const double dvt_dvbs = clamped ? 0.0 : -model_.gamma / (2.0 * sq);
    const double gmb = gm * (-dvt_dvbs);

    // Map back to terminal polarity: current into the *actual drain node*;
    // when swapped the channel current enters the source terminal instead.
    out.ids = sgn * (swapped ? -ids : ids);
    out.gm = gm;
    out.gds = gds;
    out.gmb = gmb;
    return out;
}

Mosfet::SmallSignal Mosfet::small_signal(const std::vector<double>& x) const {
    SmallSignal out = channel_op(x);
    const double sgn = model_.is_nmos ? 1.0 : -1.0;
    const bool swapped = sgn * volt(x, term(kD)) < sgn * volt(x, term(kS));
    const double vov = out.vgs - out.vt;

    // --- capacitances (effective frame) ---------------------------------
    const double w_total = geom_.w * geom_.m;
    const double cox_wl = model_.cox * w_total * geom_.l;
    const double covs = model_.cgso * w_total;
    const double covd = model_.cgdo * w_total;

    double cgs_i, cgd_i, cgb_i; // intrinsic channel caps
    if (vov <= -kSmooth) {
        cgs_i = 0.0;
        cgd_i = 0.0;
        cgb_i = cox_wl; // accumulation/depletion lump
    } else if (vov <= kSmooth) {
        const double f = (vov + kSmooth) / (2.0 * kSmooth);
        const double sat_cgs = (2.0 / 3.0) * cox_wl;
        cgs_i = lerp(0.0, sat_cgs, f);
        cgd_i = 0.0;
        cgb_i = lerp(cox_wl, 0.0, f);
    } else if (out.vds >= vov + kSmooth) {
        cgs_i = (2.0 / 3.0) * cox_wl;
        cgd_i = 0.0;
        cgb_i = 0.0;
    } else if (out.vds >= vov - kSmooth) {
        const double f = (vov + kSmooth - out.vds) / (2.0 * kSmooth);
        cgs_i = lerp((2.0 / 3.0) * cox_wl, 0.5 * cox_wl, f);
        cgd_i = lerp(0.0, 0.5 * cox_wl, f);
        cgb_i = 0.0;
    } else {
        cgs_i = 0.5 * cox_wl;
        cgd_i = 0.5 * cox_wl;
        cgb_i = 0.0;
    }

    // Junction caps evaluated at the *actual terminal* bias (bulk minus
    // diffusion); multiplier scales areas.
    const double m = static_cast<double>(geom_.m);
    const double vbd = sgn * (volt(x, term(kB)) - volt(x, term(kD)));
    const double vbs_j = sgn * (volt(x, term(kB)) - volt(x, term(kS)));
    out.cdb = junction_cap0(vbd, model_.cj * geom_.ad * m + model_.cjsw * geom_.pd * m);
    out.csb = junction_cap0(vbs_j, model_.cj * geom_.as * m + model_.cjsw * geom_.ps * m);

    // Swap channel caps back to terminal frame.
    if (swapped) std::swap(cgs_i, cgd_i);
    out.cgs = cgs_i + covs;
    out.cgd = cgd_i + covd;
    out.cgb = cgb_i;
    return out;
}

Mosfet::ChannelStamp Mosfet::channel_stamp(const SmallSignal& ss,
                                            const std::vector<double>& x) const {
    // Effective drain/source orientation, the same rule small_signal uses.
    const double sgn = model_.is_nmos ? 1.0 : -1.0;
    const bool swapped = sgn * volt(x, term(kD)) < sgn * volt(x, term(kS));
    const NodeId nD = swapped ? term(kS) : term(kD);
    const NodeId nS = swapped ? term(kD) : term(kS);

    // Channel current into the effective drain (actual polarity):
    //   i = gm (vG - vS') + gds (vD' - vS') + gmb (vB - vS') + ieq
    // with all conductances positive regardless of polarity.
    const double vgs_a = volt(x, term(kG)) - volt(x, nS);
    const double vds_a = volt(x, nD) - volt(x, nS);
    const double vbs_a = volt(x, term(kB)) - volt(x, nS);
    const double i_d = swapped ? -ss.ids : ss.ids; // into effective drain
    const double ieq = i_d - ss.gm * vgs_a - ss.gds * vds_a - ss.gmb * vbs_a;

    // Drain row of that Jacobian in the fixed kD/kG/kS/kB column order.
    // Reversed, the actual drain is the effective source, whose row is the
    // negated effective-drain row with the D and S columns exchanged.
    const double gsum = ss.gm + ss.gds + ss.gmb;
    ChannelStamp c;
    if (swapped) {
        c.row = {gsum, -ss.gm, -ss.gds, -ss.gmb};
        c.rhs = ieq;
    } else {
        c.row = {ss.gds, ss.gm, -gsum, ss.gmb};
        c.rhs = -ieq;
    }
    return c;
}

namespace {
// Writes the channel block in its fixed order, (d,d) (d,g) (d,s) (d,b) then
// (s,d) (s,g) (s,s) (s,b), so the call sequence never depends on the bias;
// ground terminals drop out the same way on every pass.
template <class T>
void stamp_channel_block(Stamper<T>& s, const std::vector<NodeId>& t,
                         const std::array<double, 4>& row) {
    for (size_t j = 0; j < 4; ++j) s.entry(t[kD], t[j], T(row[j]));
    for (size_t j = 0; j < 4; ++j) s.entry(t[kS], t[j], T(-row[j]));
}
} // namespace

void Mosfet::stamp_channel(RealStamper& s, const std::vector<double>& x) const {
    const ChannelStamp c = channel_stamp(channel_op(x), x);
    stamp_channel_block(s, nodes(), c.row);
    s.rhs_current(term(kD), c.rhs);
    s.rhs_current(term(kS), -c.rhs);
}

void Mosfet::stamp_dc(RealStamper& s, const std::vector<double>& x) const {
    stamp_channel(s, x);
}

double Mosfet::junction_cap0(double v, double cj0) const {
    // v is the junction forward voltage (bulk-to-diffusion for NMOS); cj0
    // the zero-bias area plus perimeter capacitance.
    const double pb = model_.pb, mj = model_.mj;
    if (v < kFc * pb) return cj0 * std::pow(1.0 - v / pb, -mj);
    // Linear extension beyond fc*pb (standard SPICE treatment).
    const double f = std::pow(1.0 - kFc, -mj);
    return cj0 * f * (1.0 + mj * (v - kFc * pb) / (pb * (1.0 - kFc)));
}

double Mosfet::junction_charge(double v, double cj0) const {
    // Exact integral of junction_cap0; continuous at v = fc*pb.
    const double pb = model_.pb, mj = model_.mj;
    if (v < kFc * pb) {
        return cj0 * pb / (1.0 - mj) * (1.0 - std::pow(1.0 - v / pb, 1.0 - mj));
    }
    const double qfc = cj0 * pb / (1.0 - mj) * (1.0 - std::pow(1.0 - kFc, 1.0 - mj));
    const double f = std::pow(1.0 - kFc, -mj);
    const double dv = v - kFc * pb;
    return qfc + cj0 * f * (dv + 0.5 * mj * dv * dv / (pb * (1.0 - kFc)));
}

double Mosfet::cap_charge(const CapState& st, double v) const {
    return st.junction ? junction_charge(v, st.cj0) : st.c * v;
}

double Mosfet::cap_value(const CapState& st, double v) const {
    return st.junction ? junction_cap0(v, st.cj0) : st.c;
}

void Mosfet::init_tran(const std::vector<double>& x) {
    const SmallSignal ss = small_signal(x);
    const double m = static_cast<double>(geom_.m);
    auto init = [&](CapState& st, NodeId a, NodeId b, double c, bool junction,
                    double cj0) {
        st.junction = junction;
        st.c = c;
        st.cj0 = cj0;
        st.q = cap_charge(st, volt(x, a) - volt(x, b));
        st.i = 0.0;
    };
    init(cgs_st_, term(kG), term(kS), ss.cgs, false, 0.0);
    init(cgd_st_, term(kG), term(kD), ss.cgd, false, 0.0);
    init(cgb_st_, term(kG), term(kB), ss.cgb, false, 0.0);
    // Junction caps live between bulk (anode) and diffusion.
    init(cdb_st_, term(kB), term(kD), 0.0, true,
         model_.cj * geom_.ad * m + model_.cjsw * geom_.pd * m);
    init(csb_st_, term(kB), term(kS), 0.0, true,
         model_.cj * geom_.as * m + model_.cjsw * geom_.ps * m);
}

void Mosfet::stamp_cap(RealStamper& s, NodeId a, NodeId b, CapState& st,
                       const std::vector<double>& x, double k, int order) const {
    const double v = volt(x, a) - volt(x, b);
    const double c = cap_value(st, v);
    if (c <= 0.0) return;
    // Charge-based companion: i = k (q(v) - q_n) - (trap) i_n.
    const double i = k * (cap_charge(st, v) - st.q) - (order == 2 ? st.i : 0.0);
    const double geq = k * c;
    const double ieq = i - geq * v;
    s.admittance(a, b, geq);
    s.rhs_current(a, -ieq);
    s.rhs_current(b, ieq);
}

void Mosfet::commit_cap(const std::vector<double>& x, NodeId a, NodeId b, CapState& st,
                        double k, int order) const {
    const double v = volt(x, a) - volt(x, b);
    const double q = cap_charge(st, v);
    st.i = k * (q - st.q) - (order == 2 ? st.i : 0.0);
    st.q = q;
}

namespace {
// Companion factor of the charge-based capacitor stamps, kord / dt.
double companion_k(const TranParams& tp) { return (tp.order == 2 ? 2.0 : 1.0) / tp.dt; }
} // namespace

void Mosfet::stamp_tran(RealStamper& s, const std::vector<double>& x,
                        const TranParams& tp) {
    stamp_channel(s, x);
    const double k = companion_k(tp);
    stamp_cap(s, term(kG), term(kS), cgs_st_, x, k, tp.order);
    stamp_cap(s, term(kG), term(kD), cgd_st_, x, k, tp.order);
    stamp_cap(s, term(kG), term(kB), cgb_st_, x, k, tp.order);
    stamp_cap(s, term(kB), term(kD), cdb_st_, x, k, tp.order);
    stamp_cap(s, term(kB), term(kS), csb_st_, x, k, tp.order);
}

void Mosfet::commit_tran(const std::vector<double>& x, const TranParams& tp) {
    const double k = companion_k(tp);
    commit_cap(x, term(kG), term(kS), cgs_st_, k, tp.order);
    commit_cap(x, term(kG), term(kD), cgd_st_, k, tp.order);
    commit_cap(x, term(kG), term(kB), cgb_st_, k, tp.order);
    commit_cap(x, term(kB), term(kD), cdb_st_, k, tp.order);
    commit_cap(x, term(kB), term(kS), csb_st_, k, tp.order);
}

void Mosfet::save_tran_state(std::vector<double>& out) const {
    // The full CapState is serialised — c/junction/cj0 are normally set by
    // init_tran from the DC point, which a checkpoint resume skips.
    for (const CapState* st : {&cgs_st_, &cgd_st_, &cgb_st_, &cdb_st_, &csb_st_}) {
        out.push_back(st->q);
        out.push_back(st->i);
        out.push_back(st->c);
        out.push_back(st->junction ? 1.0 : 0.0);
        out.push_back(st->cj0);
    }
}

void Mosfet::load_tran_state(const std::vector<double>& in, size_t& pos) {
    for (CapState* st : {&cgs_st_, &cgd_st_, &cgb_st_, &cdb_st_, &csb_st_}) {
        st->q = take_tran_state(in, pos, name().c_str());
        st->i = take_tran_state(in, pos, name().c_str());
        st->c = take_tran_state(in, pos, name().c_str());
        st->junction = take_tran_state(in, pos, name().c_str()) != 0.0;
        st->cj0 = take_tran_state(in, pos, name().c_str());
    }
}

void Mosfet::stamp_ac(ComplexStamper& s, const std::vector<double>& xop,
                      double omega) const {
    const SmallSignal ss = small_signal(xop);
    stamp_channel_block(s, nodes(), channel_stamp(ss, xop).row);

    s.admittance(term(kG), term(kS), {0.0, omega * ss.cgs});
    s.admittance(term(kG), term(kD), {0.0, omega * ss.cgd});
    s.admittance(term(kG), term(kB), {0.0, omega * ss.cgb});
    s.admittance(term(kD), term(kB), {0.0, omega * ss.cdb});
    s.admittance(term(kS), term(kB), {0.0, omega * ss.csb});
}

double Mosfet::cdb_zero_bias() const {
    return junction_cap0(0.0,
                         model_.cj * geom_.ad * geom_.m + model_.cjsw * geom_.pd * geom_.m);
}

std::string Mosfet::card(const NodeNamer& nn) const {
    return format("%s %s %s %s %s %s w=%gu l=%gu m=%d", spice_head('M', name()).c_str(),
                  nn(term(kD)).c_str(), nn(term(kG)).c_str(), nn(term(kS)).c_str(),
                  nn(term(kB)).c_str(), model_.name.c_str(), geom_.w, geom_.l, geom_.m);
}

} // namespace snim::circuit
