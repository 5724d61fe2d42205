#include "testcases/vco.hpp"

#include "circuit/mosfet.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/varactor.hpp"
#include "geom/polygon.hpp"
#include "tech/generic180.hpp"
#include "util/error.hpp"

namespace snim::testcases {

namespace L = snim::tech::layers;
using geom::Rect;

VcoTestcase build_vco(const VcoOptions& opt) {
    VcoTestcase v{tech::generic180(), layout::Layout("vco"), {}};
    layout::Cell& top = v.layout.top();

    // ===================== layout ==========================================
    // Cross-coupled NMOS pair (back-gates in the common substrate).
    const Rect nmos_active(0, 0, 30, 12);
    top.add_rect(L::kActive, nmos_active);

    // PMOS pair in its own n-well (tied to vdd).
    const Rect pmos_active(0, 40, 60, 52);
    const Rect pmos_well(-5, 35, 65, 57);
    top.add_rect(L::kActive, pmos_active);
    top.add_rect(L::kNWell, pmos_well);
    top.add_label("vdd", L::kNWell, {30, 46});

    // Varactors in a second n-well (tied to vtune).
    const Rect var_active(45, 0, 60, 12);
    const Rect var_well(40, -5, 75, 17);
    top.add_rect(L::kActive, var_active);
    top.add_rect(L::kNWell, var_well);
    top.add_label("vtune", L::kNWell, {57, 6});

    // MOS ground ring tightly around the NMOS pair.
    const Rect mosgr_outer(-10, -10, 36, 18);
    top.add_rects(L::kSubTap, geom::make_ring(mosgr_outer, 2.0));
    top.add_rects(L::kMetal[0], geom::make_ring(mosgr_outer, 2.0));

    // Outer guard ring around the whole VCO.
    const Rect gr_outer(-140, -100, 320, 160);
    top.add_rects(L::kSubTap, geom::make_ring(gr_outer, 6.0));
    top.add_rects(L::kMetal[0], geom::make_ring(gr_outer, 6.0));

    // Ground pad + wide strap to the guard ring.
    top.add_rect(L::kMetal[0], Rect(-320, -30, -260, 30));
    top.add_label("vgnd", L::kMetal[0], {-290, 0});
    top.add_rect(L::kMetal[0], Rect(-260, -3, -134, 3));

    // THE ground strap: pad -> MOS GR on metal2 (crosses the guard ring on a
    // higher layer).  Drawn as a long serpentine, the realistic way a test
    // chip ends up with tens of ohms in its ground return; Figure 10 doubles
    // the width.
    const double w = opt.ground_strap_width;
    SNIM_ASSERT(w >= 0.5 && w <= 4.0, "unreasonable ground strap width %g", w);
    top.add_rects(L::kMetal[1],
                  geom::make_serpentine({-260, 5}, 200.0, w, 5.0, 3));
    top.add_rect(L::kMetal[1], Rect(-61, 15, -59, 17.5)); // tail down
    top.add_rect(L::kMetal[1], Rect(-60, 16.5, -9, 17.8)); // tail to ring
    top.add_rect(L::kVia[0], Rect(-9.9, 17.0, -8.3, 17.6)); // onto MOS GR metal
    top.add_rect(L::kVia[0], Rect(-260.4, 5.2, -259.6, 5.2 + std::min(w - 0.2, 0.6)));

    // Inductor: two C-shaped arms in thick top metal with a gap where the
    // schematic inductance sits; the drawn metal contributes the series
    // wiring resistance and the capacitive footprint over the substrate.
    top.add_rect(L::kMetal[5], Rect(100, -20, 105, 80)); // left vertical
    top.add_rect(L::kMetal[5], Rect(105, 75, 150, 80));  // left horizontal
    top.add_label("outp", L::kMetal[5], {102, 0});
    top.add_rect(L::kMetal[5], Rect(160, 75, 205, 80));  // right horizontal
    top.add_rect(L::kMetal[5], Rect(205, -20, 210, 80)); // right vertical
    top.add_label("outn", L::kMetal[5], {207, 0});

    // vdd pad + metal3 routing down to the PMOS sources.
    top.add_rect(L::kMetal[0], Rect(360, 200, 420, 260));
    top.add_label("vdd", L::kMetal[0], {390, 230});
    top.add_rect(L::kMetal[1], Rect(370, 205, 390, 225));
    top.add_rect(L::kVia[0], Rect(378, 216, 380, 218));
    top.add_rect(L::kVia[1], Rect(378, 211, 380, 213));
    top.add_rect(L::kMetal[2], Rect(26, 206, 390, 214)); // horizontal
    top.add_rect(L::kMetal[2], Rect(26, 57, 34, 214));   // vertical to PMOS

    // vtune pad + metal2 routing to the varactor well contact.
    top.add_rect(L::kMetal[0], Rect(-320, 200, -260, 260));
    top.add_label("vtune", L::kMetal[0], {-290, 230});
    top.add_rect(L::kMetal[1], Rect(-290, 223, 57, 229));  // horizontal
    top.add_rect(L::kMetal[1], Rect(51, 17, 57, 229));     // vertical
    top.add_rect(L::kVia[0], Rect(-289, 224, -288.2, 228));

    // Output pad (AC-coupled on-chip).
    top.add_rect(L::kMetal[0], Rect(360, -160, 420, -100));
    top.add_label("out", L::kMetal[0], {390, -130});

    // Substrate injection contact (SUB) below the guard ring, with its
    // probe pad.
    top.add_rect(L::kSubTap, Rect(0, -180, 10, -170));
    top.add_rect(L::kMetal[0], Rect(-2, -182, 12, -168));
    top.add_rect(L::kMetal[0], Rect(10, -178, 80, -172));
    top.add_rect(L::kMetal[0], Rect(80, -200, 140, -140));
    top.add_label("subinj", L::kMetal[0], {110, -170});

    // ===================== schematic =======================================
    circuit::Netlist& nl = v.inputs.schematic;
    const auto nch = v.tech.mos_model("nch");
    const auto pch = v.tech.mos_model("pch");
    const auto nvar = v.tech.varactor_model("nvar");

    const auto outp = nl.node(VcoTestcase::kOutP);
    const auto outn = nl.node(VcoTestcase::kOutN);
    const auto vgnd = nl.node(VcoTestcase::kGroundNode);
    const auto vdd = nl.node(VcoTestcase::kVdd);
    const auto vtune = nl.node(VcoTestcase::kVtune);
    const auto bulk = nl.node(VcoTestcase::kBulkNmos);

    circuit::MosGeometry ng{.w = opt.nmos_w, .l = 0.18, .m = 1};
    circuit::MosGeometry pg{.w = opt.pmos_w, .l = 0.18, .m = 1};
    nl.add<circuit::Mosfet>("mn1", outp, outn, vgnd, bulk, nch, ng);
    nl.add<circuit::Mosfet>("mn2", outn, outp, vgnd, bulk, nch, ng);
    nl.add<circuit::Mosfet>("mp1", outp, outn, vdd, vdd, pch, pg);
    nl.add<circuit::Mosfet>("mp2", outn, outp, vdd, vdd, pch, pg);

    nl.add<circuit::Inductor>("ltank", nl.node(VcoTestcase::kIndP),
                              nl.node(VcoTestcase::kIndN), opt.l_tank,
                              opt.l_series_res);
    nl.add<circuit::Varactor>("yvar1", outp, vtune, nvar, opt.varactor_area);
    nl.add<circuit::Varactor>("yvar2", outn, vtune, nvar, opt.varactor_area);
    nl.add<circuit::Capacitor>("cfix1", outp, vgnd, opt.c_fixed);
    nl.add<circuit::Capacitor>("cfix2", outn, vgnd, opt.c_fixed);
    // On-chip supply decoupling (typical RF practice).
    nl.add<circuit::Capacitor>("cdecap", vdd, vgnd, 5e-12);

    // Output coupling to the pad.
    nl.add<circuit::Capacitor>("ccouple", outp, nl.node("out_pad"), 100e-15);
    nl.add<circuit::Resistor>("rload", nl.node(VcoTestcase::kOutBoard),
                              circuit::kGround, 50.0);

    // Board-side sources.
    nl.add<circuit::VSource>("vddsrc", nl.node("vdd_board"), circuit::kGround,
                             circuit::Waveform::dc(opt.vdd));
    nl.add<circuit::VSource>(VcoTestcase::kVtuneSource, nl.node("vtune_board"),
                             circuit::kGround, circuit::Waveform::dc(opt.vtune));

    // Substrate noise injector (managed by the analyzer).
    nl.add<circuit::VSource>(VcoTestcase::kNoiseSource, nl.node("subdrive"),
                             circuit::kGround, circuit::Waveform::dc(0.0),
                             circuit::AcSpec{1.0, 0.0});
    nl.add<circuit::Resistor>("rsub", nl.node("subdrive"), nl.node("sub_pad"), 50.0);

    // Startup kick.
    nl.add<circuit::ISource>(
        "ikick", circuit::kGround, outp,
        circuit::Waveform::pwl({{0.0, 0.0}, {50e-12, opt.kick}, {100e-12, 0.0}}));

    // ===================== pins ============================================
    v.inputs.pins = {
        {VcoTestcase::kGroundNode, L::kMetal[0], {13, -9}},
        {"gnd_pad", L::kMetal[0], {-290, 0}},
        {VcoTestcase::kVdd, L::kMetal[2], {30, 60}},
        {"vdd_pad", L::kMetal[0], {390, 230}},
        {VcoTestcase::kVtune, L::kMetal[1], {54, 18}},
        {"vtune_pad", L::kMetal[0], {-290, 230}},
        {VcoTestcase::kOutP, L::kMetal[5], {102, -18}},
        {VcoTestcase::kIndP, L::kMetal[5], {148, 77.5}},
        {VcoTestcase::kOutN, L::kMetal[5], {207, -18}},
        {VcoTestcase::kIndN, L::kMetal[5], {162, 77.5}},
        {"out_pad", L::kMetal[0], {390, -130}},
        {"sub_pad", L::kMetal[0], {110, -170}},
    };

    // ===================== substrate ports ==================================
    {
        substrate::PortSpec bulk_port;
        bulk_port.name = VcoTestcase::kBulkNmos;
        bulk_port.kind = substrate::PortKind::Probe;
        bulk_port.region.add(nmos_active);
        v.inputs.substrate_ports.push_back(std::move(bulk_port));

        substrate::PortSpec pmos_well_port;
        pmos_well_port.name = VcoTestcase::kVdd;
        pmos_well_port.kind = substrate::PortKind::Capacitive;
        pmos_well_port.cap_per_area = v.tech.layer(L::kNWell).well_cap_area;
        pmos_well_port.region.add(pmos_well);
        v.inputs.substrate_ports.push_back(std::move(pmos_well_port));

        substrate::PortSpec var_well_port;
        var_well_port.name = VcoTestcase::kVtune;
        var_well_port.kind = substrate::PortKind::Capacitive;
        var_well_port.cap_per_area = v.tech.layer(L::kNWell).well_cap_area;
        var_well_port.region.add(var_well);
        v.inputs.substrate_ports.push_back(std::move(var_well_port));
    }

    // ===================== package ==========================================
    auto wire = [](const char* pad, const char* board) {
        package::BondwireSpec b;
        b.pad_node = pad;
        b.board_node = board;
        b.inductance = 1.2e-9;
        b.resistance = 0.15;
        b.pad_cap = 120e-15;
        return b;
    };
    v.inputs.package.wires = {
        wire("gnd_pad", "0"),
        wire("vdd_pad", "vdd_board"),
        wire("vtune_pad", "vtune_board"),
        wire("out_pad", VcoTestcase::kOutBoard),
    };
    return v;
}

core::ImpactModel build_model(VcoTestcase&& v, const core::FlowOptions& opt) {
    v.inputs.layout = &v.layout;
    v.inputs.tech = &v.tech;
    return core::build_impact_model(std::move(v.inputs), opt);
}

rf::OscOptions vco_osc_options() {
    rf::OscOptions osc;
    osc.probe_p = VcoTestcase::kOutP;
    osc.probe_n = VcoTestcase::kOutN;
    osc.dt = 10e-12;
    osc.settle = 120e-9;
    osc.capture = 150e-9;
    osc.f_min = 1.5e9;
    osc.f_max = 6e9;
    return osc;
}

std::vector<core::NoiseEntry> vco_noise_entries() {
    // Relative entry coordinates decouple the physical paths: ground bounce
    // is the absolute on-chip ground excursion; every other entry is
    // measured against it so common-mode bounce is attributed to the
    // ground interconnect (the paper's own mechanism description).
    return {
        // Ground interconnect: ablated by SHORTING the ground wiring (the
        // paper's mechanism is the drop over its parasitic resistance).
        {"ground interconnect",
         {VcoTestcase::kGroundNode},
         "",
         {"vgnd!sub0", "vgnd!sub1"},
         {"c:vgnd"},
         {"vgnd#", "tie:vgnd", "touch#"}},
        {"NMOS back-gate",
         {VcoTestcase::kBulkNmos, VcoTestcase::kGroundNode},
         "",
         {VcoTestcase::kBulkNmos},
         {},
         {}},
        {"inductor",
         {VcoTestcase::kOutP, VcoTestcase::kGroundNode},
         VcoTestcase::kVtuneSource,
         {},
         {"c:outp", "c:outn"},
         {}},
        {"PMOS n-well",
         {VcoTestcase::kVdd, VcoTestcase::kGroundNode},
         "vddsrc",
         {VcoTestcase::kVdd},
         {"c:vdd"},
         {}},
        {"varactor n-well",
         {VcoTestcase::kVtune, VcoTestcase::kGroundNode},
         VcoTestcase::kVtuneSource,
         {VcoTestcase::kVtune},
         {"c:vtune"},
         {}},
    };
}

core::FlowOptions vco_flow_options() {
    core::FlowOptions fo;
    // Fine cells over the active core (NMOS pair, MOS GR, varactors) so the
    // back-gate-to-ring potential difference is resolved; graded coarsening
    // towards the pad frame.
    fo.substrate.mesh.focus = geom::Rect(-20, -20, 80, 62);
    fo.substrate.mesh.fine_pitch = 4.0;
    fo.substrate.mesh.growth = 1.5;
    fo.substrate.mesh.max_pitch = 70.0;
    fo.substrate.mesh.margin = 40.0;
    fo.substrate.mesh.z_steps = {0.8, 2.0, 5.0, 12.0, 30.0, 80.0, 120.0};
    return fo;
}

} // namespace snim::testcases
