#include "testcases/nmos_structure.hpp"

#include "circuit/mosfet.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "geom/polygon.hpp"
#include "tech/generic180.hpp"
#include "util/error.hpp"

namespace snim::testcases {

namespace L = snim::tech::layers;
using geom::Rect;

NmosStructure build_nmos_structure(const NmosStructureOptions& opt) {
    NmosStructure s{tech::generic180(), layout::Layout("nmos_structure"), {}};
    layout::Cell& top = s.layout.top();

    // ---------------- layout ------------------------------------------------
    // Device footprint (active) and the MOS ground ring right around it.
    const Rect device(0, 0, 30, 12);
    top.add_rect(L::kActive, device);
    const Rect mosgr_outer(-6, -6, 36, 18);
    top.add_rects(L::kSubTap, geom::make_ring(mosgr_outer, 4.0));
    top.add_rects(L::kMetal[0], geom::make_ring(mosgr_outer, 4.0));

    // Outer guard ring around the complete structure.
    const Rect gr_outer(-100, -80, 260, 100);
    top.add_rects(L::kSubTap, geom::make_ring(gr_outer, 6.0));
    top.add_rects(L::kMetal[0], geom::make_ring(gr_outer, 6.0));

    // Ground pad.
    top.add_rect(L::kMetal[0], Rect(-300, -30, -240, 30));
    top.add_label("vgnd", L::kMetal[0], {-270, 0});

    // Wide strap: pad -> guard ring (low resistance).
    top.add_rect(L::kMetal[0], Rect(-240, -3, -94, 3));

    // Solid source strap on metal2 to its OWN pad and bondwire (a Kelvin
    // connection, as an RF probe provides): the transistor source must not
    // share a return with the noisy guard-ring current or the shared-path
    // bounce re-enters through gm.
    top.add_rect(L::kMetal[1], Rect(-234, -6, 10, -2));
    top.add_rect(L::kMetal[1], Rect(-234, -110, -230, -2));
    top.add_rect(L::kMetal[0], Rect(-290, -140, -230, -80)); // source pad
    top.add_label("vsrc", L::kMetal[0], {-260, -110});
    top.add_rect(L::kVia[0], Rect(-233.5, -105, -230.5, -95)); // to the pad

    // Resistive MOS GR wire: a narrow metal2 serpentine (carrying no DC)
    // grounds the substrate ring.  Its resistance lets the ring ride with
    // the substrate noise -- the paper's "metal resistance" that nearly
    // doubles the back-gate voltage division.
    const double w = opt.ground_wire_width;
    SNIM_ASSERT(w > 0.2 && w < 20.0, "unreasonable ground wire width %g", w);
    top.add_rects(L::kMetal[1], geom::make_serpentine({-240, 24}, 180.0, w, 4.0, 8));
    top.add_rect(L::kMetal[1], Rect(-61, 16.5, -60.2, 52.8)); // tail down
    top.add_rect(L::kMetal[1], Rect(-60.2, 16.5, -3.5, 17.5)); // tail to ring
    top.add_rect(L::kVia[0], Rect(-5.8, 16.7, -4.0, 17.3));   // onto MOS GR metal
    top.add_rect(L::kVia[0], Rect(-240.4, 24.2, -239.6, 24.2 + std::min(w, 0.6)));

    // Substrate injection contact (SUB) outside the guard ring, with its
    // own metal patch, wire and probe pad.
    top.add_rect(L::kSubTap, Rect(320, 0, 330, 10));
    top.add_rect(L::kMetal[0], Rect(318, -2, 332, 12));
    top.add_rect(L::kMetal[0], Rect(330, 2, 400, 8));
    top.add_rect(L::kMetal[0], Rect(400, -30, 460, 30));
    top.add_label("subinj", L::kMetal[0], {430, 0});

    // ---------------- schematic ---------------------------------------------
    circuit::Netlist& nl = s.inputs.schematic;
    tech::MosModelCard card = s.tech.mos_model("nch");
    circuit::MosGeometry geom;
    geom.w = opt.w_um;
    geom.l = opt.l_um;
    geom.m = opt.parallel;
    nl.add<circuit::Mosfet>(NmosStructure::kMosfet, nl.node(NmosStructure::kOut),
                            nl.node(NmosStructure::kGate),
                            nl.node(NmosStructure::kSourceNode),
                            nl.node(NmosStructure::kBulk), card, geom);

    nl.add<circuit::VSource>(NmosStructure::kGateSource, nl.node(NmosStructure::kGate),
                             circuit::kGround, circuit::Waveform::dc(opt.vgate));
    // Drain bias through an ideal bias tee (large inductor): the output sees
    // only the device's own 1/gds at the noise frequencies, as in the paper.
    nl.add<circuit::VSource>(NmosStructure::kDrainSource, nl.node("vdfeed"),
                             circuit::kGround, circuit::Waveform::dc(opt.vdrain));
    nl.add<circuit::Inductor>("lbias", nl.node(NmosStructure::kOut), nl.node("vdfeed"),
                              10e-3, 1.0);

    // Substrate noise injector: 50-ohm source driving the SUB pad.
    nl.add<circuit::VSource>(NmosStructure::kNoiseSource, nl.node("subdrive"),
                             circuit::kGround, circuit::Waveform::dc(0.0),
                             circuit::AcSpec{1.0, 0.0});
    nl.add<circuit::Resistor>("rsub", nl.node("subdrive"), nl.node("sub_pad"), 50.0);

    // ---------------- pins, ports, package ----------------------------------
    s.inputs.pins = {
        {NmosStructure::kSourceNode, L::kMetal[1], {5, -4}},
        {"gnd_pad", L::kMetal[0], {-270, 0}},
        {"src_pad", L::kMetal[0], {-260, -110}},
        {"sub_pad", L::kMetal[0], {430, 0}},
    };

    substrate::PortSpec bulk;
    bulk.name = NmosStructure::kBulk;
    bulk.kind = substrate::PortKind::Probe;
    bulk.region.add(device);
    s.inputs.substrate_ports.push_back(std::move(bulk));

    package::BondwireSpec gnd_wire;
    gnd_wire.pad_node = "gnd_pad";
    gnd_wire.board_node = "0";
    gnd_wire.inductance = 0.8e-9;
    gnd_wire.resistance = 0.1;
    gnd_wire.pad_cap = 150e-15;
    s.inputs.package.wires.push_back(gnd_wire);
    package::BondwireSpec src_wire = gnd_wire;
    src_wire.pad_node = "src_pad";
    s.inputs.package.wires.push_back(src_wire);

    return s;
}

core::ImpactModel build_model(NmosStructure&& s, const core::FlowOptions& opt) {
    s.inputs.layout = &s.layout;
    s.inputs.tech = &s.tech;
    return core::build_impact_model(std::move(s.inputs), opt);
}

core::FlowOptions nmos_flow_options() {
    core::FlowOptions fo;
    fo.substrate.mesh.focus = geom::Rect(-20, -20, 50, 30);
    fo.substrate.mesh.fine_pitch = 3.0;
    fo.substrate.mesh.margin = 40.0;
    return fo;
}

} // namespace snim::testcases
