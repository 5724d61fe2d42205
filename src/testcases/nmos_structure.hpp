// The paper's one-transistor validation vehicle (Figure 4): an RF NMOS
// (four devices in parallel) surrounded by its own ground ring (MOS GR),
// an outer guard ring (GR), a substrate injection contact (SUB) and the
// deliberately resistive metal ground wiring between MOS GR and the
// off-chip ground -- the resistance that almost doubles the substrate-to-
// back-gate voltage division.
#pragma once

#include "core/impact_flow.hpp"
#include "tech/technology.hpp"

namespace snim::testcases {

struct NmosStructureOptions {
    /// Width of the metal wire that grounds the MOS GR ring [um].  The wire
    /// carries no DC (the source has its own solid strap); its resistance
    /// lets the ring ride with the substrate noise, nearly doubling the
    /// back-gate voltage division -- the paper's Figure 3/4 effect.
    double ground_wire_width = 0.8;
    /// Unit transistor geometry (4 in parallel, paper-style RF NMOS).
    double w_um = 60.0;
    double l_um = 0.34;
    int parallel = 4;
    /// Drain bias [V] and initial gate bias [V].
    double vdrain = 1.0;
    double vgate = 1.0;
    substrate::MeshOptions mesh;
};

struct NmosStructure {
    tech::Technology tech;
    layout::Layout layout;
    core::FlowInputs inputs;

    // Node / device names used by benches and tests.
    static constexpr const char* kOut = "out";
    static constexpr const char* kGate = "vg";
    static constexpr const char* kBulk = "bulk_nmos";
    static constexpr const char* kSourceNode = "vgnd_mos";
    static constexpr const char* kSubPort = "subinj!sub";
    static constexpr const char* kNoiseSource = "vsub";
    static constexpr const char* kGateSource = "vvg";
    static constexpr const char* kDrainSource = "vvd";
    static constexpr const char* kMosfet = "m1";
};

/// Builds layout + schematic + pins + ports; feed `inputs` to
/// core::build_impact_model.
NmosStructure build_nmos_structure(const NmosStructureOptions& opt = {});

/// Convenience: runs the full Figure-2 flow on the structure (consumes it).
core::ImpactModel build_model(NmosStructure&& s, const core::FlowOptions& opt = {});

/// Flow options of the paper's Figure-3 runs: 3 um mesh cells over the
/// transistor, its tap and the injection contact, 40 um margin.
core::FlowOptions nmos_flow_options();

} // namespace snim::testcases
