// Substrate extractor: chip area + doping profile + port footprints in,
// reduced port-level RC macromodel out (the "substrate model" box of the
// paper's Figure 2).
#pragma once

#include <string>
#include <vector>

#include "geom/polygon.hpp"
#include "mor/elimination.hpp"
#include "substrate/mesh.hpp"

namespace snim::substrate {

/// How a circuit node touches the substrate surface.
enum class PortKind {
    /// Ohmic contact (p+ substrate tap): resistance per cut / per area.
    Resistive,
    /// Junction / dielectric interface (n-well, inductor metal): C per area.
    Capacitive,
    /// Direct probe of the surface potential (no contact impedance); used
    /// for sensing the local substrate voltage under a device back-gate.
    Probe,
};

struct PortSpec {
    std::string name;       // circuit node this port exposes
    geom::Region region;    // surface footprint [um]
    PortKind kind = PortKind::Resistive;
    /// Resistive: total contact resistance spread over the footprint [ohm].
    double contact_resistance = 5.0;
    /// Capacitive: capacitance per area [F/um^2].
    double cap_per_area = 0.0;
};

struct ExtractOptions {
    MeshOptions mesh;
    /// When the CG-based reduction fails, degrade to the unreduced mesh
    /// network (ports renumbered first) instead of aborting the flow: the
    /// stitched model is larger and slower but exact.  OFF propagates the
    /// reduction error.
    bool unreduced_fallback = true;
    /// Reduction-error probes for the accuracy budget: after a successful
    /// reduction, drive reduced and unreduced networks with this many random
    /// port excitations and ledger the worst relative port-current error as
    /// budget stage "mor/reduction" (see mor::probe_reduction_error).  Runs
    /// only while obs is enabled; 0 disables.
    int mor_probes = 3;
    /// Accuracy budget for the probe error (relative port-current error; the
    /// ledger reports the margin against it in dB).
    double mor_error_max = 1e-6;
};

struct SubstrateModel {
    /// Reduced network; node i is port i.
    mor::RcNetwork reduced;
    std::vector<std::string> port_names;
    size_t mesh_node_count = 0;
    double extract_seconds = 0.0;
    /// True when the reduction failed and `reduced` holds the unreduced
    /// mesh network instead (see ExtractOptions::unreduced_fallback).
    bool mor_fallback = false;

    int port_index(const std::string& name) const;
};

/// Runs the extraction.  `area` is the chip outline in um (margin is added
/// by the mesher).  Port regions outside the meshed area are an error.
SubstrateModel extract_substrate(const geom::Rect& area,
                                 const tech::DopingProfile& profile,
                                 const std::vector<PortSpec>& ports,
                                 const ExtractOptions& opt = {});

} // namespace snim::substrate
