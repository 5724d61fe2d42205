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

/// Reduction-error probe of extract_substrate, run only while obs is
/// enabled: the worst relative port-current error over this many random
/// port excitations (mor::probe_reduction_error) goes to the accuracy
/// budget as stage "mor/reduction", against kReductionErrorMax.
inline constexpr int kReductionProbes = 3;
inline constexpr double kReductionErrorMax = 1e-6;

struct ExtractOptions {
    MeshOptions mesh;
};

struct SubstrateModel {
    /// Reduced network; node i is port i.
    mor::RcNetwork reduced;
    std::vector<std::string> port_names;
    size_t mesh_node_count = 0;
    double extract_seconds = 0.0;
    /// True when the reduction failed and `reduced` holds the unreduced
    /// mesh network instead, ports first (mor::ports_first).  Counted in
    /// substrate/mor_fallbacks, and in flow/degraded_builds by the flow.
    bool mor_fallback = false;

    int port_index(const std::string& name) const;
};

/// Runs the extraction.  `area` is the chip outline in um (margin is added
/// by the mesher).  Port regions outside the meshed area are an error.
/// When the CG-based reduction fails, the extraction degrades to the
/// unreduced mesh network instead of aborting the flow: the stitched model
/// is larger and slower to simulate but exact (SubstrateModel::mor_fallback).
SubstrateModel extract_substrate(const geom::Rect& area,
                                 const tech::DopingProfile& profile,
                                 const std::vector<PortSpec>& ports,
                                 const ExtractOptions& opt = {});

} // namespace snim::substrate
