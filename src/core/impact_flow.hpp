// The paper's contribution: the substrate-noise impact simulation flow of
// Figure 2.  Layout + technology are run through the substrate extractor,
// the interconnect extractor and the circuit netlist; a package model is
// added; the stitched result is the complete impact model on which the
// impact simulator (sim/ + rf/) predicts waveforms at every node.
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "interconnect/extractor.hpp"
#include "obs/provenance.hpp"
#include "layout/layout.hpp"
#include "package/package.hpp"
#include "substrate/extractor.hpp"
#include "substrate/ports.hpp"
#include "tech/technology.hpp"

namespace snim::core {

/// Wire capacitances couple to a 3 x 3 grid of substrate surface-potential
/// patches (a constant in impact_flow.cpp) unless the interconnect options
/// name their own substrate_node callback.
struct FlowOptions {
    substrate::ExtractOptions substrate;
    interconnect::ExtractOptions interconnect;
};

/// Validates every FlowOptions field, raising an error that names the
/// offending field (mesh pitches positive, focus finite, ...).
/// build_impact_model() calls this before any extraction work starts.
void validate_flow_options(const FlowOptions& opt);

/// Feeds every FlowOptions field — including the nested substrate mesh and
/// interconnect extraction options — into a provenance config digest under
/// "flow.*" names.  The interconnect substrate_node callback is hashed as a
/// presence bit (callables have no stable value identity).
void digest_options(obs::ConfigDigest& d, const FlowOptions& opt);

struct FlowInputs {
    const layout::Layout* layout = nullptr;
    const tech::Technology* tech = nullptr;
    /// Device-level schematic; its node names must match the pin node
    /// names for stitching.
    circuit::Netlist schematic;
    /// Where schematic nodes attach to the drawn wiring.
    std::vector<interconnect::WirePin> pins;
    package::PackageModel package;
    /// Extra substrate ports: noise injection contacts, device back-gate
    /// probes, well interfaces named after schematic nodes.
    std::vector<substrate::PortSpec> substrate_ports;
};

struct ImpactModel {
    /// The complete stitched system model.
    circuit::Netlist netlist;
    substrate::SubstrateModel substrate;
    std::vector<interconnect::NetStats> wire_stats;
    double substrate_seconds = 0.0;
    double interconnect_seconds = 0.0;
    size_t mesh_nodes = 0;

    const interconnect::NetStats* wire_stats_for(const std::string& net) const;
};

/// Runs extraction and stitching; consumes `inputs.schematic`.
ImpactModel build_impact_model(FlowInputs inputs, const FlowOptions& opt = {});

} // namespace snim::core
