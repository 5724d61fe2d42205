// Builds substrate port specifications from a layout: substrate-tap shapes
// grouped per net become resistive ports, n-well shapes become capacitive
// ports, and callers can add probe ports under sensitive devices.
#pragma once

#include <vector>

#include "layout/connectivity.hpp"
#include "layout/layout.hpp"
#include "substrate/extractor.hpp"
#include "tech/technology.hpp"

namespace snim::substrate {

/// Estimated contact cut count of a drawn tap or via rectangle: its area
/// over the 0.5 um square cut pitch assumed for strips and multi-cut
/// arrays, at least one.  The substrate tap ports and the interconnect
/// vias share this one estimate.
double contact_cuts(const geom::Rect& r);

/// A spatially connected group of substrate-tap shapes on one net.  The MOS
/// ground ring and the outer guard ring of the paper sit on the SAME net
/// but at different locations with different wiring resistance to the pad,
/// so each cluster must become its own substrate port.
struct TapCluster {
    std::string name;         // port / circuit node name
    int net = -1;             // net id
    geom::Region region;
    double cuts = 1.0;        // estimated contact cut count
    std::vector<size_t> shape_indices;
};

/// Groups the subtap shapes of each net into touching clusters
/// (deterministic naming: "<net>!sub" if unique on the net, otherwise
/// "<net>!sub<k>" ordered by cluster bounding box).  Used by BOTH the
/// substrate port builder and the interconnect extractor so the stitched
/// node names agree.
std::vector<TapCluster> cluster_taps(const std::vector<layout::Shape>& shapes,
                                     const layout::ExtractedNets& nets,
                                     const tech::Technology& tech);

/// Scans the flattened layout: every tap cluster yields a Resistive port
/// whose contact resistance is the technology's subtap via_res over the
/// cluster's cut count; every labelled n-well region yields a Capacitive
/// port named "<label>!well".  The returned specs reference the net names
/// discovered by connectivity extraction.
std::vector<PortSpec> ports_from_layout(const std::vector<layout::Shape>& shapes,
                                        const layout::ExtractedNets& nets,
                                        const std::vector<layout::Label>& labels,
                                        const tech::Technology& tech);

/// Port name helpers shared with the impact flow.
std::string tap_port_name(const std::string& net);
std::string well_port_name(const std::string& net);

} // namespace snim::substrate
