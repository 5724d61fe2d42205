// 3-D finite-difference discretisation of the substrate volume into a
// resistive (plus dielectric-capacitance) box mesh -- the numerical engine
// behind the substrate extractor, equivalent in spirit to SubstrateStorm's
// substrate solver.
//
// Lateral grid: non-uniform tensor mesh.  Cells are fine (`fine_pitch`)
// inside the focus window -- the circuit core, where back-gate-to-ring
// potential differences must be resolved -- and grow geometrically towards
// the chip edge.  Vertical grid: user-supplied slab thicknesses, fine near
// the surface where contacts and wells live, coarse in the bulk.
#pragma once

#include <vector>

#include "geom/rect.hpp"
#include "mor/elimination.hpp"
#include "tech/doping.hpp"

namespace snim::substrate {

struct MeshOptions {
    /// Fine lateral cell pitch inside the focus window [um].
    double fine_pitch = 5.0;
    /// Geometric growth of the cell pitch outside the focus window.
    double growth = 1.45;
    /// Maximum lateral pitch [um].
    double max_pitch = 60.0;
    /// Focus window (um).  Empty -> the whole analysed area is meshed at a
    /// pitch chosen so the cell count stays moderate.
    geom::Rect focus;
    /// Slab thicknesses from the surface down [um]; scaled to the doping
    /// profile depth if their sum differs.
    std::vector<double> z_steps = {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 122.5};
    /// Margin added around the analysed area [um].
    double margin = 25.0;
};

class Mesh {
public:
    Mesh(const geom::Rect& area_um, const tech::DopingProfile& profile,
         const MeshOptions& opt);

    int nx() const { return static_cast<int>(xe_.size()) - 1; }
    int ny() const { return static_cast<int>(ye_.size()) - 1; }
    int nz() const { return static_cast<int>(zc_.size()); }
    size_t node_count() const {
        return static_cast<size_t>(nx()) * static_cast<size_t>(ny()) * zc_.size();
    }

    /// Mesh node id for cell (ix, iy, iz); iz = 0 is the surface layer.
    int node(int ix, int iy, int iz) const;

    geom::Rect cell_rect(int ix, int iy) const;
    geom::Rect area() const { return area_; }

    /// Surface cells whose rect overlaps `r`, as (node id, overlap area um^2).
    std::vector<std::pair<int, double>> surface_overlap(const geom::Rect& r) const;

    /// The assembled RC network (node ids as from node()); ground (-1) holds
    /// the backside contact when the profile is backside-grounded.
    const mor::RcNetwork& network() const { return net_; }
    mor::RcNetwork& network() { return net_; }

    /// Appends a new node to the network and returns its id (used by
    /// extractors for contact/well port nodes).
    int add_aux_node();

private:
    void build(const tech::DopingProfile& profile);

    geom::Rect area_;
    std::vector<double> xe_, ye_; // lateral cell edges
    std::vector<double> zt_;      // slab thicknesses
    std::vector<double> zc_;      // slab centre depths
    bool backside_grounded_ = false;
    mor::RcNetwork net_;
};

/// Builds a graded 1-D edge vector covering [lo, hi] with `fine` pitch
/// inside [flo, fhi] and geometric growth outside (exposed for testing).
std::vector<double> graded_edges(double lo, double hi, double flo, double fhi,
                                 double fine, double growth, double max_pitch,
                                 int max_cells);

} // namespace snim::substrate
