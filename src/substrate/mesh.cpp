#include "substrate/mesh.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace snim::substrate {

namespace {

/// Hard cap on lateral cells per axis (the pitch is coarsened if exceeded).
constexpr int kMaxCellsPerAxis = 160;

} // namespace

std::vector<double> graded_edges(double lo, double hi, double flo, double fhi,
                                 double fine, double growth, double max_pitch,
                                 int max_cells) {
    SNIM_ASSERT(hi > lo, "degenerate interval");
    SNIM_ASSERT(fine > 0 && growth > 1.0 && max_pitch >= fine, "bad grading");
    flo = std::clamp(flo, lo, hi);
    fhi = std::clamp(fhi, lo, hi);
    if (fhi <= flo) {
        // No focus: uniform at max_pitch (bounded by max_cells).
        flo = fhi = lo;
    }

    std::vector<double> edges;
    // Fine region (uniform).
    const int nfine = std::max(1, static_cast<int>(std::ceil((fhi - flo) / fine)));
    for (int i = 0; i <= nfine; ++i)
        edges.push_back(flo + (fhi - flo) * static_cast<double>(i) / nfine);

    // Grow outward to the right.
    double step = fine;
    while (edges.back() < hi - 1e-9) {
        step = std::min(step * growth, max_pitch);
        edges.push_back(std::min(edges.back() + step, hi));
    }
    // Grow outward to the left (prepend).
    std::vector<double> left;
    step = fine;
    double x = edges.front();
    while (x > lo + 1e-9) {
        step = std::min(step * growth, max_pitch);
        x = std::max(x - step, lo);
        left.push_back(x);
    }
    std::reverse(left.begin(), left.end());
    left.insert(left.end(), edges.begin(), edges.end());
    edges = std::move(left);

    // Coarsen if over budget: merge every other interior edge.
    while (static_cast<int>(edges.size()) - 1 > max_cells) {
        std::vector<double> merged;
        merged.push_back(edges.front());
        for (size_t i = 2; i + 1 < edges.size(); i += 2) merged.push_back(edges[i]);
        merged.push_back(edges.back());
        edges = std::move(merged);
    }
    SNIM_ASSERT(edges.size() >= 3, "grading produced too few cells");
    return edges;
}

Mesh::Mesh(const geom::Rect& area_um, const tech::DopingProfile& profile,
           const MeshOptions& opt)
    : area_(area_um.inflated(opt.margin)) {
    SNIM_ASSERT(!area_.empty(), "empty mesh area");
    SNIM_ASSERT(!opt.z_steps.empty(), "mesh needs at least one slab");

    geom::Rect focus = opt.focus;
    if (focus.empty()) focus = area_; // uniform-ish fine mesh, capped below
    xe_ = graded_edges(area_.x0, area_.x1, focus.x0, focus.x1, opt.fine_pitch,
                       opt.growth, opt.max_pitch, kMaxCellsPerAxis);
    ye_ = graded_edges(area_.y0, area_.y1, focus.y0, focus.y1, opt.fine_pitch,
                       opt.growth, opt.max_pitch, kMaxCellsPerAxis);

    // Scale slab thicknesses to the profile depth.
    double zsum = 0.0;
    for (double t : opt.z_steps) {
        SNIM_ASSERT(t > 0, "slab thickness must be positive");
        zsum += t;
    }
    const double scale = profile.depth() / zsum;
    zt_ = opt.z_steps;
    for (double& t : zt_) t *= scale;
    double z = 0.0;
    zc_.resize(zt_.size());
    for (size_t i = 0; i < zt_.size(); ++i) {
        zc_[i] = z + 0.5 * zt_[i];
        z += zt_[i];
    }
    backside_grounded_ = profile.backside_grounded();

    net_.node_count = node_count();
    build(profile);
}

int Mesh::node(int ix, int iy, int iz) const {
    SNIM_ASSERT(ix >= 0 && ix < nx() && iy >= 0 && iy < ny() && iz >= 0 && iz < nz(),
                "mesh index (%d,%d,%d) out of range", ix, iy, iz);
    return (iz * ny() + iy) * nx() + ix;
}

geom::Rect Mesh::cell_rect(int ix, int iy) const {
    return geom::Rect(xe_[static_cast<size_t>(ix)], ye_[static_cast<size_t>(iy)],
                      xe_[static_cast<size_t>(ix) + 1], ye_[static_cast<size_t>(iy) + 1]);
}

std::vector<std::pair<int, double>> Mesh::surface_overlap(const geom::Rect& r) const {
    std::vector<std::pair<int, double>> out;
    // Binary search for the index ranges.
    auto lower = [](const std::vector<double>& e, double v) {
        return static_cast<int>(std::upper_bound(e.begin(), e.end(), v) - e.begin()) - 1;
    };
    const int ix0 = std::clamp(lower(xe_, r.x0), 0, nx() - 1);
    const int ix1 = std::clamp(lower(xe_, r.x1), 0, nx() - 1);
    const int iy0 = std::clamp(lower(ye_, r.y0), 0, ny() - 1);
    const int iy1 = std::clamp(lower(ye_, r.y1), 0, ny() - 1);
    for (int ix = ix0; ix <= ix1; ++ix) {
        for (int iy = iy0; iy <= iy1; ++iy) {
            const double a = cell_rect(ix, iy).intersection(r).area();
            if (a > 0) out.emplace_back(node(ix, iy, 0), a);
        }
    }
    return out;
}

int Mesh::add_aux_node() {
    const int id = static_cast<int>(net_.node_count);
    ++net_.node_count;
    return id;
}

void Mesh::build(const tech::DopingProfile& profile) {
    // Box-integration conductances between adjacent cell centres.  All
    // geometry in um; sigma in S/m, so G = sigma * area_um2 / dist_um * 1e-6.
    constexpr double kUm = 1e-6;
    const double eps_si = units::kEps0 * units::kEpsSi;

    auto dx = [&](int ix) { return xe_[static_cast<size_t>(ix) + 1] - xe_[static_cast<size_t>(ix)]; };
    auto dy = [&](int iy) { return ye_[static_cast<size_t>(iy) + 1] - ye_[static_cast<size_t>(iy)]; };

    for (int iz = 0; iz < nz(); ++iz) {
        const double sigma = profile.conductivity_at(zc_[static_cast<size_t>(iz)]);
        const double tz = zt_[static_cast<size_t>(iz)];
        // Lateral x-neighbours: series of the two half-cells.
        for (int iy = 0; iy < ny(); ++iy) {
            for (int ix = 0; ix + 1 < nx(); ++ix) {
                const double dist = 0.5 * (dx(ix) + dx(ix + 1));
                const double g = sigma * (dy(iy) * tz) / dist * kUm;
                net_.add_g(node(ix, iy, iz), node(ix + 1, iy, iz), g);
                net_.add_c(node(ix, iy, iz), node(ix + 1, iy, iz),
                           eps_si * (dy(iy) * tz) / dist * kUm);
            }
        }
        // Lateral y-neighbours.
        for (int iy = 0; iy + 1 < ny(); ++iy) {
            for (int ix = 0; ix < nx(); ++ix) {
                const double dist = 0.5 * (dy(iy) + dy(iy + 1));
                const double g = sigma * (dx(ix) * tz) / dist * kUm;
                net_.add_g(node(ix, iy, iz), node(ix, iy + 1, iz), g);
                net_.add_c(node(ix, iy, iz), node(ix, iy + 1, iz),
                           eps_si * (dx(ix) * tz) / dist * kUm);
            }
        }
        // Vertical neighbours (series of the two half-slabs).
        if (iz + 1 < nz()) {
            const double sig2 = profile.conductivity_at(zc_[static_cast<size_t>(iz) + 1]);
            const double t2 = zt_[static_cast<size_t>(iz) + 1];
            for (int iy = 0; iy < ny(); ++iy) {
                for (int ix = 0; ix < nx(); ++ix) {
                    const double a = dx(ix) * dy(iy);
                    const double g1 = sigma * a / (0.5 * tz) * kUm;
                    const double g2 = sig2 * a / (0.5 * t2) * kUm;
                    const double c1 = eps_si * a / (0.5 * tz) * kUm;
                    const double c2 = eps_si * a / (0.5 * t2) * kUm;
                    net_.add_g(node(ix, iy, iz), node(ix, iy, iz + 1),
                               g1 * g2 / (g1 + g2));
                    net_.add_c(node(ix, iy, iz), node(ix, iy, iz + 1),
                               c1 * c2 / (c1 + c2));
                }
            }
        }
    }

    // Backside contact (grounded wafer chuck) for epi-type substrates.
    if (backside_grounded_) {
        const int iz = nz() - 1;
        const double sigma = profile.conductivity_at(zc_[static_cast<size_t>(iz)]);
        for (int iy = 0; iy < ny(); ++iy)
            for (int ix = 0; ix < nx(); ++ix) {
                const double g = sigma * (dx(ix) * dy(iy)) /
                                 (0.5 * zt_[static_cast<size_t>(iz)]) * kUm;
                net_.add_g(node(ix, iy, iz), -1, g);
            }
    }
}

} // namespace snim::substrate
