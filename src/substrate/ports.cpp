#include "substrate/ports.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>

#include "tech/generic180.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace snim::substrate {

namespace {

/// Assumed contact cut pitch [um].
constexpr double kCutPitch = 0.5;

} // namespace

double contact_cuts(const geom::Rect& r) {
    return std::max(1.0, r.area() / (kCutPitch * kCutPitch));
}

std::string tap_port_name(const std::string& net) { return net + "!sub"; }
std::string well_port_name(const std::string& net) { return net + "!well"; }

std::vector<TapCluster> cluster_taps(const std::vector<layout::Shape>& shapes,
                                     const layout::ExtractedNets& nets) {
    SNIM_ASSERT(shapes.size() == nets.shape_net.size(), "shapes/nets size mismatch");

    // Collect tap shapes per net.
    std::map<int, std::vector<size_t>> taps_by_net;
    for (size_t i = 0; i < shapes.size(); ++i) {
        if (shapes[i].layer != tech::layers::kSubTap) continue;
        const int net = nets.shape_net[i];
        if (net < 0) continue;
        taps_by_net[net].push_back(i);
    }

    std::vector<TapCluster> out;
    for (const auto& [net, indices] : taps_by_net) {
        // Union-find over touching tap shapes (tolerant: inflate 0.5 um so
        // ring corners connect).
        std::vector<size_t> parent(indices.size());
        std::iota(parent.begin(), parent.end(), 0);
        std::function<size_t(size_t)> find = [&](size_t x) {
            while (parent[x] != x) {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            return x;
        };
        for (size_t a = 0; a < indices.size(); ++a)
            for (size_t b = a + 1; b < indices.size(); ++b)
                if (shapes[indices[a]].rect.inflated(0.5).touches(shapes[indices[b]].rect))
                    parent[find(a)] = find(b);

        std::map<size_t, TapCluster> clusters;
        for (size_t k = 0; k < indices.size(); ++k) {
            auto& c = clusters[find(k)];
            c.net = net;
            c.region.add(shapes[indices[k]].rect);
            c.cuts += contact_cuts(shapes[indices[k]].rect);
            c.shape_indices.push_back(indices[k]);
        }

        // Deterministic order: by cluster bbox (x0, y0).
        std::vector<TapCluster> list;
        for (auto& [root, c] : clusters) list.push_back(std::move(c));
        std::sort(list.begin(), list.end(), [](const TapCluster& a, const TapCluster& b) {
            const auto ba = a.region.bbox();
            const auto bb = b.region.bbox();
            return std::tie(ba.x0, ba.y0) < std::tie(bb.x0, bb.y0);
        });
        const std::string& net_name = nets.net_names[static_cast<size_t>(net)];
        for (size_t k = 0; k < list.size(); ++k) {
            list[k].name = (list.size() == 1)
                               ? tap_port_name(net_name)
                               : tap_port_name(net_name) + std::to_string(k);
            out.push_back(std::move(list[k]));
        }
    }
    return out;
}

std::vector<PortSpec> ports_from_layout(const std::vector<layout::Shape>& shapes,
                                        const layout::ExtractedNets& nets,
                                        const std::vector<layout::Label>& labels,
                                        const tech::Technology& tech) {
    const tech::Layer* tap = tech.find_layer(tech::layers::kSubTap);
    const double tap_res = tap ? tap->via_res : 6.0;

    std::vector<PortSpec> out;
    for (auto& cluster : cluster_taps(shapes, nets)) {
        PortSpec spec;
        spec.name = cluster.name;
        spec.region = std::move(cluster.region);
        spec.kind = PortKind::Resistive;
        spec.contact_resistance = tap_res / cluster.cuts;
        out.push_back(std::move(spec));
    }

    // --- n-wells: capacitive ports named from a label inside the well ----
    const tech::Layer* nwell = tech.find_layer(tech::layers::kNWell);
    if (nwell) {
        std::map<std::string, geom::Region> wells;
        for (const auto& s : shapes) {
            if (s.layer != tech::layers::kNWell) continue;
            std::string owner = "nwell";
            for (const auto& l : labels) {
                if (l.layer == tech::layers::kNWell && s.rect.contains(l.pos)) {
                    owner = l.text;
                    break;
                }
            }
            wells[owner].add(s.rect);
        }
        for (auto& [name, region] : wells) {
            PortSpec spec;
            spec.name = well_port_name(name);
            spec.region = std::move(region);
            spec.kind = PortKind::Capacitive;
            spec.cap_per_area = nwell->well_cap_area;
            out.push_back(std::move(spec));
        }
    }
    return out;
}

} // namespace snim::substrate
