#include "interconnect/extractor.hpp"

#include <map>
#include <unordered_map>

#include "circuit/passives.hpp"
#include "geom/grid_index.hpp"
#include "interconnect/fracture.hpp"
#include "obs/trace.hpp"
#include "substrate/ports.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace snim::interconnect {

const NetStats* InterconnectModel::stats_for(const std::string& net) const {
    for (const auto& s : stats)
        if (equals_nocase(s.name, net)) return &s;
    return nullptr;
}

namespace {

/// Resistance of a merge/touch link between overlapping shapes, and of
/// every wire under ideal interconnect (extract_resistance off) [ohm].
constexpr double kTouchResistance = 1e-3;
/// Wire-to-substrate capacitances below this are dropped [F].
constexpr double kCapFloor = 0.005e-15;

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Phase kExtractPhase("flow/interconnect_extract");
const obs::Counter kDevices("interconnect/devices");
const obs::Counter kNets("interconnect/nets");
const obs::Counter kSegments("interconnect/segments");

// A global attach event: where some connection lands on a routing shape.
struct Event {
    enum class Kind { Pin, ViaBottom, ViaTop, Touch, SubTap } kind;
    size_t aux = 0;    // pin index / via shape index / touch pair index
};

struct TouchPair {
    size_t shape_a, shape_b;
    circuit::NodeId node_a = circuit::kGround, node_b = circuit::kGround;
    bool a_set = false, b_set = false;
};

struct ViaLink {
    size_t via_shape;
    circuit::NodeId bottom = circuit::kGround, top = circuit::kGround;
    bool bottom_set = false, top_set = false;
};

} // namespace

InterconnectModel extract_interconnect(const std::vector<layout::Shape>& shapes,
                                       const layout::ExtractedNets& nets,
                                       const tech::Technology& tech,
                                       const std::vector<WirePin>& pins,
                                       const ExtractOptions& opt) {
    SNIM_ASSERT(shapes.size() == nets.shape_net.size(), "shapes/nets size mismatch");
    // Always times: extract_seconds is a public result field.
    obs::ScopedTimer obs_timer(kExtractPhase, obs::Timing::Always, obs::Rss::Track);

    InterconnectModel out;
    circuit::Netlist& nl = out.netlist;

    // --- indices ----------------------------------------------------------
    std::unordered_map<std::string, geom::GridIndex> routing_index;
    for (size_t i = 0; i < shapes.size(); ++i) {
        const tech::Layer* layer = tech.find_layer(shapes[i].layer);
        if (!layer || layer->kind != tech::LayerKind::Routing) continue;
        if (nets.shape_net[i] < 0) continue;
        auto [it, ins] = routing_index.try_emplace(shapes[i].layer, 10.0);
        it->second.insert(i, shapes[i].rect);
    }

    // --- phase A: attach events per routing shape -------------------------
    std::vector<std::vector<Attach>> attaches(shapes.size());
    std::vector<Event> events;
    std::vector<TouchPair> touches;
    std::vector<ViaLink> vias;
    std::vector<std::string> subtap_names; // per SubTap event

    // Tap clusters give each contact shape the substrate-port name shared
    // with the substrate extractor.
    std::unordered_map<size_t, std::string> tap_name_of_shape;
    for (const auto& cluster : substrate::cluster_taps(shapes, nets))
        for (size_t idx : cluster.shape_indices) tap_name_of_shape[idx] = cluster.name;

    auto add_event = [&](size_t shape, geom::Point at, Event e) {
        events.push_back(e);
        attaches[shape].push_back({at, static_cast<int>(events.size()) - 1});
    };

    // Pins attach to the first containing shape on their layer.
    for (size_t p = 0; p < pins.size(); ++p) {
        auto it = routing_index.find(pins[p].layer);
        if (it == routing_index.end())
            raise("pin '%s': no routed shapes on layer '%s'", pins[p].node_name.c_str(),
                  pins[p].layer.c_str());
        bool placed = false;
        const geom::Rect probe(pins[p].at.x, pins[p].at.y, pins[p].at.x, pins[p].at.y);
        for (size_t i : it->second.candidates(probe.inflated(0.01))) {
            if (!shapes[i].rect.contains(pins[p].at)) continue;
            add_event(i, pins[p].at, {Event::Kind::Pin, p});
            placed = true;
            break;
        }
        if (!placed)
            raise("pin '%s' at (%g,%g) on '%s' lands on no wire", pins[p].node_name.c_str(),
                  pins[p].at.x, pins[p].at.y, pins[p].layer.c_str());
    }

    // Same-layer touching shapes of one net.
    for (const auto& [layer_name, index] : routing_index) {
        (void)layer_name;
        for (size_t i = 0; i < shapes.size(); ++i) {
            if (shapes[i].layer != layer_name || nets.shape_net[i] < 0) continue;
            for (size_t j : index.candidates(shapes[i].rect)) {
                if (j <= i) continue;
                if (nets.shape_net[j] != nets.shape_net[i]) continue;
                if (!shapes[i].rect.touches(shapes[j].rect)) continue;
                const geom::Rect ov = shapes[i].rect.intersection(shapes[j].rect);
                geom::Point at = ov.empty()
                                     ? geom::Point{std::max(shapes[i].rect.x0, shapes[j].rect.x0),
                                                   std::max(shapes[i].rect.y0, shapes[j].rect.y0)}
                                     : ov.center();
                const size_t pair = touches.size();
                touches.push_back({i, j, circuit::kGround, circuit::kGround, false, false});
                add_event(i, at, {Event::Kind::Touch, pair});
                add_event(j, at, {Event::Kind::Touch, pair});
            }
        }
    }

    // Vias and contacts.
    for (size_t v = 0; v < shapes.size(); ++v) {
        const tech::Layer* layer = tech.find_layer(shapes[v].layer);
        if (!layer) continue;
        if (layer->kind != tech::LayerKind::Via && layer->kind != tech::LayerKind::Contact)
            continue;
        const geom::Point at = shapes[v].rect.center();

        if (layer->connects_bottom == "substrate") {
            // Substrate tap: the top-layer wire node must carry the
            // substrate macromodel's port name for this net.
            auto it = routing_index.find(layer->connects_top);
            if (it == routing_index.end()) continue;
            auto name_it = tap_name_of_shape.find(v);
            if (name_it == tap_name_of_shape.end()) continue;
            for (size_t i : it->second.candidates(shapes[v].rect)) {
                if (!shapes[i].rect.touches(shapes[v].rect)) continue;
                if (nets.shape_net[i] < 0) continue;
                const size_t idx = subtap_names.size();
                subtap_names.push_back(name_it->second);
                add_event(i, at, {Event::Kind::SubTap, idx});
                break;
            }
            continue;
        }

        const size_t link = vias.size();
        vias.push_back({v, circuit::kGround, circuit::kGround, false, false});
        bool used = false;
        for (const auto& [side, kind] :
             std::initializer_list<std::pair<std::string, Event::Kind>>{
                 {layer->connects_bottom, Event::Kind::ViaBottom},
                 {layer->connects_top, Event::Kind::ViaTop}}) {
            auto it = routing_index.find(side);
            if (it == routing_index.end()) continue;
            for (size_t i : it->second.candidates(shapes[v].rect)) {
                if (!shapes[i].rect.touches(shapes[v].rect)) continue;
                add_event(i, at, {kind, link});
                used = true;
                break;
            }
        }
        if (!used) vias.pop_back();
    }

    // --- phase B: fracture each routing shape, name nodes, emit R & C -----
    std::map<int, NetStats> stats; // by net id
    for (size_t i = 0; i < shapes.size(); ++i) {
        const tech::Layer* layer = tech.find_layer(shapes[i].layer);
        if (!layer || layer->kind != tech::LayerKind::Routing) continue;
        const int net = nets.shape_net[i];
        if (net < 0) continue;
        const std::string& net_name = nets.net_names[static_cast<size_t>(net)];
        auto& st = stats[net];
        st.name = net_name;

        const Fracture frac = fracture_shape(shapes[i].rect, attaches[i]);

        // Assign circuit nodes: pins and subtaps claim their names, the
        // rest are fresh.
        std::vector<circuit::NodeId> node_of(frac.positions.size(), circuit::kGround);
        std::vector<bool> assigned(frac.positions.size(), false);
        std::vector<std::pair<circuit::NodeId, circuit::NodeId>> extra_links;
        for (size_t k = 0; k < attaches[i].size(); ++k) {
            const Event& ev = events[static_cast<size_t>(attaches[i][k].id)];
            const int fn = frac.attach_node[k];
            if (ev.kind != Event::Kind::Pin && ev.kind != Event::Kind::SubTap) continue;
            const std::string& want =
                ev.kind == Event::Kind::Pin ? pins[ev.aux].node_name : subtap_names[ev.aux];
            const circuit::NodeId id = nl.node(want);
            if (!assigned[static_cast<size_t>(fn)]) {
                node_of[static_cast<size_t>(fn)] = id;
                assigned[static_cast<size_t>(fn)] = true;
            } else if (node_of[static_cast<size_t>(fn)] != id) {
                extra_links.emplace_back(node_of[static_cast<size_t>(fn)], id);
            }
        }
        for (size_t k = 0; k < frac.positions.size(); ++k) {
            if (!assigned[k]) node_of[k] = nl.fresh_node("w:" + net_name);
        }
        for (auto [a, b] : extra_links)
            nl.add<circuit::Resistor>(format("tie:%s#%zu", net_name.c_str(),
                                             nl.device_count()),
                                      a, b, kTouchResistance);

        // Record nodes for touch pairs and via links.
        for (size_t k = 0; k < attaches[i].size(); ++k) {
            const Event& ev = events[static_cast<size_t>(attaches[i][k].id)];
            const circuit::NodeId id = node_of[static_cast<size_t>(frac.attach_node[k])];
            switch (ev.kind) {
                case Event::Kind::Touch: {
                    auto& tp = touches[ev.aux];
                    if (i == tp.shape_a) {
                        tp.node_a = id;
                        tp.a_set = true;
                    } else {
                        tp.node_b = id;
                        tp.b_set = true;
                    }
                    break;
                }
                case Event::Kind::ViaBottom:
                    vias[ev.aux].bottom = id;
                    vias[ev.aux].bottom_set = true;
                    break;
                case Event::Kind::ViaTop:
                    vias[ev.aux].top = id;
                    vias[ev.aux].top_set = true;
                    break;
                default:
                    break;
            }
        }

        // Segment resistances.
        for (const auto& seg : frac.segments) {
            const circuit::NodeId a = node_of[static_cast<size_t>(seg.node_a)];
            const circuit::NodeId b = node_of[static_cast<size_t>(seg.node_b)];
            if (a == b) continue;
            const double squares = seg.length / seg.width;
            const double r = opt.extract_resistance
                                 ? std::max(layer->sheet_res * squares, 1e-6)
                                 : kTouchResistance;
            nl.add<circuit::Resistor>(
                format("%s#%zu", net_name.c_str(), nl.device_count()), a, b, r);
            st.resistance_squares += squares;
            ++st.segment_count;
        }

        // Capacitance to the substrate, distributed over segments (single
        // node shapes lump everything on that node).
        if (layer->cap_area > 0 || layer->cap_fringe > 0) {
            auto emit_cap = [&](const geom::Rect& foot, circuit::NodeId node, double frac_of) {
                const double c =
                    (layer->cap_area * foot.area() + layer->cap_fringe * foot.perimeter()) *
                    frac_of;
                if (c < kCapFloor) return;
                const std::string target =
                    opt.substrate_node ? opt.substrate_node(foot, net_name) : "0";
                nl.add<circuit::Capacitor>(
                    format("c:%s#%zu", net_name.c_str(), nl.device_count()), node,
                    nl.node(target), c);
                st.capacitance_total += c;
            };
            if (frac.segments.empty()) {
                emit_cap(shapes[i].rect, node_of[0], 1.0);
            } else {
                for (const auto& seg : frac.segments) {
                    const circuit::NodeId a = node_of[static_cast<size_t>(seg.node_a)];
                    const circuit::NodeId b = node_of[static_cast<size_t>(seg.node_b)];
                    emit_cap(seg.footprint, a, 0.5);
                    emit_cap(seg.footprint, b, 0.5);
                }
            }
        }
    }

    // --- phase C: inter-shape links ---------------------------------------
    for (size_t t = 0; t < touches.size(); ++t) {
        const auto& tp = touches[t];
        if (!tp.a_set || !tp.b_set || tp.node_a == tp.node_b) continue;
        nl.add<circuit::Resistor>(format("touch#%zu", t), tp.node_a, tp.node_b,
                                  kTouchResistance);
    }
    for (size_t v = 0; v < vias.size(); ++v) {
        const auto& link = vias[v];
        if (!link.bottom_set || !link.top_set || link.bottom == link.top) continue;
        const tech::Layer& layer = tech.layer(shapes[link.via_shape].layer);
        const double cuts = substrate::contact_cuts(shapes[link.via_shape].rect);
        const double r = opt.extract_resistance ? std::max(layer.via_res / cuts, 1e-6)
                                                : kTouchResistance;
        nl.add<circuit::Resistor>(format("via#%zu", v), link.bottom, link.top, r);
    }

    for (auto& [net, st] : stats) out.stats.push_back(std::move(st));
    out.extract_seconds = obs_timer.stop();
    if (obs::enabled()) {
        obs::count(kDevices, nl.device_count());
        obs::count(kNets, out.stats.size());
        for (const auto& st : out.stats)
            obs::count(kSegments, static_cast<uint64_t>(st.segment_count));
    }
    log_info("interconnect: %zu devices, %zu nets in %.2fs", nl.device_count(),
             out.stats.size(), out.extract_seconds);
    return out;
}

} // namespace snim::interconnect
