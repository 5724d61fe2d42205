#include "core/impact_flow.hpp"

#include <cmath>
#include <utility>

#include "layout/connectivity.hpp"
#include "mor/macromodel.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace snim::core {

namespace {

/// Lateral grid of substrate surface-potential patches used as the
/// coupling targets of wire capacitances (per axis).
constexpr int kSurfacePatches = 3;

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Phase kBuildPhase("flow/build_impact_model");
const obs::Phase kStitchPhase("flow/stitch");
const obs::Counter kBuilds("flow/builds");
const obs::Counter kDegradedBuilds("flow/degraded_builds");
const obs::Value kModelDevices("flow/model_devices");
const obs::Value kModelNodes("flow/model_nodes");

} // namespace

const interconnect::NetStats* ImpactModel::wire_stats_for(const std::string& net) const {
    for (const auto& s : wire_stats)
        if (equals_nocase(s.name, net)) return &s;
    return nullptr;
}

void validate_flow_options(const FlowOptions& opt) {
    const auto& m = opt.substrate.mesh;
    if (!(std::isfinite(m.fine_pitch) && m.fine_pitch > 0.0))
        raise("FlowOptions.substrate.mesh.fine_pitch must be finite and > 0 (got %g)",
              m.fine_pitch);
    if (!(std::isfinite(m.growth) && m.growth > 1.0))
        raise("FlowOptions.substrate.mesh.growth must be finite and > 1 (got %g)",
              m.growth);
    if (!(m.max_pitch >= m.fine_pitch))
        raise("FlowOptions.substrate.mesh.max_pitch (%g) must be >= fine_pitch (%g)",
              m.max_pitch, m.fine_pitch);
    const std::pair<const char*, double> focus[] = {
        {"x0", m.focus.x0}, {"y0", m.focus.y0}, {"x1", m.focus.x1}, {"y1", m.focus.y1}};
    for (const auto& [name, v] : focus)
        if (!std::isfinite(v))
            raise("FlowOptions.substrate.mesh.focus.%s must be finite (got %g)", name, v);
    if (!(std::isfinite(m.margin) && m.margin >= 0.0))
        raise("FlowOptions.substrate.mesh.margin must be finite and >= 0 (got %g)",
              m.margin);
    if (m.z_steps.empty())
        raise("FlowOptions.substrate.mesh.z_steps must not be empty");
    for (size_t i = 0; i < m.z_steps.size(); ++i)
        if (!(std::isfinite(m.z_steps[i]) && m.z_steps[i] > 0.0))
            raise("FlowOptions.substrate.mesh.z_steps[%zu] must be finite and > 0 "
                  "(got %g)", i, m.z_steps[i]);
}

void digest_options(obs::ConfigDigest& d, const FlowOptions& opt) {
    const substrate::MeshOptions& m = opt.substrate.mesh;
    d.add("flow.substrate.mesh.fine_pitch", m.fine_pitch);
    d.add("flow.substrate.mesh.growth", m.growth);
    d.add("flow.substrate.mesh.max_pitch", m.max_pitch);
    d.add("flow.substrate.mesh.focus",
          std::vector<double>{m.focus.x0, m.focus.y0, m.focus.x1, m.focus.y1});
    d.add("flow.substrate.mesh.z_steps", m.z_steps);
    d.add("flow.substrate.mesh.margin", m.margin);
    d.add("flow.interconnect.extract_resistance", opt.interconnect.extract_resistance);
    d.add("flow.interconnect.substrate_node_set",
          static_cast<bool>(opt.interconnect.substrate_node));
}

ImpactModel build_impact_model(FlowInputs inputs, const FlowOptions& opt) {
    SNIM_ASSERT(inputs.layout != nullptr && inputs.tech != nullptr,
                "flow needs layout and technology");
    validate_flow_options(opt);
    // Adopt the enclosing run's identity (a bench scenario already set one)
    // or establish this flow as its own run.
    {
        obs::ConfigDigest digest;
        digest_options(digest, opt);
        obs::ensure_current_manifest("impact_flow", digest, default_rng_seed(),
                                     util::default_thread_count());
    }
    obs::ScopedTimer obs_flow(kBuildPhase, obs::Timing::WhenEnabled, obs::Rss::Track);
    const layout::Layout& lay = *inputs.layout;
    const tech::Technology& tech = *inputs.tech;

    // --- layout preparation ------------------------------------------------
    const auto shapes = lay.flatten_shapes();
    const auto labels = lay.flatten_labels();
    const auto nets = layout::extract_connectivity(shapes, labels, tech);
    const geom::Rect area = lay.bbox();
    SNIM_ASSERT(!area.empty(), "layout is empty");

    // --- substrate ports ----------------------------------------------------
    // Resistive tap ports come from the layout's subtap shapes: taps only;
    // wells are passed explicitly so their names match schematic nodes.
    std::vector<substrate::PortSpec> ports = inputs.substrate_ports;
    for (auto& p : substrate::ports_from_layout(shapes, nets, labels, tech)) {
        if (p.kind == substrate::PortKind::Resistive) ports.push_back(std::move(p));
    }

    // Surface-potential patches: coupling targets for wire capacitance.
    const double px = area.width() / kSurfacePatches;
    const double py = area.height() / kSurfacePatches;
    std::vector<std::string> patch_names;
    for (int iy = 0; iy < kSurfacePatches; ++iy) {
        for (int ix = 0; ix < kSurfacePatches; ++ix) {
            substrate::PortSpec spec;
            spec.name = format("surf:%d_%d", ix, iy);
            spec.kind = substrate::PortKind::Probe;
            const double cx = area.x0 + (ix + 0.5) * px;
            const double cy = area.y0 + (iy + 0.5) * py;
            // Footprint ~ one fine mesh cell so the probe does not laterally
            // short the surface.
            const double probe_w = std::min(px, 2.0 * opt.substrate.mesh.fine_pitch);
            const double probe_h = std::min(py, 2.0 * opt.substrate.mesh.fine_pitch);
            spec.region.add(geom::Rect::centered(cx, cy, probe_w, probe_h));
            patch_names.push_back(spec.name);
            ports.push_back(std::move(spec));
        }
    }

    // --- substrate extraction ----------------------------------------------
    // The extractors record their own flow/substrate_extract and
    // flow/interconnect_extract phases; the *_seconds fields mirror those
    // registry entries for API compatibility.
    ImpactModel out;
    out.substrate = substrate::extract_substrate(area, tech.substrate(), ports,
                                                 opt.substrate);
    out.substrate_seconds = out.substrate.extract_seconds;
    out.mesh_nodes = out.substrate.mesh_node_count;
    if (out.substrate.mor_fallback) {
        // The flow still produces a usable (exact, just unreduced) model;
        // the counter lets sweep reports flag the degraded corner.
        obs::count(kDegradedBuilds);
        log_warn("impact model: substrate reduction degraded to the unreduced "
                 "mesh (%zu nodes) — simulation will be slower",
                 out.mesh_nodes);
    }

    // --- interconnect extraction --------------------------------------------
    interconnect::ExtractOptions ic_opt = opt.interconnect;
    if (!ic_opt.substrate_node) {
        ic_opt.substrate_node = [area, px, py, patch_names](const geom::Rect& foot,
                                                            const std::string&) {
            const auto c = foot.center();
            int ix = static_cast<int>((c.x - area.x0) / px);
            int iy = static_cast<int>((c.y - area.y0) / py);
            ix = std::clamp(ix, 0, kSurfacePatches - 1);
            iy = std::clamp(iy, 0, kSurfacePatches - 1);
            return patch_names[static_cast<size_t>(iy * kSurfacePatches + ix)];
        };
    }
    auto ic = interconnect::extract_interconnect(shapes, nets, tech, inputs.pins, ic_opt);
    out.wire_stats = std::move(ic.stats);
    out.interconnect_seconds = ic.extract_seconds;

    // --- stitching ------------------------------------------------------------
    // Substrate macromodel first (creates the port-named nodes), then the
    // wiring (shares tap ports / surface patches by name), then the
    // schematic (shares pin nodes), then the package.
    {
        obs::ScopedTimer obs_stitch(kStitchPhase, obs::Timing::WhenEnabled,
                                    obs::Rss::Track);
        mor::instantiate(out.substrate.reduced, out.netlist, out.substrate.port_names,
                         "sub:");
        out.netlist.absorb(std::move(ic.netlist), "", {});
        out.netlist.absorb(std::move(inputs.schematic), "", {});
        inputs.package.instantiate(out.netlist);
    }
    if (obs::enabled()) {
        obs::count(kBuilds);
        obs::record_value(kModelDevices, static_cast<double>(out.netlist.device_count()));
        obs::record_value(kModelNodes, static_cast<double>(out.netlist.node_count()));
    }

    log_info("impact model: %zu devices, %zu nodes (mesh %zu -> %zu ports)",
             out.netlist.device_count(), out.netlist.node_count(), out.mesh_nodes,
             out.substrate.port_names.size());
    return out;
}

} // namespace snim::core
