#include "substrate/extractor.hpp"

#include <cmath>

#include "obs/certify.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace snim::substrate {

namespace {

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Phase kExtractPhase("flow/substrate_extract");
const obs::Counter kPorts("substrate/ports");
const obs::Counter kMeshBytes("substrate/mesh_bytes");
const obs::Counter kMorFallbacks("substrate/mor_fallbacks");
const obs::Value kMeshNodes("substrate/mesh_nodes");
const obs::Value kReductionErrorDb("mor/reduction_error_db");

} // namespace

int SubstrateModel::port_index(const std::string& name) const {
    for (size_t i = 0; i < port_names.size(); ++i)
        if (equals_nocase(port_names[i], name)) return static_cast<int>(i);
    return -1;
}

SubstrateModel extract_substrate(const geom::Rect& area,
                                 const tech::DopingProfile& profile,
                                 const std::vector<PortSpec>& ports,
                                 const ExtractOptions& opt) {
    SNIM_ASSERT(!ports.empty(), "substrate extraction needs at least one port");
    // Always times (not just when obs is on): extract_seconds is a public
    // result field that predates the registry and stays populated.
    obs::ScopedTimer obs_timer(kExtractPhase, obs::Timing::Always, obs::Rss::Track);

    Mesh mesh(area, profile, opt.mesh);

    SubstrateModel out;
    out.mesh_node_count = mesh.node_count();
    if (obs::enabled()) {
        obs::record_value(kMeshNodes, static_cast<double>(mesh.node_count()));
        obs::count(kPorts, ports.size());
        // Mesh footprint: the assembled RC network dominates (edge vectors
        // are O(nx + ny)); this is what peak-RSS deltas attribute to here.
        const auto& net = mesh.network();
        obs::count(kMeshBytes, (net.conductances.size() + net.capacitances.size()) *
                                   sizeof(mor::RcNetwork::Elem));
    }

    std::vector<int> port_nodes;
    for (const auto& spec : ports) {
        SNIM_ASSERT(!spec.name.empty(), "substrate port needs a name");
        SNIM_ASSERT(!spec.region.empty(), "substrate port '%s' has no footprint",
                    spec.name.c_str());
        const int pnode = mesh.add_aux_node();
        port_nodes.push_back(pnode);
        out.port_names.push_back(spec.name);

        // Collect all overlapped surface cells across the region's rects,
        // merging duplicates (cells covered by several rects).
        std::vector<std::pair<int, double>> cover;
        double total_area = 0.0;
        for (const auto& r : spec.region.rects()) {
            for (auto [node, a] : mesh.surface_overlap(r)) {
                bool merged = false;
                for (auto& [n2, a2] : cover)
                    if (n2 == node) {
                        a2 += a;
                        merged = true;
                        break;
                    }
                if (!merged) cover.emplace_back(node, a);
                total_area += a;
            }
        }
        if (cover.empty())
            raise("substrate port '%s' does not overlap the meshed area",
                  spec.name.c_str());

        switch (spec.kind) {
            case PortKind::Resistive: {
                SNIM_ASSERT(spec.contact_resistance > 0,
                            "port '%s': contact resistance must be positive",
                            spec.name.c_str());
                // Total contact conductance distributed by covered area.
                const double gtot = 1.0 / spec.contact_resistance;
                for (auto [node, a] : cover)
                    mesh.network().add_g(pnode, node, gtot * a / total_area);
                break;
            }
            case PortKind::Capacitive: {
                SNIM_ASSERT(spec.cap_per_area > 0, "port '%s': needs cap_per_area",
                            spec.name.c_str());
                for (auto [node, a] : cover)
                    mesh.network().add_c(pnode, node, spec.cap_per_area * a);
                break;
            }
            case PortKind::Probe: {
                // Stiff link: far above any substrate conductance so the
                // probe tracks the surface potential exactly, far below the
                // solver's pivot range.
                const double gprobe = 10.0; // 0.1 ohm
                for (auto [node, a] : cover)
                    mesh.network().add_g(pnode, node, gprobe * a / total_area);
                break;
            }
        }
    }

    // Schur reduction via RIC(0)-preconditioned CG solves in Eisenstat's
    // split form (two triangular sweeps per iteration, no matrix-vector
    // product), one right-hand side per port, four ports in lockstep:
    // exact to solver tolerance, with no fill-in beyond the mesh itself
    // (node elimination or a direct factor fills 3-D meshes heavily).
    try {
        out.reduced = mor::reduce_by_solve(mesh.network(), port_nodes);
    } catch (const Error& e) {
        // Graceful degradation: stitch the full mesh network in instead of
        // killing the flow.  Exact, just larger and slower to simulate.
        log_warn("substrate: reduction failed (%s); falling back to the "
                 "unreduced mesh network (%zu nodes)",
                 e.what(), mesh.network().node_count);
        obs::count(kMorFallbacks);
        out.reduced = mor::ports_first(mesh.network(), port_nodes);
        out.mor_fallback = true;
    }

    // Accuracy-budget probe: how much port admittance the reduction lost,
    // measured against the still-live unreduced mesh network.  Observability
    // only — the model itself is unaffected.
    if (obs::enabled() && !out.mor_fallback) {
        const double rel = mor::probe_reduction_error(
            mesh.network(), out.reduced, port_nodes, kReductionProbes);
        const double rel_db =
            rel > 0.0 ? 20.0 * std::log10(rel) : -400.0; // exact -> floor
        obs::record_value(kReductionErrorDb, rel_db);
        obs::budget_update("mor/reduction", rel, kReductionErrorMax, "1",
                           /*higher_is_worse=*/true,
                           format("%d probes", kReductionProbes));
        log_info("substrate: reduction-error probe %.1f dB over %d excitations",
                 rel_db, kReductionProbes);
    }
    out.extract_seconds = obs_timer.stop();
    log_info("substrate: %zu mesh nodes -> %zu ports in %.2fs%s",
             out.mesh_node_count, out.port_names.size(), out.extract_seconds,
             out.mor_fallback ? " (unreduced fallback)" : "");
    return out;
}

} // namespace snim::substrate
