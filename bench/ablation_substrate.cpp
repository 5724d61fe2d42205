// Ablation: why the paper's wafer choice matters.  The same injector /
// guard-ring / probe arrangement is extracted on (a) the paper's high-ohmic
// 20 ohm cm substrate, (b) a twin-well version with a conductive surface
// layer (this repo's generic180 default), and (c) a low-ohmic epi wafer.
//
// Observed physics (classic substrate-coupling results): on high-ohmic
// material the noise dives deep under the guard ring and resurfaces, so
// attenuation SATURATES with distance -- rings have limited reach and
// layout details dominate, the paper's motivation.  On an epi wafer with a
// grounded backside the heavily doped bulk soaks up the noise and
// attenuation keeps improving with distance.
#include <cstdio>

#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "geom/polygon.hpp"
#include "mor/macromodel.hpp"
#include "obs/events.hpp"
#include "sim/op.hpp"
#include "substrate/extractor.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace snim;

namespace {

struct Wafer {
    const char* name;
    tech::DopingProfile profile;
};

/// Surface potential at increasing distance from the injector, relative to
/// the injected voltage, with a grounded guard ring between them.
std::vector<double> attenuation_profile(const tech::DopingProfile& profile,
                                        const std::vector<double>& distances) {
    substrate::ExtractOptions opt;
    opt.mesh.fine_pitch = 8.0;
    opt.mesh.focus = geom::Rect(-20, -20, 320, 40);
    opt.mesh.margin = 60.0;

    std::vector<substrate::PortSpec> ports;
    substrate::PortSpec inj;
    inj.name = "sub";
    inj.region.add(geom::Rect(0, 0, 20, 20));
    inj.contact_resistance = 1.0;
    ports.push_back(inj);

    substrate::PortSpec ring;
    ring.name = "gr";
    ring.region = geom::Region(geom::make_ring(geom::Rect(40, -20, 90, 40), 8.0));
    ring.contact_resistance = 0.5;
    ports.push_back(ring);

    for (size_t k = 0; k < distances.size(); ++k) {
        substrate::PortSpec probe;
        probe.name = "p" + std::to_string(k);
        probe.kind = substrate::PortKind::Probe;
        probe.region.add(geom::Rect(distances[k], 5, distances[k] + 10, 15));
        ports.push_back(probe);
    }

    auto model = substrate::extract_substrate(geom::Rect(-20, -20, 320, 40), profile,
                                              ports, opt);
    circuit::Netlist nl;
    mor::instantiate(model.reduced, nl, model.port_names, "s:");
    nl.add<circuit::VSource>("vsub", nl.existing_node("sub"), circuit::kGround,
                             circuit::Waveform::dc(1.0));
    nl.add<circuit::Resistor>("rgr", nl.existing_node("gr"), circuit::kGround, 0.5);
    auto x = sim::operating_point(nl);

    std::vector<double> out;
    for (size_t k = 0; k < distances.size(); ++k)
        out.push_back(circuit::volt(x, nl.existing_node("p" + std::to_string(k))));
    return out;
}

} // namespace

int main() {
    obs::init_live_from_env();
    printf("=== Ablation: substrate type (high-ohmic vs twin-well vs epi) ===\n\n");

    const std::vector<double> distances{110, 160, 220, 290};
    const Wafer wafers[] = {
        {"high-ohmic 20 ohm cm", tech::DopingProfile::high_ohmic(20.0, 250.0)},
        {"twin-well (generic180)",
         tech::DopingProfile({{1.2, 0.15}, {248.8, 20.0}}, false)},
        {"epi (p- on p+ bulk)", tech::DopingProfile::epi()},
    };

    std::vector<std::string> headers{"distance [um]"};
    for (const auto& w : wafers) headers.push_back(std::string(w.name) + " [dB]");
    Table t(headers);
    CsvWriter csv(headers);

    std::vector<std::vector<double>> all;
    for (const auto& w : wafers) all.push_back(attenuation_profile(w.profile, distances));

    for (size_t k = 0; k < distances.size(); ++k) {
        std::vector<std::string> row{format("%.0f", distances[k])};
        std::vector<std::string> crow{format("%.0f", distances[k])};
        for (const auto& series : all) {
            row.push_back(format("%.1f", units::db20(std::max(series[k], 1e-12))));
            crow.push_back(format("%.2f", units::db20(std::max(series[k], 1e-12))));
        }
        t.add_row(row);
        csv.add_row(crow);
    }
    t.print();
    csv.save("ablation_substrate.csv");

    for (size_t w = 0; w < 3; ++w) {
        const double spread =
            units::db20(all[w].front()) - units::db20(all[w].back());
        printf("%-26s attenuation spread over distance: %.1f dB\n", wafers[w].name,
               spread);
    }
    printf("\non the high-ohmic wafers the attenuation saturates with distance\n"
           "(noise passes under the ring through the deep bulk): guard rings\n"
           "have limited reach and the wiring/layout details dominate -- the\n"
           "situation the paper's methodology exists to analyse.  The grounded\n"
           "epi bulk instead keeps absorbing noise with distance.\n");
    return 0;
}
