// The paper's Section-3 walk-through: the one-transistor measurement
// structure.  Builds the layout, runs the Figure-2 flow and probes how a
// substrate tone reaches the NMOS output -- including the waveform at every
// node of the coupling chain, which is the methodology's selling point.
#include <cstdio>

#include "circuit/mosfet.hpp"
#include "circuit/sources.hpp"
#include "core/report.hpp"
#include "layout/io.hpp"
#include "numeric/vecops.hpp"
#include "obs/events.hpp"
#include "sim/op.hpp"
#include "sim/transfer.hpp"
#include "testcases/nmos_structure.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace snim;
using testcases::NmosStructure;

int main() {
    obs::init_live_from_env();
    auto structure = testcases::build_nmos_structure();

    // The layout is an ordinary artifact: dump it for inspection.
    layout::save_layout(structure.layout, "nmos_structure.layout");
    printf("wrote nmos_structure.layout (%zu shapes)\n",
           structure.layout.flatten_shapes().size());

    auto model = testcases::build_model(std::move(structure),
                                        testcases::nmos_flow_options());
    printf("%s\n", core::report_model(model).to_string().c_str());

    auto& nl = model.netlist;
    auto xop = sim::operating_point(nl);
    auto* m1 = nl.find_as<circuit::Mosfet>(NmosStructure::kMosfet);
    const auto ss = m1->small_signal(xop);
    printf("NMOS bias: gmb = %.1f mS, gds = %.1f mS (paper ranges: 10-38 / "
           "2.8-22 mS)\n\n", ss.gmb * 1e3, ss.gds * 1e3);

    // The coupling chain, node by node, at 5 MHz.
    const std::vector<std::string> chain{
        "subdrive",                 // source behind its 50-ohm
        "sub_pad",                  // on-chip injection pad
        "subinj!sub",               // injection substrate contact
        NmosStructure::kBulk,       // device back-gate (substrate surface)
        "vgnd!sub1",                // MOS ground ring metal
        NmosStructure::kSourceNode, // transistor source (solid strap)
        NmosStructure::kOut,        // drain output
    };
    auto tr = sim::transfer_multi(nl, NmosStructure::kNoiseSource, chain, {5e6}, xop);
    Table t({"node", "|H| [dB]", "phase [deg]"});
    for (size_t i = 0; i < chain.size(); ++i) {
        t.add_row({chain[i], format("%.1f", units::db20(std::abs(tr[i].h[0]))),
                   format("%.0f", std::arg(tr[i].h[0]) * 180 / units::kPi)});
    }
    printf("transfer of the substrate tone along the coupling chain (5 MHz):\n");
    t.print();

    const double vbs = std::abs(tr[3].h[0] - tr[5].h[0]);
    printf("\nback-gate drive vbs/vsub = 1/%.0f; transfer to output = "
           "vbs * gmb/gds = %.1f dB\n",
           1.0 / vbs, units::db20(vbs * ss.gmb / ss.gds));
    return 0;
}
