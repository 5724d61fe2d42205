// Section 6 runtime note: the paper reports ~35 minutes on a 2005 HP-UX
// server (20 min extraction + 15 min simulation) for the Figure-10 results.
// This bench reproduces the same breakdown on the reproduction — the whole
// flow runs as a snim_bench scenario, and every number in the table is read
// back from the scenario's registry snapshot, not from ad-hoc stopwatches,
// so the same data is available from any instrumented run (SNIM_OBS=json or
// `snim_bench --out` give the machine-readable form).
#include <cstdio>
#include <cstring>
#include <optional>

#include "circuit/sources.hpp"
#include "core/impact_model.hpp"
#include "obs/bench.hpp"
#include "obs/events.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "testcases/vco.hpp"
#include "util/table.hpp"

using namespace snim;

namespace {

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Phase kTestcaseBuildPhase("bench/testcase_build");
const obs::Phase kExtractPhase("bench/extract");
const obs::Phase kCalibratePhase("bench/calibrate");
const obs::Phase kPredictPhase("bench/predict");
const obs::Phase kReferenceTransientPhase("bench/reference_transient");

} // namespace

int main(int argc, char** argv) {
    obs::init_live_from_env();
    obs::BenchOptions bopt;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0) bopt.quick = true;

    printf("=== Section 6 runtime: extraction + impact simulation ===\n\n");

    std::optional<core::ImpactModel> model;
    obs::Scenario s;
    s.name = "runtime_table";
    s.description = "Section 6 runtime breakdown (extraction + impact simulation)";
    s.kind = "flow";
    s.repeat = 1;
    s.warmup = 0;
    s.run = [&](obs::ScenarioContext& ctx) {
        model.reset();
        {
            obs::ScopedTimer t(kTestcaseBuildPhase);
            auto vco = testcases::build_vco();
            t.stop();
            obs::ScopedTimer e(kExtractPhase);
            model.emplace(
                testcases::build_model(std::move(vco), testcases::vco_flow_options()));
        }
        core::AnalyzerOptions aopt;
        aopt.osc = testcases::vco_osc_options();
        core::ImpactAnalyzer analyzer(*model, testcases::VcoTestcase::kNoiseSource,
                                      testcases::vco_noise_entries(), aopt);
        {
            obs::ScopedTimer t(kCalibratePhase);
            analyzer.calibrate();
        }
        {
            obs::ScopedTimer t(kPredictPhase);
            for (double fn : {1e6, 3e6, 10e6, 15e6}) analyzer.predict(fn);
        }
        if (!ctx.quick) {
            obs::ScopedTimer t(kReferenceTransientPhase);
            analyzer.simulate(10e6);
        }
    };
    const auto result = obs::run_scenario(s, bopt);

    // The paper-style breakdown, every duration read from the registry
    // snapshot run_scenario leaves intact.
    auto seconds = [](const char* phase) { return obs::phase_seconds(phase); };
    const double total = seconds("bench/testcase_build") + seconds("bench/extract") +
                         seconds("bench/calibrate") + seconds("bench/predict") +
                         seconds("bench/reference_transient");
    Table t({"stage", "this repo [s]", "paper (2005 HP-UX L2000/4)"});
    t.add_row({"testcase generation", format("%.2f", seconds("bench/testcase_build")),
               "-"});
    t.add_row({"extraction (substrate+interconnect)",
               format("%.2f", seconds("bench/extract")), "~20 min"});
    t.add_row({"oscillator calibration (3 runs)",
               format("%.2f", seconds("bench/calibrate")), "-"});
    t.add_row({"methodology prediction (4 freqs)",
               format("%.3f", seconds("bench/predict")), "part of 15 min"});
    t.add_row({"reference transient (1 freq)",
               bopt.quick ? "skipped (--quick)"
                          : format("%.2f", seconds("bench/reference_transient")),
               "part of 15 min"});
    t.add_row({"total", format("%.1f", total), "~35 min"});
    t.print();

    printf("\nscenario wall time: %.2f s (median over %d repetition%s)\n",
           result.runtime.median_s, result.repetitions,
           result.repetitions == 1 ? "" : "s");
    printf("model size: %zu mesh nodes -> %zu substrate ports, %zu devices, "
           "%zu circuit nodes\n",
           model->mesh_nodes, model->substrate.port_names.size(),
           model->netlist.device_count(), model->netlist.node_count());

    // Where the time actually goes, from the same registry: the solver-level
    // phase breakdown the paper could not show.
    printf("\n");
    fputs(obs::report_text().c_str(), stdout);
    return 0;
}
