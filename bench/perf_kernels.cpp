// google-benchmark microbenchmarks for the numerical kernels behind the
// flow: sparse LU, CG-based substrate reduction, transient stepping and
// FFT.
#include <benchmark/benchmark.h>

#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "dsp/fft.hpp"
#include "numeric/sparse_lu.hpp"
#include "sim/assembly.hpp"
#include "sim/mna.hpp"
#include "sim/transient.hpp"
#include "substrate/extractor.hpp"
#include "tech/generic180.hpp"
#include "util/rng.hpp"

using namespace snim;

namespace {

Triplets<double> random_system(size_t n, int extra_per_row, uint64_t seed) {
    Rng rng(seed);
    Triplets<double> t(n);
    for (size_t i = 0; i < n; ++i) t.add(i, i, 5.0 + rng.uniform(0, 1));
    for (size_t i = 0; i < n; ++i)
        for (int k = 0; k < extra_per_row; ++k)
            t.add(i, static_cast<size_t>(rng.uniform_int(0, static_cast<int>(n) - 1)),
                  rng.uniform(-1, 1));
    return t;
}

void BM_SparseLU(benchmark::State& state) {
    const size_t n = static_cast<size_t>(state.range(0));
    auto t = random_system(n, 4, 42);
    SparseCSC<double> a(t);
    std::vector<double> b(n, 1.0);
    for (auto _ : state) {
        SparseLU<double> lu(a);
        benchmark::DoNotOptimize(lu.solve(b));
    }
    state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_SparseLU)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

void BM_SubstrateReduction(benchmark::State& state) {
    const double pitch = static_cast<double>(state.range(0));
    substrate::ExtractOptions opt;
    opt.mesh.fine_pitch = pitch;
    opt.mesh.focus = geom::Rect(0, 0, 200, 200);
    opt.mesh.margin = 50.0;
    std::vector<substrate::PortSpec> ports(2);
    ports[0].name = "a";
    ports[0].region.add(geom::Rect(10, 10, 30, 30));
    ports[1].name = "b";
    ports[1].region.add(geom::Rect(150, 150, 170, 170));
    size_t mesh_nodes = 0;
    for (auto _ : state) {
        auto model = substrate::extract_substrate(
            geom::Rect(0, 0, 200, 200), tech::DopingProfile::high_ohmic(), ports, opt);
        mesh_nodes = model.mesh_node_count;
        benchmark::DoNotOptimize(model);
    }
    state.counters["mesh_nodes"] = static_cast<double>(mesh_nodes);
}
BENCHMARK(BM_SubstrateReduction)->Arg(20)->Arg(10)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_TransientStep(benchmark::State& state) {
    // RLC ladder sized by the argument; measures cost per transient step.
    const int stages = static_cast<int>(state.range(0));
    circuit::Netlist nl;
    nl.add<circuit::VSource>("vin", nl.node("n0"), circuit::kGround,
                             circuit::Waveform::sin(0.0, 1.0, 1e9));
    for (int i = 0; i < stages; ++i) {
        nl.add<circuit::Resistor>(format("r%d", i), nl.node(format("n%d", i)),
                                  nl.node(format("n%d", i + 1)), 10.0);
        nl.add<circuit::Capacitor>(format("c%d", i), nl.node(format("n%d", i + 1)),
                                   circuit::kGround, 1e-12);
    }
    sim::TranOptions opt;
    opt.dt = 10e-12;
    opt.tstop = 10e-9; // 1000 steps
    for (auto _ : state) {
        auto res = sim::transient(nl, {format("n%d", stages)}, opt);
        benchmark::DoNotOptimize(res);
    }
    state.counters["steps"] = 1000;
}
BENCHMARK(BM_TransientStep)->Arg(10)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_Assemble(benchmark::State& state) {
    // Transient system assembly on an RC ladder + MOSFET netlist: arg 0
    // measures the full re-stamp (clear + assemble_tran), arg 1 the
    // incremental TranAssembler path (baseline restore + nonlinear overlay).
    const bool incremental = state.range(0) != 0;
    const int stages = 40;
    circuit::Netlist nl;
    const tech::Technology t = tech::generic180();
    const tech::MosModelCard nch = t.mos_model("nch");
    nl.add<circuit::VSource>("vin", nl.node("n0"), circuit::kGround,
                             circuit::Waveform::sin(0.0, 1.0, 1e9));
    nl.add<circuit::VSource>("vdd", nl.node("vdd"), circuit::kGround,
                             circuit::Waveform::dc(1.8));
    for (int i = 0; i < stages; ++i) {
        nl.add<circuit::Resistor>(format("r%d", i), nl.node(format("n%d", i)),
                                  nl.node(format("n%d", i + 1)), 10.0);
        nl.add<circuit::Capacitor>(format("c%d", i), nl.node(format("n%d", i + 1)),
                                   circuit::kGround, 1e-13);
    }
    for (int m = 0; m < 6; ++m) {
        nl.add<circuit::Resistor>(format("rd%d", m), nl.node("vdd"),
                                  nl.node(format("d%d", m)), 1e3);
        nl.add<circuit::Mosfet>(format("m%d", m), nl.node(format("d%d", m)),
                                nl.node(format("n%d", 5 + 6 * m)), circuit::kGround,
                                circuit::kGround, nch, circuit::MosGeometry{});
    }
    nl.finalize();
    const size_t n = nl.unknown_count();
    const double gmin = 1e-12;
    circuit::RealStamper s(n);
    s.enable_compiled_assembly();
    sim::TranAssembler asmb(nl, s, gmin);
    circuit::TranParams tp;
    tp.dt = 10e-12;
    tp.time = tp.dt;
    tp.order = 2;
    std::vector<double> x(n, 0.1);
    if (incremental) {
        asmb.assemble(x, tp); // learning pass
        asmb.begin_attempt(x, tp);
    }
    for (auto _ : state) {
        if (incremental) {
            asmb.assemble(x, tp);
        } else {
            s.clear();
            sim::assemble_tran(nl, s, x, tp, gmin);
        }
        benchmark::DoNotOptimize(s.csc().values().data());
    }
    state.counters["unknowns"] = static_cast<double>(n);
}
BENCHMARK(BM_Assemble)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_Fft(benchmark::State& state) {
    const size_t n = static_cast<size_t>(state.range(0));
    Rng rng(7);
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(-1, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(dsp::fft_real(x));
    }
    state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(16384)->Arg(262144)->Complexity();

} // namespace

BENCHMARK_MAIN();
