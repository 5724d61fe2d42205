#include "reference_transient.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/sparse_lu.hpp"
#include "sim/mna.hpp"
#include "sim/op.hpp"
#include "util/error.hpp"

namespace snim::sim {

TranResult reference_transient(circuit::Netlist& netlist,
                               const std::vector<std::string>& probes,
                               const TranOptions& opt) {
    netlist.finalize();
    const size_t n = netlist.unknown_count();
    OpOptions oo;
    oo.gmin = opt.gmin;
    std::vector<double> x = operating_point(netlist, oo);
    for (const auto& d : netlist.devices()) d->init_tran(x);

    TranResult out;
    out.probe_names = probes;
    out.waves.resize(probes.size());
    out.dt_sample = opt.dt;
    std::vector<circuit::NodeId> ids;
    for (const auto& p : probes) ids.push_back(netlist.existing_node(p));

    circuit::RealStamper s(n);
    const long nsteps = static_cast<long>(std::ceil(opt.tstop / opt.dt));
    for (long step = 1; step <= nsteps; ++step) {
        circuit::TranParams tp;
        tp.dt = opt.dt;
        tp.time = static_cast<double>(step) * opt.dt;
        tp.order = step <= opt.be_startup_steps ? 1 : opt.order;
        std::vector<double> xit = x;
        bool converged = false;
        for (int it = 0; it < opt.max_newton && !converged; ++it) {
            s.clear();
            assemble_tran(netlist, s, xit, tp, opt.gmin);
            const std::vector<double> xn = SparseLU<double>(s.csc()).solve(s.rhs());
            double max_dx = 0.0, norm = 0.0;
            for (size_t i = 0; i < n; ++i) {
                double dx = xn[i] - xit[i];
                if (!std::isfinite(dx))
                    raise("reference transient: non-finite update at step %ld", step);
                if (i < netlist.node_count()) dx = std::clamp(dx, -opt.dv_max, opt.dv_max);
                max_dx = std::max(max_dx, std::fabs(dx));
                xit[i] += dx;
                norm = std::max(norm, std::fabs(xit[i]));
            }
            converged = max_dx < opt.vntol + opt.reltol * norm;
        }
        if (!converged) raise("reference transient: step %ld did not converge", step);
        for (const auto& d : netlist.devices()) d->commit_tran(xit, tp);
        x = xit;
        if (tp.time >= opt.record_start) {
            out.time.push_back(tp.time);
            for (size_t p = 0; p < ids.size(); ++p)
                out.waves[p].push_back(circuit::volt(x, ids[p]));
        }
    }
    return out;
}

} // namespace snim::sim
