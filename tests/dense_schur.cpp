#include "dense_schur.hpp"

#include "numeric/dense.hpp"

namespace snim::mor {
namespace {

/// The grounded nodal matrix of `net`'s conductances, split into ports and
/// internal nodes, with the DC influence weights W = Gii^-1 (-Gip): W(k,j)
/// is internal node k's voltage with port j at 1 V and every other port at
/// 0 V.
struct DenseSplit {
    DenseMatrix<double> g;
    std::vector<int> port_of;     // node -> port index, -1 for internal nodes
    std::vector<int> internal_of; // node -> internal index, -1 for ports
    std::vector<size_t> internal; // internal index -> node
    DenseMatrix<double> w;        // internal x ports; empty without internal nodes
};

DenseSplit split_network(const RcNetwork& net, const std::vector<int>& ports) {
    const size_t n = net.node_count;
    DenseSplit s;
    s.g = DenseMatrix<double>(n, n);
    for (const auto& e : net.conductances) {
        const size_t a = static_cast<size_t>(e.a);
        s.g(a, a) += e.value;
        if (e.b >= 0) {
            const size_t b = static_cast<size_t>(e.b);
            s.g(b, b) += e.value;
            s.g(a, b) -= e.value;
            s.g(b, a) -= e.value;
        }
    }

    s.port_of.assign(n, -1);
    s.internal_of.assign(n, -1);
    for (size_t j = 0; j < ports.size(); ++j)
        s.port_of[static_cast<size_t>(ports[j])] = static_cast<int>(j);
    for (size_t i = 0; i < n; ++i) {
        if (s.port_of[i] >= 0) continue;
        s.internal_of[i] = static_cast<int>(s.internal.size());
        s.internal.push_back(i);
    }

    const size_t np = ports.size(), ni = s.internal.size();
    if (ni == 0) return s;
    DenseMatrix<double> gii(ni, ni), gip(ni, np);
    for (size_t i = 0; i < ni; ++i) {
        for (size_t j = 0; j < ni; ++j) gii(i, j) = s.g(s.internal[i], s.internal[j]);
        for (size_t j = 0; j < np; ++j)
            gip(i, j) = -s.g(s.internal[i], static_cast<size_t>(ports[j]));
    }
    // Regularise isolated internal nodes so the solve stays well-posed.
    for (size_t i = 0; i < ni; ++i)
        if (gii(i, i) == 0.0) gii(i, i) = 1e-18;
    s.w = DenseLU<double>(gii).solve(gip);
    return s;
}

} // namespace

std::vector<std::vector<double>> dense_port_conductance(const RcNetwork& net,
                                                        const std::vector<int>& ports) {
    // Gpp - Gpi * Gii^-1 * Gip = Gpp + Gpi * W.
    const DenseSplit s = split_network(net, ports);
    const size_t np = ports.size();
    std::vector<std::vector<double>> out(np, std::vector<double>(np, 0.0));
    for (size_t i = 0; i < np; ++i) {
        const size_t pi = static_cast<size_t>(ports[i]);
        for (size_t j = 0; j < np; ++j) {
            double v = s.g(pi, static_cast<size_t>(ports[j]));
            for (size_t k = 0; k < s.internal.size(); ++k)
                v += s.g(pi, s.internal[k]) * s.w(k, j);
            out[i][j] = v;
        }
    }
    return out;
}

std::vector<std::vector<double>> dense_port_capacitance(const RcNetwork& net,
                                                        const std::vector<int>& ports) {
    const DenseSplit s = split_network(net, ports);
    const size_t np = ports.size();
    std::vector<std::vector<double>> c(np, std::vector<double>(np, 0.0));
    auto add_pair = [&c](size_t i, size_t j, double v) {
        c[i][j] += v;
        c[j][i] += v;
    };

    std::vector<double> cgnd_int(s.internal.size(), 0.0);
    for (const auto& e : net.capacitances) {
        const size_t a = static_cast<size_t>(e.a);
        const int pa = s.port_of[a];
        const int pb = e.b < 0 ? -1 : s.port_of[static_cast<size_t>(e.b)];
        if (e.b < 0) {
            if (pa >= 0)
                c[static_cast<size_t>(pa)][static_cast<size_t>(pa)] += e.value;
            else
                cgnd_int[static_cast<size_t>(s.internal_of[a])] += e.value;
        } else if (pa >= 0 && pb >= 0) {
            add_pair(static_cast<size_t>(pa), static_cast<size_t>(pb), e.value);
        } else if (pa < 0 && pb < 0) {
            cgnd_int[static_cast<size_t>(s.internal_of[a])] += 0.5 * e.value;
            cgnd_int[static_cast<size_t>(s.internal_of[static_cast<size_t>(e.b)])] +=
                0.5 * e.value;
        } else {
            // A port plate p and an internal plate k: k's plate reaches port
            // j with weight W(k,j), shorted when j == p, and ground with the
            // rest, which lands on p's ground cap.
            const bool a_is_port = pa >= 0;
            const size_t p = static_cast<size_t>(a_is_port ? pa : pb);
            const size_t plate = a_is_port ? static_cast<size_t>(e.b) : a;
            const size_t k = static_cast<size_t>(s.internal_of[plate]);
            double rest = 1.0;
            for (size_t j = 0; j < np; ++j) {
                rest -= s.w(k, j);
                if (j != p) add_pair(p, j, e.value * s.w(k, j));
            }
            c[p][p] += e.value * rest;
        }
    }
    for (size_t k = 0; k < cgnd_int.size(); ++k)
        for (size_t j = 0; j < np; ++j) c[j][j] += cgnd_int[k] * s.w(k, j);
    return c;
}

} // namespace snim::mor
