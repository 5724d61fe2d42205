#include "dense_schur.hpp"

#include "numeric/dense.hpp"

namespace snim::mor {

std::vector<std::vector<double>> dense_port_conductance(const RcNetwork& net,
                                                        const std::vector<int>& ports) {
    const size_t n = net.node_count;
    DenseMatrix<double> g(n, n);
    for (const auto& e : net.conductances) {
        const size_t a = static_cast<size_t>(e.a);
        g(a, a) += e.value;
        if (e.b >= 0) {
            const size_t b = static_cast<size_t>(e.b);
            g(b, b) += e.value;
            g(a, b) -= e.value;
            g(b, a) -= e.value;
        }
    }

    // Partition into ports (P) and internal (I): Gpp - Gpi * Gii^-1 * Gip.
    std::vector<char> is_port(n, 0);
    for (int p : ports) is_port[static_cast<size_t>(p)] = 1;
    std::vector<size_t> internal;
    for (size_t i = 0; i < n; ++i)
        if (!is_port[i]) internal.push_back(i);

    const size_t np = ports.size(), ni = internal.size();
    std::vector<std::vector<double>> out(np, std::vector<double>(np, 0.0));
    if (ni == 0) {
        for (size_t i = 0; i < np; ++i)
            for (size_t j = 0; j < np; ++j)
                out[i][j] = g(static_cast<size_t>(ports[i]), static_cast<size_t>(ports[j]));
        return out;
    }

    DenseMatrix<double> gii(ni, ni), gip(ni, np);
    for (size_t i = 0; i < ni; ++i) {
        for (size_t j = 0; j < ni; ++j) gii(i, j) = g(internal[i], internal[j]);
        for (size_t j = 0; j < np; ++j)
            gip(i, j) = g(internal[i], static_cast<size_t>(ports[j]));
    }
    // Regularise isolated internal nodes so the solve stays well-posed.
    for (size_t i = 0; i < ni; ++i)
        if (gii(i, i) == 0.0) gii(i, i) = 1e-18;
    DenseLU<double> lu(gii);
    DenseMatrix<double> x = lu.solve(gip); // Gii^-1 Gip
    for (size_t i = 0; i < np; ++i) {
        for (size_t j = 0; j < np; ++j) {
            double v = g(static_cast<size_t>(ports[i]), static_cast<size_t>(ports[j]));
            for (size_t k = 0; k < ni; ++k)
                v -= g(static_cast<size_t>(ports[i]), internal[k]) * x(k, j);
            out[i][j] = v;
        }
    }
    return out;
}

} // namespace snim::mor
