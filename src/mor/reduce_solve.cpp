#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "mor/elimination.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace snim::mor {

namespace {

/// CG stopping rule: relative residual ||r||_2 <= kCgTol ||b||_2.  At 1e-11
/// the port matrix of both figure meshes sits within ~1e-8 of a direct
/// solve (1e-9 moved fig3 by 0.001 dB).
constexpr double kCgTol = 1e-11;
constexpr int kCgMaxIter = 20000;

/// The internal-internal conductance block G_ii: diagonal in `diag`,
/// off-diagonal entries in compressed sparse rows, each row sorted by
/// column with parallel edges merged.
struct Csr {
    std::vector<int> ptr, idx;
    std::vector<double> val;
    std::vector<double> diag;
    /// Reciprocal pivots of the zero-fill incomplete Cholesky factor.
    std::vector<double> inv_pivot;
    size_t n = 0;

    void multiply(const std::vector<double>& x, std::vector<double>& y) const {
        for (size_t i = 0; i < n; ++i) {
            double s = diag[i] * x[i];
            for (int p = ptr[i]; p < ptr[i + 1]; ++p)
                s += val[static_cast<size_t>(p)] *
                     x[static_cast<size_t>(idx[static_cast<size_t>(p)])];
            y[i] = s;
        }
    }

    /// IC(0): M = (D + L) D^-1 (D + L)^T with L the strict lower triangle
    /// of G_ii.  On a graph without triangles (the 7-point mesh) zero-fill
    /// incomplete Cholesky keeps L equal to G_ii's own entries, so only the
    /// pivots d_i = g_ii - sum_{j<i} g_ij^2 / d_j are computed.  A pivot
    /// <= 0 falls back to g_ii: it arises on a floating island (its last
    /// pivot cancels to zero), and any positive D keeps M SPD.
    void factor_ic0() {
        inv_pivot.resize(n);
        for (size_t i = 0; i < n; ++i) {
            double d = diag[i];
            const int mid = lower_end(i);
            for (int p = ptr[i]; p < mid; ++p) {
                const double g = val[static_cast<size_t>(p)];
                d -= g * g * inv_pivot[static_cast<size_t>(idx[static_cast<size_t>(p)])];
            }
            if (!(d > 0.0)) d = diag[i];
            inv_pivot[i] = 1.0 / d;
        }
    }

    /// z = M^-1 r: a forward sweep over the lower entries of each row, then
    /// a backward sweep over the upper entries of the same rows.
    void precondition(const std::vector<double>& r, std::vector<double>& z) const {
        for (size_t i = 0; i < n; ++i) {
            double s = r[i];
            const int mid = lower_end(i);
            for (int p = ptr[i]; p < mid; ++p)
                s -= val[static_cast<size_t>(p)] *
                     z[static_cast<size_t>(idx[static_cast<size_t>(p)])];
            z[i] = s * inv_pivot[i];
        }
        for (size_t i = n; i-- > 0;) {
            double s = 0.0;
            const int mid = lower_end(i);
            for (int p = mid; p < ptr[i + 1]; ++p)
                s += val[static_cast<size_t>(p)] *
                     z[static_cast<size_t>(idx[static_cast<size_t>(p)])];
            z[i] -= s * inv_pivot[i];
        }
    }

    /// One past the last entry of row i with a column below i (rows are
    /// sorted, so the upper entries start here).
    int lower_end(size_t i) const {
        int p = ptr[i];
        while (p < ptr[i + 1] && idx[static_cast<size_t>(p)] < static_cast<int>(i)) ++p;
        return p;
    }
};

/// IC(0)-preconditioned CG for the SPD conductance Laplacian.
bool pcg(const Csr& a, const std::vector<double>& b, std::vector<double>& x) {
    const size_t n = a.n;
    x.assign(n, 0.0);
    std::vector<double> r = b, z(n), p(n), ap(n);
    double bnorm = 0.0;
    for (double v : b) bnorm += v * v;
    bnorm = std::sqrt(bnorm);
    if (bnorm == 0.0) return true;

    a.precondition(r, z);
    p = z;
    double rz = 0.0;
    for (size_t i = 0; i < n; ++i) rz += r[i] * z[i];

    for (int it = 0; it < kCgMaxIter; ++it) {
        a.multiply(p, ap);
        double pap = 0.0;
        for (size_t i = 0; i < n; ++i) pap += p[i] * ap[i];
        if (pap <= 0.0) return false; // lost positive definiteness
        const double alpha = rz / pap;
        double rnorm = 0.0;
        for (size_t i = 0; i < n; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
            rnorm += r[i] * r[i];
        }
        if (std::sqrt(rnorm) <= kCgTol * bnorm) {
            if (obs::enabled()) obs::record_value("mor/cg_iters", it + 1);
            return true;
        }
        a.precondition(r, z);
        double rz_new = 0.0;
        for (size_t i = 0; i < n; ++i) rz_new += r[i] * z[i];
        const double beta = rz_new / rz;
        rz = rz_new;
        for (size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    return false;
}

/// The conductance network partitioned into port/internal blocks:
/// Gii (CSR), Gip (per-port sparse columns), dense Gpp, ground legs.
/// Shared by the Schur reduction and the reduction-error probes so both
/// sides of the comparison see the identical assembly (regularisation
/// included).
struct PartitionedG {
    size_t np = 0, ni = 0;
    std::vector<int> port_of, internal_of; // global node -> block index or -1
    Csr a;                                 // Gii, IC(0)-factored
    std::vector<std::vector<std::pair<int, double>>> gip; // port -> (internal, g)
    std::vector<std::vector<double>> gpp;
    std::vector<double> gnd_int, gnd_port;
};

PartitionedG partition_conductance(const RcNetwork& net,
                                   const std::vector<int>& ports) {
    const size_t n = net.node_count;
    const size_t np = ports.size();
    SNIM_ASSERT(np >= 1, "need at least one port");

    PartitionedG out;
    out.np = np;
    // Index maps: global -> internal index or port index.
    out.port_of.assign(n, -1);
    out.internal_of.assign(n, -1);
    for (size_t j = 0; j < np; ++j) {
        const int p = ports[j];
        SNIM_ASSERT(p >= 0 && static_cast<size_t>(p) < n, "bad port %d", p);
        SNIM_ASSERT(out.port_of[static_cast<size_t>(p)] < 0, "duplicate port %d", p);
        out.port_of[static_cast<size_t>(p)] = static_cast<int>(j);
    }
    size_t ni = 0;
    for (size_t i = 0; i < n; ++i)
        if (out.port_of[i] < 0) out.internal_of[i] = static_cast<int>(ni++);
    out.ni = ni;

    // Assemble Gip (per-port sparse rhs), Gpp, ground terms, the diagonal of
    // Gii and its per-row off-diagonal counts (CSR row pointers).
    Csr& a = out.a;
    a.n = ni;
    a.diag.assign(ni, 0.0);
    a.ptr.assign(ni + 1, 0);
    out.gip.assign(np, {});
    out.gpp.assign(np, std::vector<double>(np, 0.0));
    out.gnd_int.assign(ni, 0.0);
    out.gnd_port.assign(np, 0.0);
    auto& gip = out.gip;
    auto& gpp = out.gpp;
    auto& diag = a.diag;

    for (const auto& e : net.conductances) {
        const int pa = out.port_of[static_cast<size_t>(e.a)];
        const int pb = e.b < 0 ? -2 : out.port_of[static_cast<size_t>(e.b)];
        const int ia = out.internal_of[static_cast<size_t>(e.a)];
        const int ib = e.b < 0 ? -2 : out.internal_of[static_cast<size_t>(e.b)];
        if (e.b < 0) {
            if (pa >= 0)
                out.gnd_port[static_cast<size_t>(pa)] += e.value;
            else
                out.gnd_int[static_cast<size_t>(ia)] += e.value;
            continue;
        }
        if (pa >= 0 && pb >= 0) {
            gpp[static_cast<size_t>(pa)][static_cast<size_t>(pb)] -= e.value;
            gpp[static_cast<size_t>(pb)][static_cast<size_t>(pa)] -= e.value;
            gpp[static_cast<size_t>(pa)][static_cast<size_t>(pa)] += e.value;
            gpp[static_cast<size_t>(pb)][static_cast<size_t>(pb)] += e.value;
        } else if (pa >= 0) {
            gip[static_cast<size_t>(pa)].emplace_back(ib, e.value);
            diag[static_cast<size_t>(ib)] += e.value;
            gpp[static_cast<size_t>(pa)][static_cast<size_t>(pa)] += e.value;
        } else if (pb >= 0) {
            gip[static_cast<size_t>(pb)].emplace_back(ia, e.value);
            diag[static_cast<size_t>(ia)] += e.value;
            gpp[static_cast<size_t>(pb)][static_cast<size_t>(pb)] += e.value;
        } else {
            ++a.ptr[static_cast<size_t>(ia) + 1];
            ++a.ptr[static_cast<size_t>(ib) + 1];
            diag[static_cast<size_t>(ia)] += e.value;
            diag[static_cast<size_t>(ib)] += e.value;
        }
    }
    for (size_t i = 0; i < ni; ++i) {
        diag[i] += out.gnd_int[i];
        // Regularise isolated internal nodes.
        if (diag[i] <= 0.0) diag[i] = 1e-15;
    }

    // Fill the internal-internal entries, then sort each row by column and
    // merge parallel edges, compacting the rows in place.
    for (size_t i = 0; i < ni; ++i) a.ptr[i + 1] += a.ptr[i];
    a.idx.resize(static_cast<size_t>(a.ptr[ni]));
    a.val.resize(static_cast<size_t>(a.ptr[ni]));
    {
        std::vector<int> next(a.ptr.begin(), a.ptr.end() - 1);
        auto put = [&](int row, int col, double g) {
            const size_t p = static_cast<size_t>(next[static_cast<size_t>(row)]++);
            a.idx[p] = col;
            a.val[p] = -g;
        };
        for (const auto& e : net.conductances) {
            if (e.b < 0) continue;
            const int ia = out.internal_of[static_cast<size_t>(e.a)];
            const int ib = out.internal_of[static_cast<size_t>(e.b)];
            if (ia < 0 || ib < 0) continue;
            put(ia, ib, e.value);
            put(ib, ia, e.value);
        }
    }
    std::vector<std::pair<int, double>> row;
    int nnz = 0;
    for (size_t i = 0; i < ni; ++i) {
        row.clear();
        for (int p = a.ptr[i]; p < a.ptr[i + 1]; ++p)
            row.emplace_back(a.idx[static_cast<size_t>(p)], a.val[static_cast<size_t>(p)]);
        std::sort(row.begin(), row.end(),
                  [](const auto& x, const auto& y) { return x.first < y.first; });
        a.ptr[i] = nnz;
        for (const auto& [j, v] : row) {
            if (nnz > a.ptr[i] && a.idx[static_cast<size_t>(nnz) - 1] == j) {
                a.val[static_cast<size_t>(nnz) - 1] += v;
            } else {
                a.idx[static_cast<size_t>(nnz)] = j;
                a.val[static_cast<size_t>(nnz)] = v;
                ++nnz;
            }
        }
    }
    a.ptr[ni] = nnz;
    a.idx.resize(static_cast<size_t>(nnz));
    a.val.resize(static_cast<size_t>(nnz));
    a.factor_ic0();
    return out;
}

} // namespace

RcNetwork reduce_by_solve(const RcNetwork& net, const std::vector<int>& ports) {
    obs::ScopedTimer obs_timer("mor/reduce_by_solve");
    if (fault::fires("mor.cg.fail"))
        raise("substrate reduction: CG failed to converge for port 0 "
              "(fault injected)");
    const size_t np = ports.size();
    PartitionedG part = partition_conductance(net, ports);
    const size_t ni = part.ni;
    const Csr& a = part.a;
    const auto& gip = part.gip;
    const auto& gpp = part.gpp;
    const auto& gnd_port = part.gnd_port;
    const auto& port_of = part.port_of;
    const auto& internal_of = part.internal_of;

    // Influence solves: Gii w_j = Gip(:,j); M[k][j] = w_j[k] in [0,1].
    std::vector<std::vector<double>> w(np);
    for (size_t j = 0; j < np; ++j) {
        std::vector<double> rhs(ni, 0.0);
        for (const auto& [k, g] : gip[j]) rhs[static_cast<size_t>(k)] += g;
        if (ni == 0) {
            w[j] = {};
            continue;
        }
        obs::count("mor/cg_solves");
        if (!pcg(a, rhs, w[j]))
            raise("substrate reduction: CG failed to converge for port %zu", j);
    }

    // Port conductance matrix: Gpp - Gip^T Gii^-1 Gip.
    std::vector<std::vector<double>> gport = gpp;
    for (size_t i = 0; i < np; ++i) {
        for (size_t j = i; j < np; ++j) {
            double s = 0.0;
            for (const auto& [k, g] : gip[i]) s += g * w[j][static_cast<size_t>(k)];
            gport[i][j] -= s;
            if (j != i) gport[j][i] = gport[i][j];
        }
    }

    RcNetwork out;
    out.node_count = np;
    // Ground conductance per port: row sum (includes direct ground legs and
    // the current lost to grounded internal nodes).
    for (size_t i = 0; i < np; ++i) {
        double row = gnd_port[i];
        for (size_t j = 0; j < np; ++j) row += gport[i][j];
        // Account for internal ground legs: current into ground via Gii^-1
        // is already part of the Schur row sum when the network is grounded.
        if (row > 1e-18) out.add_g(static_cast<int>(i), -1, row);
        for (size_t j = i + 1; j < np; ++j) {
            const double g = -gport[i][j];
            if (g > 1e-18) out.add_g(static_cast<int>(i), static_cast<int>(j), g);
        }
    }

    // --- capacitance projection -----------------------------------------
    // Ground caps at internal nodes lump onto ports with influence weights;
    // port-attached caps redistribute their internal plate exactly.
    std::vector<double> cgnd_int(ni, 0.0);
    std::vector<double> cgnd_port(np, 0.0);
    std::unordered_map<long long, double> cpair; // (i<j) port pair caps
    auto pair_key = [](int i, int j) {
        return (static_cast<long long>(std::min(i, j)) << 32) ^
               static_cast<unsigned>(std::max(i, j));
    };
    std::vector<std::vector<std::pair<int, double>>> capadj(ni); // internal->port

    for (const auto& e : net.capacitances) {
        const int pa = port_of[static_cast<size_t>(e.a)];
        const int pb = e.b < 0 ? -2 : port_of[static_cast<size_t>(e.b)];
        const int ia = internal_of[static_cast<size_t>(e.a)];
        const int ib = e.b < 0 ? -2 : internal_of[static_cast<size_t>(e.b)];
        if (e.b < 0) {
            if (pa >= 0)
                cgnd_port[static_cast<size_t>(pa)] += e.value;
            else
                cgnd_int[static_cast<size_t>(ia)] += e.value;
        } else if (pa >= 0 && pb >= 0) {
            cpair[pair_key(pa, pb)] += e.value;
        } else if (pa >= 0) {
            capadj[static_cast<size_t>(ib)].emplace_back(pa, e.value);
        } else if (pb >= 0) {
            capadj[static_cast<size_t>(ia)].emplace_back(pb, e.value);
        } else {
            cgnd_int[static_cast<size_t>(ia)] += 0.5 * e.value;
            cgnd_int[static_cast<size_t>(ib)] += 0.5 * e.value;
        }
    }

    for (size_t k = 0; k < ni; ++k) {
        if (cgnd_int[k] > 0.0) {
            for (size_t j = 0; j < np; ++j) {
                const double m = w[j].empty() ? 0.0 : w[j][k];
                if (m > 1e-12) cgnd_port[j] += cgnd_int[k] * m;
            }
        }
        for (const auto& [port, c] : capadj[k]) {
            double covered = 0.0;
            for (size_t j = 0; j < np; ++j) {
                const double m = w[j].empty() ? 0.0 : w[j][k];
                if (m <= 1e-12) continue;
                covered += m;
                if (static_cast<int>(j) == port) continue; // shorted plate
                cpair[pair_key(port, static_cast<int>(j))] += c * m;
            }
            // Remainder flows to ground (grounded networks only).
            const double rest = c * std::max(0.0, 1.0 - covered);
            if (rest > 1e-21) cgnd_port[static_cast<size_t>(port)] += rest;
        }
    }

    for (size_t i = 0; i < np; ++i)
        if (cgnd_port[i] > 0.0) out.add_c(static_cast<int>(i), -1, cgnd_port[i]);
    for (const auto& [key, c] : cpair) {
        if (c <= 0.0) continue;
        const int i = static_cast<int>(key >> 32);
        const int j = static_cast<int>(key & 0xffffffff);
        out.add_c(i, j, c);
    }
    return out;
}

double probe_reduction_error(const RcNetwork& full, const RcNetwork& reduced,
                             const std::vector<int>& ports, int probes) {
    obs::ScopedTimer obs_timer("mor/probe_reduction_error");
    const size_t np = ports.size();
    SNIM_ASSERT(reduced.node_count == np,
                "reduced network has %zu nodes for %zu ports",
                reduced.node_count, np);
    if (probes <= 0 || np == 0) return 0.0;
    PartitionedG part = partition_conductance(full, ports);

    // Fixed-seed xorshift64 so the probe excitations — hence the reported
    // error — are identical run to run and thread-count independent.
    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next_sign = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return (state >> 32) & 1 ? 1.0 : -1.0;
    };

    double worst = 0.0;
    std::vector<double> u; // internal response, reused across probes
    for (int t = 0; t < probes; ++t) {
        std::vector<double> v(np);
        for (double& vi : v) vi = next_sign();
        // Remove the common mode (np > 1): an equal-potential excitation of
        // a weakly grounded substrate drives almost no current, so both
        // sides of the comparison would be CG-tolerance noise and the ratio
        // meaningless.  The differential response is what the reduction must
        // preserve; for a single port the ground admittance IS the model.
        if (np > 1) {
            double mean = 0.0;
            for (double vi : v) mean += vi;
            mean /= static_cast<double>(np);
            if (mean == 1.0 || mean == -1.0) {
                v[0] = -v[0]; // all-equal pattern: flip one to keep a signal
                mean += 2.0 * v[0] / static_cast<double>(np);
            }
            for (double& vi : v) vi -= mean;
        }

        // Full-side port currents: i = (Gpp + diag(gnd)) v - Gip^T Gii^-1 Gip v.
        std::vector<double> rhs(part.ni, 0.0);
        for (size_t j = 0; j < np; ++j)
            for (const auto& [k, g] : part.gip[j])
                rhs[static_cast<size_t>(k)] += g * v[j];
        if (part.ni > 0) {
            obs::count("mor/probe_cg_solves");
            if (!pcg(part.a, rhs, u))
                raise("substrate reduction probe: CG failed to converge");
        } else {
            u.clear();
        }
        std::vector<double> ifull(np, 0.0);
        for (size_t j = 0; j < np; ++j) {
            double s = part.gnd_port[j] * v[j];
            for (size_t q = 0; q < np; ++q) s += part.gpp[j][q] * v[q];
            for (const auto& [k, g] : part.gip[j])
                s -= g * u[static_cast<size_t>(k)];
            ifull[j] = s;
        }

        // Reduced-side currents straight from the macromodel's elements
        // (every reduced node IS a port by the ports-first convention).
        std::vector<double> ired(np, 0.0);
        for (const auto& e : reduced.conductances) {
            const double va = v[static_cast<size_t>(e.a)];
            const double vb = e.b < 0 ? 0.0 : v[static_cast<size_t>(e.b)];
            ired[static_cast<size_t>(e.a)] += e.value * (va - vb);
            if (e.b >= 0) ired[static_cast<size_t>(e.b)] += e.value * (vb - va);
        }

        double dn = 0.0, fn = 0.0;
        for (size_t j = 0; j < np; ++j) {
            dn += (ired[j] - ifull[j]) * (ired[j] - ifull[j]);
            fn += ifull[j] * ifull[j];
        }
        double rel;
        if (fn > 0.0)
            rel = std::sqrt(dn / fn);
        else
            rel = dn > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
        if (!(rel <= worst)) // NaN ranks worst instead of vanishing
            worst = std::isfinite(rel) ? rel
                                       : std::numeric_limits<double>::infinity();
    }
    return worst;
}

} // namespace snim::mor
