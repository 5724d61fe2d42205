// RC network reduction: Gaussian elimination of internal nodes of a
// conductance network with min-degree ordering (the SubstrateStorm-style
// macromodel step of the paper's flow).
//
// The port conductance matrix is preserved EXACTLY (Schur complement).
// Node-to-ground capacitances are redistributed onto the ports with the
// DC influence weights of the eliminated node (first-order PACT lumping):
// passive by construction and accurate far below the substrate's dielectric
// relaxation frequency (tens of GHz for 20 ohm cm silicon), which covers the
// paper's DC-15 MHz noise band with large margin.
#pragma once

#include <string>
#include <vector>

namespace snim::mor {

/// A linear RC network on local node ids 0..n-1; id -1 denotes ground.
struct RcNetwork {
    struct Elem {
        int a = 0;
        int b = -1;        // -1 = ground
        double value = 0.0; // conductance [S] or capacitance [F]
    };

    size_t node_count = 0;
    std::vector<Elem> conductances;
    std::vector<Elem> capacitances;

    /// Append one element; the value must be finite and >= 0 (snim::Error
    /// otherwise), and a zero value adds nothing.
    void add_g(int a, int b, double g);
    void add_c(int a, int b, double c);
};

/// Eliminates every node not listed in `ports`; the result's nodes are
/// renumbered so that node i corresponds to ports[i].
/// Conductance entries smaller than `drop_tol` times the node's total
/// conductance are dropped after each elimination to bound fill-in.
RcNetwork eliminate_internal(const RcNetwork& net, const std::vector<int>& ports,
                             double drop_tol = 0.0);

/// Renumbers `net` so that node i corresponds to ports[i] and every
/// internal node follows in ascending original order — the identity
/// "reduction": no nodes are eliminated, but the result satisfies the same
/// ports-first convention as eliminate_internal / reduce_by_solve, so
/// macromodel instantiation accepts it unchanged.  The graceful-degradation
/// fallback for a failed reduction (the full mesh is stitched in instead).
RcNetwork ports_first(const RcNetwork& net, const std::vector<int>& ports);

/// Schur-complement reduction computed by conjugate-gradient solves on the
/// internal block G_ii, preconditioned by its relaxed modified incomplete
/// Cholesky factor, RIC(0) (one vector of pivots that move 0.99 of the
/// dropped fill onto the diagonal; the factor's off-diagonal entries are
/// G_ii's own on the triangle-free mesh graph).  CG runs in Eisenstat's
/// split form on G_ii rescaled to unit pivots: the iterates of the
/// preconditioned CG, each iteration one backward and one forward
/// triangular sweep with no matrix-vector product.  The ports'
/// right-hand sides run four at a time in lockstep, each bitwise a solo
/// solve, and each block is folded into the result before the next.
/// Exact up to a 1e-11 relative residual of the original system -- the
/// production path for substrate extraction.  Raises snim::Error naming the port block when G_ii is not
/// finite or not positive definite, or when CG does not converge.  A
/// direct factor of G_ii is slower here: min-degree or nested-dissection
/// SparseLU fills the 13.8k-node NMOS mesh to 2.6-3.0 M L+U nonzeros.
/// Capacitances are projected with the same DC influence weights as
/// eliminate_internal.
RcNetwork reduce_by_solve(const RcNetwork& net, const std::vector<int>& ports);

/// Reduction-error probe for the accuracy budget: drives both networks with
/// `probes` deterministic random +-1 port-voltage excitations and returns
/// the worst relative port-current error
///
///     max over probes of ||i_reduced - i_full||_2 / ||i_full||_2
///
/// where the full-side response comes from one CG solve per probe on the
/// internal block (the same lockstep split-form RIC(0) solver, tolerance and
/// assembly as reduce_by_solve, so the comparison isolates the reduction
/// itself).
/// `reduced` must follow the ports-first convention (node i == ports[i]);
/// conductances only — the capacitance lumping is a modelling choice, not a
/// solve, and is validated by the tier-1 MOR tests instead.  Deterministic:
/// fixed probe seed.
double probe_reduction_error(const RcNetwork& full, const RcNetwork& reduced,
                             const std::vector<int>& ports, int probes = 3);

} // namespace snim::mor
