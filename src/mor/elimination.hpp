// RC network reduction onto ports (the SubstrateStorm-style macromodel step
// of the paper's flow): reduce_by_solve eliminates every non-port node by a
// Schur complement, exact to its CG tolerance.  Capacitances are lumped onto
// the ports with the DC influence weights W = G_ii^-1 (-G_ip) of the
// eliminated nodes (first-order PACT lumping): passive by construction and
// accurate far below the substrate's dielectric relaxation frequency (tens
// of GHz for 20 ohm cm silicon), which covers the paper's DC-15 MHz noise
// band with large margin.
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

/// Renumbers `net` so that node i corresponds to ports[i] and every
/// internal node follows in ascending original order — the identity
/// "reduction": no nodes are eliminated, but the result satisfies the same
/// ports-first convention as reduce_by_solve's, so macromodel instantiation
/// accepts it unchanged.  The graceful-degradation fallback for a failed
/// reduction (the full mesh is stitched in instead).
RcNetwork ports_first(const RcNetwork& net, const std::vector<int>& ports);

/// Reduces `net` onto `ports` (the result's node i is ports[i]): the Schur
/// complement computed by conjugate-gradient solves on the internal block
/// G_ii, preconditioned by its relaxed modified incomplete Cholesky factor,
/// RIC(0) (one vector of pivots that move 0.99 of the dropped fill onto the
/// diagonal; the factor's off-diagonal entries are G_ii's own on the
/// triangle-free mesh graph).  CG runs in Eisenstat's split form on G_ii
/// rescaled to unit pivots: the iterates of the preconditioned CG, each
/// iteration one backward and one forward triangular sweep with no
/// matrix-vector product.  The ports' right-hand sides run four at a time
/// in lockstep, each bitwise a solo solve, and each block is folded into
/// the result before the next.  Exact up to a 1e-11 relative residual of
/// the original system.  Raises snim::Error naming the port block when G_ii
/// is not finite or not positive definite, or when CG does not converge.  A
/// direct factor of G_ii is slower here: min-degree or nested-dissection
/// SparseLU fills the 13.8k-node NMOS mesh to 2.6-3.0 M L+U nonzeros.
/// Capacitance lumping: an internal node k's ground cap goes to port j's
/// ground with weight W(k,j) (weights <= 1e-12 dropped); a cap from port p
/// to k goes to the pair (p,j) with W(k,j), its share on p is shorted and
/// 1 - sum_j W(k,j) goes to p's ground; an internal-internal cap is
/// half-lumped to ground at each end first.
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
