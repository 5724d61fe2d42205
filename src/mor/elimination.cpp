#include "mor/elimination.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace snim::mor {

void RcNetwork::add_g(int a, int b, double g) {
    SNIM_ASSERT(std::isfinite(g) && g >= 0,
                "conductance must be finite and >= 0 (got %g)", g);
    SNIM_ASSERT(a >= 0 && static_cast<size_t>(a) < node_count, "bad node %d", a);
    SNIM_ASSERT(b >= -1 && b < static_cast<int>(node_count), "bad node %d", b);
    SNIM_ASSERT(a != b, "self-loop on node %d", a);
    if (g > 0) conductances.push_back({a, b, g});
}

void RcNetwork::add_c(int a, int b, double c) {
    SNIM_ASSERT(std::isfinite(c) && c >= 0,
                "capacitance must be finite and >= 0 (got %g)", c);
    SNIM_ASSERT(a >= 0 && static_cast<size_t>(a) < node_count, "bad node %d", a);
    SNIM_ASSERT(b >= -1 && b < static_cast<int>(node_count), "bad node %d", b);
    SNIM_ASSERT(a != b, "self-loop on node %d", a);
    if (c > 0) capacitances.push_back({a, b, c});
}

namespace {

/// Working representation: per-node hash map of neighbour -> conductance,
/// plus per-node ground conductance and ground capacitance.
///
/// Capacitances with at least one PORT (or ground) end are tracked exactly:
/// `capadj[k]` maps a port id (or -1 for ground) to the capacitance between
/// internal node k and that port.  When k is eliminated, the internal end is
/// redistributed over k's resistive neighbours with DC influence weights,
/// preserving the series C -> local-substrate -> contacts topology (an
/// n-well port must NOT end up capacitively shorted to ground).  Purely
/// internal caps (the tiny dielectric mesh caps) are half-lumped to ground.
struct Work {
    std::vector<std::unordered_map<int, double>> adj;    // floating conductances
    std::vector<std::unordered_map<int, double>> capadj; // internal-node -> port caps
    std::vector<double> gnd_g;
    std::vector<double> gnd_c;
    std::vector<char> is_port;
    std::vector<char> eliminated;
};

/// Key for accumulating final port-port capacitances ((a,b) with a < b;
/// b == -1 encodes ground as INT_MIN-free sentinel by using a,b ordering
/// with ground mapped after).
struct PairHash {
    size_t operator()(const std::pair<int, int>& p) const {
        return std::hash<long long>()((static_cast<long long>(p.first) << 32) ^
                                      static_cast<unsigned>(p.second));
    }
};

} // namespace

RcNetwork eliminate_internal(const RcNetwork& net, const std::vector<int>& ports,
                             double drop_tol) {
    obs::ScopedTimer obs_timer("mor/eliminate_internal");
    const size_t n = net.node_count;
    SNIM_ASSERT(!ports.empty(), "need at least one port");
    if (obs::enabled() && n >= ports.size())
        obs::count("mor/nodes_eliminated", n - ports.size());

    Work w;
    w.adj.resize(n);
    w.capadj.resize(n);
    w.gnd_g.assign(n, 0.0);
    w.gnd_c.assign(n, 0.0);
    w.is_port.assign(n, 0);
    w.eliminated.assign(n, 0);
    // Final port-pair capacitances; (a,b) with a < b, b never -1 (ground
    // caps live in gnd_c of the port).
    std::unordered_map<std::pair<int, int>, double, PairHash> port_caps;

    for (int p : ports) {
        SNIM_ASSERT(p >= 0 && static_cast<size_t>(p) < n, "bad port %d", p);
        SNIM_ASSERT(!w.is_port[static_cast<size_t>(p)], "duplicate port %d", p);
        w.is_port[static_cast<size_t>(p)] = 1;
    }
    for (const auto& e : net.conductances) {
        if (e.b < 0) {
            w.gnd_g[static_cast<size_t>(e.a)] += e.value;
        } else {
            w.adj[static_cast<size_t>(e.a)][e.b] += e.value;
            w.adj[static_cast<size_t>(e.b)][e.a] += e.value;
        }
    }
    for (const auto& e : net.capacitances) {
        const size_t a = static_cast<size_t>(e.a);
        const bool a_port = w.is_port[a] != 0;
        if (e.b < 0) {
            w.gnd_c[a] += e.value; // exact for ports; lumped for internals
            continue;
        }
        const size_t b = static_cast<size_t>(e.b);
        const bool b_port = w.is_port[b] != 0;
        if (a_port && b_port) {
            port_caps[{std::min(e.a, e.b), std::max(e.a, e.b)}] += e.value;
        } else if (a_port) {
            w.capadj[b][e.a] += e.value;
        } else if (b_port) {
            w.capadj[a][e.b] += e.value;
        } else {
            // Internal-internal dielectric cap: half-lump to each end.
            w.gnd_c[a] += 0.5 * e.value;
            w.gnd_c[b] += 0.5 * e.value;
        }
    }

    // Exact min-degree elimination with ordered bucket sets.  Ties break
    // towards the smallest node index, which on structured meshes yields a
    // sweep-like, low-fill ordering (tie-breaking towards recently touched
    // nodes is catastrophic for fill-in).
    std::vector<std::set<int>> buckets(64);
    std::vector<unsigned char> cur_deg(n, 0);
    auto deg_of = [&](size_t i) {
        return static_cast<unsigned char>(std::min(w.adj[i].size(), buckets.size() - 1));
    };
    auto push = [&](size_t i) {
        const auto deg = deg_of(i);
        if (cur_deg[i] == deg) return;
        buckets[cur_deg[i]].erase(static_cast<int>(i));
        buckets[deg].insert(static_cast<int>(i));
        cur_deg[i] = deg;
    };
    for (size_t i = 0; i < n; ++i) {
        if (w.is_port[i]) continue;
        cur_deg[i] = deg_of(i);
        buckets[cur_deg[i]].insert(static_cast<int>(i));
    }
    size_t scan = 0;

    for (size_t count = 0; count + ports.size() < n; ++count) {
        while (scan < buckets.size() && buckets[scan].empty()) ++scan;
        SNIM_ASSERT(scan < buckets.size(), "bucket queue exhausted");
        const int best = *buckets[scan].begin();
        buckets[scan].erase(buckets[scan].begin());
        const size_t k = static_cast<size_t>(best);
        w.eliminated[k] = 1;

        // Gather neighbours.
        std::vector<std::pair<int, double>> nb(w.adj[k].begin(), w.adj[k].end());
        double total = w.gnd_g[k];
        for (const auto& [j, g] : nb) total += g;
        if (total <= 0.0) {
            // Isolated internal node: drop it (its capacitance is lost with
            // nothing to reference it to -- physically a floating island).
            for (const auto& [j, g] : nb) w.adj[static_cast<size_t>(j)].erase(best);
            w.capadj[k].clear();
            continue;
        }

        // Redistribute port-attached capacitances with DC influence weights:
        // the internal plate of C(port, k) moves onto k's neighbours.
        if (!w.capadj[k].empty()) {
            const double wgnd = w.gnd_g[k] / total;
            for (const auto& [port, c] : w.capadj[k]) {
                if (wgnd > 0) w.gnd_c[static_cast<size_t>(port)] += c * wgnd;
                for (const auto& [j, g] : nb) {
                    const double cj = c * g / total;
                    if (j == port) continue; // plate meets its own port: shorted
                    if (w.is_port[static_cast<size_t>(j)]) {
                        port_caps[{std::min(j, port), std::max(j, port)}] += cj;
                    } else {
                        w.capadj[static_cast<size_t>(j)][port] += cj;
                    }
                }
            }
            w.capadj[k].clear();
        }

        // Redistribute capacitance with DC influence weights.
        const double ck = w.gnd_c[k];
        // Schur update: g_ij += g_ik g_jk / total for all neighbour pairs,
        // g_j0 += g_jk g_k0 / total.
        for (size_t a = 0; a < nb.size(); ++a) {
            const int ja = nb[a].first;
            const double ga = nb[a].second;
            const double wa = ga / total;
            w.gnd_c[static_cast<size_t>(ja)] += ck * wa;
            w.gnd_g[static_cast<size_t>(ja)] += ga * w.gnd_g[k] / total;
            w.adj[static_cast<size_t>(ja)].erase(best);
            for (size_t b = a + 1; b < nb.size(); ++b) {
                const int jb = nb[b].first;
                const double gnew = ga * nb[b].second / total;
                w.adj[static_cast<size_t>(ja)][jb] += gnew;
                w.adj[static_cast<size_t>(jb)][ja] += gnew;
            }
        }
        w.adj[k].clear();

        // Move the touched neighbours to their new degree buckets.
        for (const auto& [j, g] : nb) {
            (void)g;
            const size_t ji = static_cast<size_t>(j);
            if (!w.is_port[ji] && !w.eliminated[ji]) push(ji);
        }
        scan = 0;

        // Optional drop-tolerance pruning around the touched nodes.
        if (drop_tol > 0.0) {
            for (const auto& [j, g] : nb) {
                auto& row = w.adj[static_cast<size_t>(j)];
                double rowsum = w.gnd_g[static_cast<size_t>(j)];
                for (const auto& [jj, gg] : row) rowsum += gg;
                const double cut = drop_tol * rowsum;
                for (auto it = row.begin(); it != row.end();) {
                    if (it->second < cut) {
                        // Keep DC path integrity: fold dropped conductance
                        // into the ground term of both endpoints? Folding to
                        // ground would change port impedances; instead drop
                        // symmetrically and accept the approximation.
                        w.adj[static_cast<size_t>(it->first)].erase(static_cast<int>(j));
                        it = row.erase(it);
                    } else {
                        ++it;
                    }
                }
            }
        }
    }

    // Collect the reduced network over the ports, renumbered.
    std::unordered_map<int, int> port_index;
    for (size_t i = 0; i < ports.size(); ++i) port_index[ports[i]] = static_cast<int>(i);

    RcNetwork out;
    out.node_count = ports.size();
    for (size_t i = 0; i < ports.size(); ++i) {
        const size_t p = static_cast<size_t>(ports[i]);
        if (w.gnd_g[p] > 0) out.add_g(static_cast<int>(i), -1, w.gnd_g[p]);
        if (w.gnd_c[p] > 0) out.add_c(static_cast<int>(i), -1, w.gnd_c[p]);
        // Ports are the only remaining nodes; emit each pair once.
        for (const auto& [j, g] : w.adj[p]) {
            if (j > static_cast<int>(p)) out.add_g(static_cast<int>(i), port_index.at(j), g);
        }
    }
    for (const auto& [pair, c] : port_caps) {
        if (c > 0) out.add_c(port_index.at(pair.first), port_index.at(pair.second), c);
    }
    return out;
}

RcNetwork ports_first(const RcNetwork& net, const std::vector<int>& ports) {
    const size_t n = net.node_count;
    std::vector<int> new_id(n, -1);
    for (size_t j = 0; j < ports.size(); ++j) {
        const int p = ports[j];
        SNIM_ASSERT(p >= 0 && static_cast<size_t>(p) < n, "bad port %d", p);
        SNIM_ASSERT(new_id[static_cast<size_t>(p)] < 0, "duplicate port %d", p);
        new_id[static_cast<size_t>(p)] = static_cast<int>(j);
    }
    int next = static_cast<int>(ports.size());
    for (size_t i = 0; i < n; ++i)
        if (new_id[i] < 0) new_id[i] = next++;

    RcNetwork out;
    out.node_count = n;
    auto remap = [&](int id) {
        return id < 0 ? -1 : new_id[static_cast<size_t>(id)];
    };
    out.conductances.reserve(net.conductances.size());
    for (const auto& e : net.conductances)
        out.conductances.push_back({remap(e.a), remap(e.b), e.value});
    out.capacitances.reserve(net.capacitances.size());
    for (const auto& e : net.capacitances)
        out.capacitances.push_back({remap(e.a), remap(e.b), e.value});
    return out;
}

} // namespace snim::mor
