#include "probe.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Loop constants come through a volatile so no kernel can be folded away.
volatile double g_scale = 0.9999999;
volatile double g_sink = 0.0;

template <class Kernel>
double timed(Kernel kernel) {
    const auto t0 = Clock::now();
    kernel();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void latency_chain() {
    const double a = g_scale;
    const double b = 1.0 - a;
    double x = 1.0;
    for (long i = 0; i < 40'000'000; ++i) x = x * a + b;
    g_sink = x;
}

void independent_sums() {
    const double a = g_scale;
    std::vector<double> v(1024, 1.0 - a);
    double acc[8] = {};
    for (int r = 0; r < 40'000; ++r)
        for (size_t i = 0; i < v.size(); i += 8)
            for (int k = 0; k < 8; ++k) acc[k] = acc[k] * a + v[i + k];
    g_sink = acc[0] + acc[7];
}

/// 7-point Laplacian on a 30^3 grid in compressed-row form: 27,000 rows,
/// about 2.2 MB.
struct Grid {
    std::vector<int> start, col;
    std::vector<double> val;

    Grid() {
        const int n = 30;
        for (int z = 0; z < n; ++z)
            for (int y = 0; y < n; ++y)
                for (int x = 0; x < n; ++x) {
                    const int k = (z * n + y) * n + x;
                    start.push_back(static_cast<int>(col.size()));
                    add(k, 6.1);
                    if (x > 0) add(k - 1, -1.0);
                    if (x < n - 1) add(k + 1, -1.0);
                    if (y > 0) add(k - n, -1.0);
                    if (y < n - 1) add(k + n, -1.0);
                    if (z > 0) add(k - n * n, -1.0);
                    if (z < n - 1) add(k + n * n, -1.0);
                }
        start.push_back(static_cast<int>(col.size()));
    }
    void add(int j, double w) {
        col.push_back(j);
        val.push_back(w);
    }
    size_t rows() const { return start.size() - 1; }
};

void grid_sweeps(const Grid& g, std::vector<double>& p, std::vector<double>& q) {
    // Power iteration: the vector is renormalised every sweep, so no value
    // drifts towards the (slow) subnormal range.
    std::fill(p.begin(), p.end(), static_cast<double>(g_scale));
    for (int it = 0; it < 300; ++it) {
        double norm2 = 0.0;
        for (size_t i = 0; i < g.rows(); ++i) {
            double s = 0.0;
            for (int j = g.start[i]; j < g.start[i + 1]; ++j) s += g.val[j] * p[g.col[j]];
            q[i] = s;
            norm2 += s * s;
        }
        const double inv = 1.0 / std::sqrt(norm2);
        for (size_t i = 0; i < g.rows(); ++i) p[i] = q[i] * inv;
    }
    g_sink = p[g.rows() / 2];
}

} // namespace

double probe_seconds() {
    // Built and touched before the clock starts.
    const Grid grid;
    std::vector<double> p(grid.rows()), q(grid.rows());
    const double sweeps = timed([&] { grid_sweeps(grid, p, q); });
    return std::cbrt(timed(latency_chain) * timed(independent_sums) * sweeps);
}

} // namespace perfbench
