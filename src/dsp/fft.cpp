#include "dsp/fft.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace snim::dsp {

size_t next_pow2(size_t n) {
    SNIM_ASSERT(n >= 1, "next_pow2 needs n >= 1");
    size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

namespace {

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Phase kFftPhase("dsp/fft");
const obs::Value kFftSize("dsp/fft_size");

/// Cached twiddle table for one butterfly stage: w^k = exp(+-i 2*pi k / len)
/// for k < len/2, built once per (len, direction) and shared by every
/// transform size (a 4096-point FFT reuses the 2..2048 stage tables of
/// smaller sizes).  The table is filled with the same running product the
/// historical per-block loop used, so results stay bit-identical.  std::map
/// nodes never move, so the returned reference outlives the lock.
const std::vector<std::complex<double>>& twiddles(size_t len, bool inverse) {
    static std::mutex mu;
    static std::map<std::pair<size_t, bool>, std::vector<std::complex<double>>> cache;
    std::lock_guard<std::mutex> lock(mu);
    auto [it, fresh] = cache.try_emplace({len, inverse});
    if (fresh) {
        const double ang =
            (inverse ? 1.0 : -1.0) * units::kTwoPi / static_cast<double>(len);
        const std::complex<double> wlen(std::cos(ang), std::sin(ang));
        std::vector<std::complex<double>>& w = it->second;
        w.resize(len / 2);
        std::complex<double> cur(1.0, 0.0);
        for (size_t k = 0; k < w.size(); ++k) {
            w[k] = cur;
            cur *= wlen;
        }
    }
    return it->second;
}

void fft_core(std::vector<std::complex<double>>& a, bool inverse) {
    const size_t n = a.size();
    SNIM_ASSERT(n > 0 && (n & (n - 1)) == 0, "FFT size %zu not a power of two", n);
    obs::ScopedTimer obs_timer(kFftPhase);
    obs::record_value(kFftSize, static_cast<double>(n));

    // Bit-reversal permutation.
    for (size_t i = 1, j = 0; i < n; ++i) {
        size_t bit = n >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j ^= bit;
        if (i < j) std::swap(a[i], a[j]);
    }

    for (size_t len = 2; len <= n; len <<= 1) {
        const auto& w = twiddles(len, inverse);
        for (size_t i = 0; i < n; i += len) {
            for (size_t k = 0; k < len / 2; ++k) {
                const auto u = a[i + k];
                const auto v = a[i + k + len / 2] * w[k];
                a[i + k] = u + v;
                a[i + k + len / 2] = u - v;
            }
        }
    }
    if (inverse) {
        const double inv = 1.0 / static_cast<double>(n);
        for (auto& x : a) x *= inv;
    }
}

} // namespace

void fft(std::vector<std::complex<double>>& data) { fft_core(data, false); }
void ifft(std::vector<std::complex<double>>& data) { fft_core(data, true); }

std::vector<std::complex<double>> fft_real(const std::vector<double>& signal) {
    SNIM_ASSERT(!signal.empty(), "empty signal");
    std::vector<std::complex<double>> a(next_pow2(signal.size()));
    for (size_t i = 0; i < signal.size(); ++i) a[i] = signal[i];
    fft(a);
    return a;
}

} // namespace snim::dsp
