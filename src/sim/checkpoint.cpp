#include "sim/checkpoint.hpp"

#include <cctype>
#include <cstdio>
#include <cstring>

#include "obs/events.hpp"
#include "obs/provenance.hpp"
#include "obs/registry.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace snim::sim {

namespace {

constexpr char kMagic[8] = {'S', 'N', 'I', 'M', 'C', 'K', 'P', 'T'};

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Counter kFallbacks("sim/ckpt_fallbacks");
const obs::Counter kCorrupt("sim/ckpt_corrupt");

// ---- little-endian payload encoding -------------------------------------
// Doubles travel as their raw 64-bit images so restored state is the exact
// bit pattern that was saved (the whole point of the determinism contract).

void put_u64(std::string& b, uint64_t v) {
    char raw[8];
    for (int i = 0; i < 8; ++i) raw[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    b.append(raw, 8);
}

void put_u32(std::string& b, uint32_t v) {
    char raw[4];
    for (int i = 0; i < 4; ++i) raw[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    b.append(raw, 4);
}

void put_i64(std::string& b, int64_t v) { put_u64(b, static_cast<uint64_t>(v)); }

void put_f64(std::string& b, double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_u64(b, bits);
}

void put_str(std::string& b, const std::string& s) {
    put_u64(b, s.size());
    b.append(s);
}

void put_vec(std::string& b, const std::vector<double>& v) {
    put_u64(b, v.size());
    for (double d : v) put_f64(b, d);
}

/// Bounds-checked payload cursor; every underrun is the same named error so
/// a truncated frame can never walk off the buffer.
struct Cursor {
    std::string_view data;
    size_t pos = 0;

    void need(size_t n) const {
        if (data.size() - pos < n)
            raise("checkpoint truncated: payload ends %zu bytes short", n);
    }
    uint64_t u64() {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(static_cast<unsigned char>(data[pos + i]))
                 << (8 * i);
        pos += 8;
        return v;
    }
    int64_t i64() { return static_cast<int64_t>(u64()); }
    double f64() {
        const uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }
    std::string str() {
        const uint64_t len = u64();
        need(len);
        std::string s(data.substr(pos, len));
        pos += len;
        return s;
    }
    std::vector<double> vec() {
        const uint64_t len = u64();
        need(len * 8);
        std::vector<double> v(len);
        for (uint64_t i = 0; i < len; ++i) v[i] = f64();
        return v;
    }
};

std::optional<std::string> read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) return std::nullopt;
    std::string out;
    char buf[65536];
    size_t r;
    while ((r = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, r);
    std::fclose(f);
    return out;
}

CheckpointOptions& default_checkpoint_store() {
    static CheckpointOptions policy;
    return policy;
}

} // namespace

std::string checkpoint_path(const std::string& dir, const std::string& tag) {
    std::string slug;
    slug.reserve(tag.size());
    for (char c : tag) {
        const unsigned char u = static_cast<unsigned char>(c);
        slug.push_back(std::isalnum(u) || c == '.' || c == '-' || c == '_'
                           ? c
                           : '_');
    }
    if (slug.empty()) slug = "tran";
    return dir + "/" + slug + ".ckpt";
}

std::string encode_checkpoint(const TranCheckpoint& c) {
    std::string p;
    put_u64(p, c.config_digest);
    put_u64(p, c.rng_seed);
    put_i64(p, c.step);
    put_i64(p, c.attempt_no);
    put_i64(p, c.be_steps_done);
    put_i64(p, c.level);
    put_i64(p, c.consecutive_accepts);
    put_i64(p, c.step_retries);
    put_f64(p, c.dt_prev);
    put_vec(p, c.x_acc);
    put_vec(p, c.x_prev);
    put_vec(p, c.device_state);
    put_vec(p, c.average);
    put_u64(p, c.probe_names.size());
    for (const auto& name : c.probe_names) put_str(p, name);
    put_vec(p, c.time);
    put_u64(p, c.waves.size());
    for (const auto& w : c.waves) put_vec(p, w);
    put_u64(p, c.budget.rows.size());
    for (const auto& r : c.budget.rows) {
        put_str(p, r.stage);
        put_str(p, r.unit);
        put_str(p, r.detail);
        put_f64(p, r.worst);
        put_f64(p, r.threshold);
        put_u64(p, r.higher_is_worse ? 1 : 0);
        put_u64(p, r.samples);
        put_u64(p, r.breaches);
    }
    put_u64(p, c.budget.cert_solves);
    put_u64(p, c.budget.cert_breaches);
    put_u64(p, c.budget.cert_refine_steps);
    put_u64(p, c.budget.breach_events);
    put_f64(p, c.budget.worst_omega);
    put_f64(p, c.budget.min_rcond);

    std::string frame;
    frame.reserve(sizeof kMagic + 4 + 8 + p.size() + 8);
    frame.append(kMagic, sizeof kMagic);
    put_u32(frame, kCheckpointVersion);
    put_u64(frame, p.size());
    frame.append(p);
    put_u64(frame, obs::fnv1a64(p));
    return frame;
}

TranCheckpoint decode_checkpoint(std::string_view data) {
    constexpr size_t kHeader = sizeof kMagic + 4 + 8;
    if (data.size() < kHeader + 8)
        raise("checkpoint truncated: %zu bytes is smaller than the frame "
              "header",
              data.size());
    if (std::memcmp(data.data(), kMagic, sizeof kMagic) != 0)
        raise("checkpoint has bad magic (not a SNIMCKPT frame)");
    uint32_t version = 0;
    for (int i = 0; i < 4; ++i)
        version |= static_cast<uint32_t>(
                       static_cast<unsigned char>(data[sizeof kMagic + i]))
                   << (8 * i);
    if (version != kCheckpointVersion)
        raise("unsupported checkpoint version %u (this build reads version %u)",
              version, kCheckpointVersion);
    uint64_t payload_size = 0;
    for (int i = 0; i < 8; ++i)
        payload_size |= static_cast<uint64_t>(static_cast<unsigned char>(
                            data[sizeof kMagic + 4 + i]))
                        << (8 * i);
    if (data.size() < kHeader + payload_size + 8)
        raise("checkpoint truncated: header promises %llu payload bytes, file "
              "has %zu",
              static_cast<unsigned long long>(payload_size),
              data.size() - kHeader - 8);
    const std::string_view payload = data.substr(kHeader, payload_size);
    uint64_t stored_sum = 0;
    for (int i = 0; i < 8; ++i)
        stored_sum |= static_cast<uint64_t>(static_cast<unsigned char>(
                          data[kHeader + payload_size + i]))
                      << (8 * i);
    const uint64_t actual_sum = obs::fnv1a64(payload);
    if (stored_sum != actual_sum)
        raise("checkpoint checksum mismatch (stored %016llx, computed %016llx)",
              static_cast<unsigned long long>(stored_sum),
              static_cast<unsigned long long>(actual_sum));

    Cursor cur{payload};
    TranCheckpoint c;
    c.config_digest = cur.u64();
    c.rng_seed = cur.u64();
    c.step = cur.i64();
    c.attempt_no = cur.i64();
    c.be_steps_done = cur.i64();
    c.level = cur.i64();
    c.consecutive_accepts = cur.i64();
    c.step_retries = cur.i64();
    c.dt_prev = cur.f64();
    c.x_acc = cur.vec();
    c.x_prev = cur.vec();
    c.device_state = cur.vec();
    c.average = cur.vec();
    const uint64_t nprobes = cur.u64();
    c.probe_names.reserve(nprobes);
    for (uint64_t i = 0; i < nprobes; ++i) c.probe_names.push_back(cur.str());
    c.time = cur.vec();
    const uint64_t nwaves = cur.u64();
    c.waves.reserve(nwaves);
    for (uint64_t i = 0; i < nwaves; ++i) c.waves.push_back(cur.vec());
    const uint64_t nrows = cur.u64();
    c.budget.rows.reserve(nrows);
    for (uint64_t i = 0; i < nrows; ++i) {
        obs::BudgetState::Row r;
        r.stage = cur.str();
        r.unit = cur.str();
        r.detail = cur.str();
        r.worst = cur.f64();
        r.threshold = cur.f64();
        r.higher_is_worse = cur.u64() != 0;
        r.samples = cur.u64();
        r.breaches = cur.u64();
        c.budget.rows.push_back(std::move(r));
    }
    c.budget.cert_solves = cur.u64();
    c.budget.cert_breaches = cur.u64();
    c.budget.cert_refine_steps = cur.u64();
    c.budget.breach_events = cur.u64();
    c.budget.worst_omega = cur.f64();
    c.budget.min_rcond = cur.f64();
    return c;
}

size_t write_checkpoint(const std::string& path, const TranCheckpoint& c) {
    if (fault::fires("ckpt.write.fail"))
        raise("fault injected: ckpt.write.fail for '%s'", path.c_str());
    const std::string frame = encode_checkpoint(c);
    // Rotate last-good aside FIRST: a crash mid-write then finds .prev
    // intact, and the atomic publish below never exposes a torn <path>.
    ::rename(path.c_str(), (path + ".prev").c_str());
    util::write_file_atomic(path, frame);
    return frame.size();
}

std::optional<TranCheckpoint> load_checkpoint(const std::string& path,
                                              uint64_t expected_digest) {
    const std::string candidates[2] = {path, path + ".prev"};
    bool any_present = false;
    std::string first_error;
    for (int i = 0; i < 2; ++i) {
        const auto raw = read_file(candidates[i]);
        if (!raw) {
            // A kill between the rotate-aside and the atomic publish leaves
            // only .prev; name that in the fallback warning.
            if (first_error.empty()) first_error = "missing";
            continue;
        }
        any_present = true;
        try {
            if (fault::fires("ckpt.corrupt"))
                raise("fault injected: ckpt.corrupt for '%s'",
                      candidates[i].c_str());
            TranCheckpoint c = decode_checkpoint(*raw);
            if (c.config_digest != expected_digest)
                raise("checkpoint '%s' was written with different options "
                      "(config digest %016llx, current options %016llx) — "
                      "refusing to resume; delete the checkpoint or restore "
                      "the original options",
                      candidates[i].c_str(),
                      static_cast<unsigned long long>(c.config_digest),
                      static_cast<unsigned long long>(expected_digest));
            if (i > 0) {
                obs::count(kFallbacks);
                obs::event(obs::EventLevel::Warn, "ckpt", "ckpt_fallback",
                           {{"path", candidates[i]},
                            {"reason", first_error}});
                log_warn("checkpoint: '%s' unreadable (%s); resuming from "
                         "previous snapshot '%s'",
                         path.c_str(), first_error.c_str(),
                         candidates[i].c_str());
            }
            return c;
        } catch (const Error& e) {
            // Digest refusal propagates — only corruption falls back.
            if (std::strstr(e.what(), "refusing to resume") != nullptr) throw;
            obs::count(kCorrupt);
            if (first_error.empty()) first_error = e.what();
        }
    }
    if (!any_present) return std::nullopt;
    raise("checkpoint '%s' is unreadable and no intact previous snapshot "
          "exists: %s",
          path.c_str(), first_error.c_str());
}

void set_default_checkpoint(CheckpointOptions policy) {
    default_checkpoint_store() = std::move(policy);
}

const CheckpointOptions& default_checkpoint() {
    return default_checkpoint_store();
}

} // namespace snim::sim
