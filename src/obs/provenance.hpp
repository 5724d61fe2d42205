// Run provenance: who produced a result file, from which configuration, on
// which machine and build.
//
// Every top-level run entry point (the bench harness's run_scenario, the
// core impact flow's build_impact_model, standalone tools) materialises a
// RunManifest — a stable FNV-1a digest of the resolved option structs, the
// RNG seed, worker-thread count, build flavour (obs/faults/sanitizer flags,
// compiler, build type), host identity and a monotonic run id — and embeds
// it in everything the process writes: BENCH_*.json reports, failure
// diagnosis bundles, Chrome traces and VCD headers.  Two artifacts with the
// same config_digest were produced by the same configuration; artifacts
// with different digests are not comparable like-for-like and snim_report
// flags them.
//
// Digest contract:
//   * field order independent — ConfigDigest sorts (field, value) entries
//     before hashing, so refactoring the order fields are added in does not
//     invalidate stored baselines;
//   * any value change changes the digest (64-bit FNV-1a over the sorted
//     "field=value" list);
//   * environment (hostname, threads, build flavour) is NOT part of the
//     digest — it lives in the manifest next to it.  The digest answers
//     "same configuration?", the manifest answers "same everything?".
//
// Provenance does not depend on the registry being on: a manifest
// identifies every run, including one whose registry recorded nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace snim::obs {

/// 64-bit FNV-1a over `data`, continuing from `seed` (chainable).
uint64_t fnv1a64(std::string_view data,
                 uint64_t seed = 0xcbf29ce484222325ULL);

/// Order-independent digest of named configuration fields.  Feed every
/// field of an options struct (nested structs use "prefix.field" names),
/// then read value64()/hex().  Doubles are hashed via their shortest
/// faithful decimal form ("%.17g"), so -0.0 vs 0.0 and NaN payloads are
/// normalised consistently across platforms.
class ConfigDigest {
public:
    void add(std::string_view field, std::string_view value);
    void add(std::string_view field, const char* value);
    void add(std::string_view field, double value);
    void add(std::string_view field, bool value);
    void add(std::string_view field, int value);
    void add(std::string_view field, long value);
    void add(std::string_view field, uint64_t value);
    /// Hashes a whole vector under one field name (size + every element).
    void add(std::string_view field, const std::vector<double>& values);

    /// The digest over the name-sorted field list.
    uint64_t value64() const;
    /// value64() as 16 lowercase hex digits — the form stored in manifests.
    std::string hex() const;

private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/// Identity card of one run, embedded in every artifact the run writes.
struct RunManifest {
    std::string run_id;        // monotonic: "<utc-epoch-hex>-<pid>-<seq>"
    std::string tool;          // "snim_bench", "impact_flow", ...
    std::string config_digest; // ConfigDigest::hex() of the resolved options
    uint64_t seed = 0;         // default-Rng seed in effect
    int threads = 1;           // resolved worker-thread count
    std::string build_type;    // CMAKE_BUILD_TYPE baked in at compile time
    std::string compiler;      // __VERSION__
    // Instrumentation and fault hooks compiled in.  Every build has both;
    // manifests written by older builds that compiled them out read false.
    bool obs_enabled = false;
    bool faults_enabled = false;
    std::string sanitizers;    // "address", "thread", ... ("" = none detected)
    std::string hostname;
    std::string os;            // "<sysname> <release>"
    std::string created_utc;   // ISO 8601, second resolution
};

/// Builds a manifest for this process: run id (monotonic within the
/// process, unique across processes via pid + start stamp), build flavour
/// probed from compile-time macros, host identity from uname/gethostname.
RunManifest make_run_manifest(std::string tool, const ConfigDigest& digest,
                              uint64_t seed, int threads);

/// Manifest <-> JSON (the "manifest" member of reports and bundles).
Json manifest_json(const RunManifest& m);
/// Parses a manifest; unknown members are ignored, absent ones default.
RunManifest manifest_from_json(const Json& j);

/// Process-wide current manifest: set by the first top-level entry point
/// (snim_bench before its scenario loop, build_impact_model when nothing
/// set one yet) and read by every artifact writer (diag bundles, VCD and
/// trace exports).  Thread-safe.
void set_current_manifest(RunManifest m);
std::optional<RunManifest> current_manifest();
void clear_current_manifest();

/// Sets the current manifest from (tool, digest, seed, threads) only when
/// none is set yet; returns the manifest in effect afterwards.  Lets nested
/// entry points (a flow inside a bench scenario) adopt the outer run's
/// identity instead of overwriting it.
RunManifest ensure_current_manifest(const std::string& tool,
                                    const ConfigDigest& digest, uint64_t seed,
                                    int threads);

/// Run id for artifact names: the current manifest's run id, else a short
/// process-unique token ("<utc-epoch-hex>p<pid>") for artifacts written
/// before any manifest exists (early bundles, an early last-gasp install).
std::string current_run_id();

} // namespace snim::obs
