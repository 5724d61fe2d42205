// Checkpoint/restart for the transient engine.
//
// A checkpoint is everything transient() needs to continue a run after a
// SIGKILL and still produce BIT-IDENTICAL results: the accepted solution
// pair (x_acc / x_prev), every device's integration state, the dt backoff
// ladder (level / consecutive accepts / dt_prev), the accepted
// and attempted step counters, the RNG seed, the accuracy-budget ledger's
// partial sums, and the recorded waveform prefix.
//
// On-disk framing (little-endian, fixed field order — see encode_checkpoint):
//
//   "SNIMCKPT" | u32 version | u64 payload bytes | payload | u64 fnv1a64(payload)
//
// Doubles are serialised as their raw 64-bit images, so restored state is
// the exact bit pattern that was saved.
//
// Crash-consistency protocol (write_checkpoint):
//
//   1. rename <path> -> <path>.prev       (keep last-good while writing next)
//   2. write <path>.tmp.<pid>, fsync, rename -> <path>   (atomic publish)
//
// A crash at any point leaves at least one intact snapshot; the loader
// falls back <path> -> <path>.prev when the newest frame is corrupt.  A
// CONFIG DIGEST mismatch (the options hash the PR-6 run manifest carries)
// is never "corruption": it means the caller changed the physics, and
// load_checkpoint refuses with a named error instead of silently
// restarting.
//
// Fault points: `ckpt.write.fail` simulates a failed snapshot write (the
// run keeps its last-good and continues); `ckpt.corrupt` makes the loader
// treat the newest frame as corrupt, exercising the .prev fallback.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/certify.hpp"

namespace snim::sim {

/// Checkpoint policy, carried inside TranOptions.  All fields are
/// OPERATIONAL — excluded from the options config digest, exactly like
/// thread counts and diag dirs — so a resumed run with `resume=true`
/// matches the digest of the run that wrote the snapshot.
struct CheckpointOptions {
    /// Directory for snapshot files; empty disables checkpointing (the
    /// process-wide default policy below may still enable it).
    std::string dir;
    /// File stem inside `dir`; empty -> "tran".  Callers running several
    /// transients per process (oscillator captures, bench corners) must
    /// give each call site a distinct tag.
    std::string tag;
    /// Snapshot every N accepted nominal steps (0 = off).
    long every_steps = 0;
    /// Snapshot when this much wall-clock time passed since the last one
    /// (0 = off).  When the policy enables checkpointing with neither
    /// cadence set, a 5 s wall-clock default applies.  Wall-clock cadence
    /// only affects WHICH steps get snapshotted, never their values.
    double every_s = 0.0;
    /// Resume from <dir>/<tag>.ckpt when present; a missing snapshot is a
    /// fresh start (so a blanket --resume covers never-started corners).
    bool resume = false;
};

/// v2: the ladder's LTE flag left the payload.  v3: the recorded and
/// averaged sample counts left it (both equal the recorded time axis).
inline constexpr uint32_t kCheckpointVersion = 3;

/// The serialised solver state.  Waveform vectors hold the recorded prefix;
/// `average` holds RAW accumulated sums (divided only when the run ends).
struct TranCheckpoint {
    uint64_t config_digest = 0; // digest_options(TranOptions) — the guard
    uint64_t rng_seed = 0;      // util::default_rng_seed() at snapshot time
    int64_t step = 0;           // completed nominal steps
    int64_t attempt_no = 0;     // telemetry step-attempt counter
    int64_t be_steps_done = 0;
    int64_t level = 0;
    int64_t consecutive_accepts = 0;
    int64_t step_retries = 0;   // TranResult::step_retries so far
    double dt_prev = 0.0;
    std::vector<double> x_acc;
    std::vector<double> x_prev;
    std::vector<double> device_state;
    std::vector<double> average;
    std::vector<std::string> probe_names;
    std::vector<double> time;
    std::vector<std::vector<double>> waves;
    obs::BudgetState budget;
};

/// <dir>/<tag>.ckpt with the tag slugged for the filesystem ('/' and
/// whitespace become '_').
std::string checkpoint_path(const std::string& dir, const std::string& tag);

/// Serialises `c` into the versioned frame (exposed for tests and the
/// chaos harness).
std::string encode_checkpoint(const TranCheckpoint& c);

/// Parses a frame; raises a named snim::Error on truncation, bad magic,
/// unsupported version, or checksum mismatch.
TranCheckpoint decode_checkpoint(std::string_view data);

/// Double-buffered crash-consistent write (protocol above); returns the
/// frame size in bytes (the sim/ckpt_bytes counter).  Raises on I/O
/// failure — transient() downgrades that to a warning and keeps running on
/// its last-good snapshot.
size_t write_checkpoint(const std::string& path, const TranCheckpoint& c);

/// Loads the newest intact snapshot: tries <path>, then <path>.prev when
/// <path> is corrupt or missing.  Returns nullopt when neither file exists
/// (fresh start).  Raises a named error when every present candidate is
/// corrupt, or when an intact snapshot's config digest != expected_digest
/// (resuming with changed options is refused, never papered over).
std::optional<TranCheckpoint> load_checkpoint(const std::string& path,
                                              uint64_t expected_digest);

/// Process-wide default checkpoint policy, consulted by transient() when
/// TranOptions carries no checkpoint dir — how snim_bench --checkpoint-dir
/// and --resume reach every transient in the process, as
/// obs::set_bundle_dir is how --diag-dir reaches every bundle writer.
void set_default_checkpoint(CheckpointOptions policy);
const CheckpointOptions& default_checkpoint();

} // namespace snim::sim
