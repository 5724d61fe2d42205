// snim_bench: unified benchmark & accuracy-telemetry driver.
//
//   snim_bench --list
//   snim_bench --quick --out BENCH_pr2.json --trace pr2.trace.json
//
// Runs the registered scenarios (paper figures with accuracy metrics against
// the reference CSVs, plus numeric kernels), prints per-scenario runtime
// statistics and accuracy deltas, optionally emits the BENCH_*.json report
// and a Chrome trace, and gates on the absolute accuracy check.  Comparing
// the report with an earlier one is `snim_report diff`'s job.  Live
// telemetry (SNIM_EVENTS, SNIM_PROFILE, SNIM_WATCHDOG, SNIM_LASTGASP) arms
// through the environment, as in every other entry point.  Exit status:
// 0 every scenario passed the accuracy gate, 1 a metric missed its tolerance,
// a figure had every corner skipped, or the run failed, 2 usage error.
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "core/accuracy.hpp"
#include "obs/bench.hpp"
#include "obs/events.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "obs/run_ledger.hpp"
#include "obs/trace_export.hpp"
#include "scenarios.hpp"
#include "sim/checkpoint.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace snim;

struct Args {
    bool list = false;
    bool quick = false;
    int repeat = 0;
    int threads = 0;
    uint64_t seed = obs::BenchOptions{}.seed;
    std::string filter;
    std::string out_path;
    std::string trace_path;
    std::string wave_dir;
    std::string diag_dir;
    sim::CheckpointOptions checkpoint;
    std::string ledger_path;
    std::string log_level;
};

void usage(std::FILE* to) {
    std::fputs(
        "usage: snim_bench [options]\n"
        "  --list                 list registered scenarios and exit\n"
        "  --filter SUBSTR[,..]   run only scenarios whose name contains one\n"
        "                         of the comma-separated substrings\n"
        "  --quick                trimmed sweeps, fewer repetitions, no warmup\n"
        "  --repeat N             override the per-scenario repetition count; every\n"
        "                         repetition must reproduce the first one's\n"
        "                         accuracy metrics and notes exactly\n"
        "  --seed N               default-Rng seed (runs are deterministic per seed)\n"
        "  --threads N            worker threads for parallel sweep corners\n"
        "                         (default: SNIM_THREADS, else 1; results are\n"
        "                         bit-identical for every value)\n"
        "  --out FILE             write the BENCH_*.json report (compare two with\n"
        "                         `snim_report diff`)\n"
        "  --trace FILE           write a Chrome trace (chrome://tracing, Perfetto)\n"
        "  --dump-waves DIR       write per-scenario probe waveforms and solver-\n"
        "                         health channels as VCD + CSV into DIR\n"
        "  --diag-dir DIR         write solver-failure and watchdog-hang bundles\n"
        "                         (snim_diag_*.json, snim_watchdog_*.json) into\n"
        "                         DIR instead of cwd\n"
        "  --checkpoint-dir DIR   snapshot every transient's state into DIR\n"
        "                         (crash-consistent, double-buffered; one file\n"
        "                         per scenario corner)\n"
        "  --checkpoint-every SPEC  snapshot cadence: '2s' = every 2 wall-clock\n"
        "                         seconds, plain N = every N accepted steps\n"
        "                         (default 5s)\n"
        "  --resume               continue from the snapshots in --checkpoint-dir;\n"
        "                         finished corners replay instantly, a corner\n"
        "                         killed mid-transient resumes bit-identically\n"
        "  --ledger FILE          append a one-line run summary (manifest +\n"
        "                         per-scenario runtime/accuracy/RSS) to the\n"
        "                         JSONL ledger; render with `snim_report trend`\n"
        "  --log-level LEVEL      debug|info|warn|quiet (default: SNIM_LOG, else warn)\n"
        "live telemetry arms through SNIM_EVENTS, SNIM_PROFILE, SNIM_WATCHDOG and\n"
        "SNIM_LASTGASP (README, \"Watching a run live\")\n"
        "output directories are created with their parents before any scenario\n"
        "runs; exit status: 0 accuracy gate passed, 1 gate failed or run error,\n"
        "2 usage error\n",
        to);
}

/// `text` as a whole number in [lo, hi] (decimal; `base` 0 also takes 0x-hex
/// and 0-octal); anything else raises, naming `flag`.
uint64_t parse_whole(const char* flag, const std::string& text, uint64_t lo,
                     uint64_t hi, int base = 10) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, base);
    // strtoull skips blanks and wraps a leading '-': take digits only.
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        errno == ERANGE || v < lo || v > hi)
        raise("%s wants a whole number from %llu to %llu, got '%s'", flag,
              static_cast<unsigned long long>(lo), static_cast<unsigned long long>(hi),
              text.c_str());
    return v;
}

/// "2s" / "1.5s" -> finite wall-clock seconds > 0; plain "500" -> a whole
/// number of accepted steps >= 1.
void parse_checkpoint_every(const std::string& spec, sim::CheckpointOptions& ck) {
    if (spec.size() > 1 && spec.back() == 's') {
        const std::string secs = spec.substr(0, spec.size() - 1);
        char* end = nullptr;
        const double v = std::strtod(secs.c_str(), &end);
        if (end == secs.c_str() || *end != '\0' || !std::isfinite(v) || v <= 0.0)
            raise("--checkpoint-every wants '<seconds>s' with finite seconds > 0, "
                  "got '%s'",
                  spec.c_str());
        ck.every_s = v;
    } else {
        ck.every_steps = static_cast<long>(
            parse_whole("--checkpoint-every", spec, 1, LONG_MAX));
    }
}

bool parse_args(int argc, char** argv, Args& a) {
    auto need_value = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc) raise("%s needs a value", flag);
        return argv[++i];
    };
    auto whole = [&](int& i, const char* flag, uint64_t lo, uint64_t hi, int base = 10) {
        return parse_whole(flag, need_value(i, flag), lo, hi, base);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") a.list = true;
        else if (arg == "--quick") a.quick = true;
        else if (arg == "--filter") a.filter = need_value(i, "--filter");
        else if (arg == "--repeat") a.repeat = static_cast<int>(whole(i, "--repeat", 1, INT_MAX));
        else if (arg == "--threads") a.threads = static_cast<int>(whole(i, "--threads", 0, INT_MAX));
        else if (arg == "--seed") a.seed = whole(i, "--seed", 0, UINT64_MAX, 0);
        else if (arg == "--out") a.out_path = need_value(i, "--out");
        else if (arg == "--trace") a.trace_path = need_value(i, "--trace");
        else if (arg == "--dump-waves") a.wave_dir = need_value(i, "--dump-waves");
        else if (arg == "--diag-dir") a.diag_dir = need_value(i, "--diag-dir");
        else if (arg == "--checkpoint-dir") a.checkpoint.dir = need_value(i, "--checkpoint-dir");
        else if (arg == "--checkpoint-every")
            parse_checkpoint_every(need_value(i, "--checkpoint-every"), a.checkpoint);
        else if (arg == "--resume") a.checkpoint.resume = true;
        else if (arg == "--ledger") a.ledger_path = need_value(i, "--ledger");
        else if (arg == "--log-level") a.log_level = need_value(i, "--log-level");
        else if (arg == "--help" || arg == "-h") { usage(stdout); std::exit(0); }
        else raise("unknown option '%s'", arg.c_str());
    }
    if (!a.log_level.empty() && !parse_log_level(a.log_level))
        raise("--log-level wants debug|info|warn|quiet, got '%s'",
              a.log_level.c_str());
    if (a.checkpoint.resume && a.checkpoint.dir.empty())
        raise("--resume needs --checkpoint-dir");
    if ((a.checkpoint.every_steps > 0 || a.checkpoint.every_s > 0.0) &&
        a.checkpoint.dir.empty())
        raise("--checkpoint-every needs --checkpoint-dir");
    return true;
}

/// Creates output directory `dir` (given as `flag`) with its parents, or
/// raises naming the path.
void make_output_dir(const char* flag, const std::string& dir) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) raise("cannot create %s '%s': %s", flag, dir.c_str(), ec.message().c_str());
}

/// Live single-line status on stderr, rewritten in place on each heartbeat.
void tty_status_observer(const obs::HeartbeatInfo& hb) {
    char line[160];
    int n;
    if (hb.total > 0) {
        n = std::snprintf(line, sizeof(line),
                          "\r[%s] %5.1f%%  %llu/%llu  eta %.0fs  rss %.0f MB",
                          hb.phase.c_str(), hb.percent,
                          static_cast<unsigned long long>(hb.done),
                          static_cast<unsigned long long>(hb.total),
                          hb.eta_s < 0 ? 0.0 : hb.eta_s,
                          static_cast<double>(hb.rss_bytes) / (1024.0 * 1024.0));
    } else {
        n = std::snprintf(line, sizeof(line), "\r[%s] %llu done  rss %.0f MB",
                          hb.phase.c_str(),
                          static_cast<unsigned long long>(hb.done),
                          static_cast<double>(hb.rss_bytes) / (1024.0 * 1024.0));
    }
    if (n < 0) return;
    // Pad to overwrite the previous (possibly longer) line.
    while (n < 78 && n + 1 < static_cast<int>(sizeof(line))) line[n++] = ' ';
    std::fwrite(line, 1, static_cast<size_t>(n), stderr);
    std::fflush(stderr);
}

void clear_tty_status() {
    std::fprintf(stderr, "\r%78s\r", "");
    std::fflush(stderr);
}

void print_scenario_result(const obs::ScenarioResult& r) {
    std::printf("  %-28s %2d rep  min %8.3fs  median %8.3fs  p95 %8.3fs\n",
                r.name.c_str(), r.repetitions, r.runtime.min_s,
                r.runtime.median_s, r.runtime.p95_s);
    for (const auto& m : r.accuracy)
        std::printf("    %-44s %6.2f dB (tol %.1f, %llu pts) %s\n",
                    m.name.c_str(), m.delta_db, m.tolerance_db,
                    static_cast<unsigned long long>(m.points),
                    m.pass() ? "ok" : "FAIL");
}

int run(const Args& a) {
    bench_scenarios::register_builtin_scenarios();

    const auto scenarios = obs::match_scenarios(a.filter);
    if (a.list) {
        for (const auto* s : obs::all_scenarios())
            std::printf("%-28s [%s]  %s\n", s->name.c_str(), s->kind.c_str(),
                        s->description.c_str());
        return 0;
    }
    if (scenarios.empty()) raise("no scenario matches filter '%s'", a.filter.c_str());
    // Resolve every reference file before the first scenario runs: a
    // missing one raises its named error now, not after the scenarios
    // ahead of it ran in full or inside a corner that would skip it.
    for (const auto* s : scenarios)
        for (const auto& file : s->references) (void)core::find_reference_file(file);

    obs::BenchOptions opt;
    opt.quick = a.quick;
    opt.repeat_override = a.repeat;
    opt.seed = a.seed;
    opt.wave_dir = a.wave_dir;
    opt.threads = a.threads;
    // Also raise the process default so AC sweeps inside scenarios pick the
    // same width without plumbing it through every options struct.
    if (a.threads > 0) util::set_default_thread_count(a.threads);
    // Checkpointing installs as a process default: scenarios stamp their own
    // per-corner tags on top, so a killed sweep resumes at the first
    // unfinished corner.  The output dirs are created before any scenario
    // runs: transient() downgrades snapshot-write failures to warnings and a
    // bundle that cannot be written only drops its path from the error it
    // documents, so a missing directory would otherwise silently disable
    // checkpointing or bundles, and a wave dump would fail only after the
    // first scenario's work.
    if (!a.checkpoint.dir.empty()) {
        make_output_dir("--checkpoint-dir", a.checkpoint.dir);
        sim::set_default_checkpoint(a.checkpoint);
    }
    if (!a.wave_dir.empty()) make_output_dir("--dump-waves", a.wave_dir);
    if (!a.diag_dir.empty()) {
        make_output_dir("--diag-dir", a.diag_dir);
        obs::set_bundle_dir(a.diag_dir);
    }

    // Live telemetry (SNIM_EVENTS/SNIM_PROFILE/SNIM_WATCHDOG/SNIM_LASTGASP).
    obs::init_live_from_env();
    if (!a.log_level.empty()) set_log_level(*parse_log_level(a.log_level));
    const bool tty_status = (obs::events_active() || obs::profiler_running()) &&
                            isatty(STDERR_FILENO);
    if (tty_status) obs::set_heartbeat_observer(tty_status_observer);

    // One manifest for the whole invocation, installed before the scenario
    // loop so every artifact (report, traces, VCDs, diag bundles) carries
    // the same run id and config digest.
    obs::set_current_manifest(obs::make_run_manifest(
        "snim_bench", obs::bench_config_digest(opt), opt.seed,
        util::ThreadPool(opt.threads).thread_count()));

    std::vector<obs::ScenarioResult> results;
    for (const auto* s : scenarios) {
        std::printf("[%zu/%zu] %s ...\n", results.size() + 1, scenarios.size(),
                    s->name.c_str());
        std::fflush(stdout);
        auto r = obs::run_scenario(*s, opt);
        if (tty_status) clear_tty_status();
        print_scenario_result(r);
        results.push_back(std::move(r));
    }
    if (tty_status) {
        obs::set_heartbeat_observer({});
        clear_tty_status();
    }

    // Freeze the profiler before the report embeds its counts; the
    // SNIM_PROFILE folded file shutdown_live() writes holds the same ones.
    obs::stop_profiler();

    if (!a.out_path.empty()) {
        obs::write_bench_report(a.out_path, obs::bench_report_json(results, opt));
        std::printf("wrote %s\n", a.out_path.c_str());
    }
    if (!a.ledger_path.empty()) {
        obs::append_ledger(a.ledger_path, obs::ledger_entry_from_report(
                                              obs::bench_report_json(results, opt)));
        std::printf("appended run to %s\n", a.ledger_path.c_str());
    }
    if (!a.trace_path.empty()) {
        std::vector<obs::TraceLane> lanes;
        for (const auto& r : results) lanes.push_back(r.lane);
        obs::write_json_file(a.trace_path, obs::chrome_trace_json(lanes));
        std::printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)\n",
                    a.trace_path.c_str());
    }

    size_t failed = 0;
    for (const auto& r : results)
        if (const std::string why = obs::accuracy_failure(r); !why.empty()) {
            std::printf("ACCURACY FAIL %s: %s\n", r.name.c_str(), why.c_str());
            ++failed;
        }
    if (failed > 0) {
        std::printf("GATE: FAIL (%zu of %zu scenarios)\n", failed, results.size());
        return 1;
    }
    std::fputs("GATE: PASS\n", stdout);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    Args a;
    try {
        parse_args(argc, argv, a);
    } catch (const Error& e) {
        std::fprintf(stderr, "snim_bench: %s\n", e.what());
        usage(stderr);
        return 2;
    }
    try {
        const int rc = run(a);
        obs::shutdown_live();
        return rc;
    } catch (const Error& e) {
        std::fprintf(stderr, "snim_bench: %s\n", e.what());
        obs::shutdown_live();
        return 1;
    }
}
