#include "obs/bench.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/certify.hpp"
#include "obs/parallel.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/resources.hpp"
#include "obs/timeseries.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace snim::obs {

namespace {

const Counter kSkippedCorners("bench/skipped_corners");

std::vector<Scenario>& scenario_store() {
    static std::vector<Scenario>* s = new std::vector<Scenario>;
    return *s;
}

std::vector<const Scenario*> sorted_view(const std::vector<Scenario>& store) {
    std::vector<const Scenario*> out;
    out.reserve(store.size());
    for (const auto& s : store) out.push_back(&s);
    std::sort(out.begin(), out.end(),
              [](const Scenario* a, const Scenario* b) { return a->name < b->name; });
    return out;
}

std::vector<std::string> split_filter(const std::string& filter) {
    std::vector<std::string> parts;
    std::string cur;
    for (char ch : filter) {
        if (ch == ',') {
            if (!cur.empty()) parts.push_back(cur);
            cur.clear();
        } else {
            cur += ch;
        }
    }
    if (!cur.empty()) parts.push_back(cur);
    return parts;
}

void check_deterministic_accuracy(const Scenario& s,
                                  const std::vector<AccuracyMetric>& first,
                                  const std::vector<AccuracyMetric>& rep, int repetition) {
    if (first.size() != rep.size())
        raise("scenario '%s' is non-deterministic: repetition %d produced %zu accuracy "
              "metrics, repetition 0 produced %zu",
              s.name.c_str(), repetition, rep.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
        const AccuracyMetric& a = first[i];
        const AccuracyMetric& b = rep[i];
        if (a.name != b.name || a.reference != b.reference || a.points != b.points ||
            a.delta_db != b.delta_db)
            raise("scenario '%s' is non-deterministic: accuracy metric '%s' changed "
                  "between repetitions (%.17g dB vs %.17g dB over %llu/%llu points)",
                  s.name.c_str(), a.name.c_str(), a.delta_db, b.delta_db,
                  static_cast<unsigned long long>(a.points),
                  static_cast<unsigned long long>(b.points));
    }
}

Json accuracy_json(const std::vector<AccuracyMetric>& metrics) {
    JsonArray arr;
    for (const auto& m : metrics) {
        JsonObject o;
        o.emplace("name", m.name);
        o.emplace("reference", m.reference);
        o.emplace("delta_db", m.delta_db);
        o.emplace("tolerance_db", m.tolerance_db);
        o.emplace("points", m.points);
        o.emplace("pass", m.pass());
        arr.push_back(Json(std::move(o)));
    }
    return Json(std::move(arr));
}

/// Filesystem-safe slug: '/' and whitespace become '_'.
std::string file_slug(const std::string& name) {
    std::string out = name;
    for (char& c : out)
        if (c == '/' || c == ' ' || c == '\t') c = '_';
    return out;
}

} // namespace

bool ScenarioContext::guard_corner(const std::string& tag,
                                   const std::function<void()>& body) {
    try {
        body();
        return true;
    } catch (const Error& e) {
        count(kSkippedCorners);
        add_note(format("corner '%s' skipped: %s", tag.c_str(), e.what()));
        return false;
    }
}

void ScenarioContext::run_corners(
    size_t count, const std::function<void(ScenarioContext&, size_t)>& body) {
    std::vector<ScenarioContext> corners(count);
    for (auto& c : corners) {
        c.quick = quick;
        c.seed = seed;
        c.repetition = repetition;
        c.threads = threads;
        c.wave_dir = wave_dir; // corner dumps write distinct slugged paths
    }
    // Corner-level heartbeats; the registry stays untouched (corner results
    // merge deterministically below, independent of completion order).
    ProgressScope progress("bench/corners", count);
    parallel_tasks(threads, count, [&](size_t i) {
        body(corners[i], i);
        progress.advance();
    });
    for (auto& c : corners) {
        for (auto& m : c.accuracy) accuracy.push_back(std::move(m));
        for (auto& n : c.notes) notes.push_back(std::move(n));
    }
}

std::string ScenarioContext::dump_waves(const std::string& tag,
                                        const std::vector<WaveSignal>& signals) const {
    if (wave_dir.empty() || signals.empty()) return {};
    const std::string stem = wave_dir + "/" + file_slug(tag);
    write_vcd(stem + ".vcd", signals);
    write_wave_csv(stem + ".csv", signals);
    return stem + ".vcd";
}

void register_scenario(Scenario s) {
    SNIM_ASSERT(!s.name.empty(), "scenario needs a name");
    SNIM_ASSERT(s.run != nullptr, "scenario '%s' needs a run body", s.name.c_str());
    for (const auto& existing : scenario_store())
        if (existing.name == s.name)
            raise("scenario '%s' registered twice", s.name.c_str());
    scenario_store().push_back(std::move(s));
}

std::vector<const Scenario*> all_scenarios() { return sorted_view(scenario_store()); }

std::vector<const Scenario*> match_scenarios(const std::string& filter) {
    const auto parts = split_filter(filter);
    if (parts.empty()) return all_scenarios();
    std::vector<const Scenario*> out;
    for (const Scenario* s : all_scenarios())
        for (const auto& p : parts)
            if (s->name.find(p) != std::string::npos) {
                out.push_back(s);
                break;
            }
    return out;
}

RuntimeStats runtime_stats(std::vector<double> runs) {
    RuntimeStats st;
    st.runs_s = runs;
    if (runs.empty()) return st;
    std::sort(runs.begin(), runs.end());
    st.min_s = runs.front();
    const size_t n = runs.size();
    st.median_s = n % 2 ? runs[n / 2] : 0.5 * (runs[n / 2 - 1] + runs[n / 2]);
    const double pos = 0.95 * static_cast<double>(n - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, n - 1);
    st.p95_s = runs[lo] + (pos - static_cast<double>(lo)) * (runs[hi] - runs[lo]);
    double sum = 0.0;
    for (double r : runs) sum += r;
    st.mean_s = sum / static_cast<double>(n);
    return st;
}

ConfigDigest bench_config_digest(const BenchOptions& opt) {
    ConfigDigest d;
    d.add("bench.quick", opt.quick);
    d.add("bench.repeat_override", opt.repeat_override);
    d.add("bench.seed", opt.seed);
    d.add("bench.wave_dir_set", !opt.wave_dir.empty());
    return d;
}

ScenarioResult run_scenario(const Scenario& s, const BenchOptions& opt) {
    using Clock = std::chrono::steady_clock;
    ensure_current_manifest("snim_bench", bench_config_digest(opt), opt.seed,
                            util::ThreadPool(opt.threads).thread_count());
    ScenarioResult result;
    result.name = s.name;
    result.kind = s.kind;
    result.description = s.description;
    const int quick_repeat = s.quick_repeat > 0 ? s.quick_repeat : s.repeat;
    result.repetitions = opt.repeat_override > 0 ? opt.repeat_override
                         : opt.quick             ? quick_repeat
                                                 : s.repeat;
    result.warmup = opt.quick ? 0 : s.warmup;

    // One progress unit per repetition (warmup included), so a multi-rep
    // scenario heartbeats even when each repetition is fast.
    ProgressScope progress("bench/" + s.name,
                           static_cast<uint64_t>(result.warmup) +
                               static_cast<uint64_t>(result.repetitions));

    auto one_rep = [&](int repetition, bool record) {
        set_default_rng_seed(opt.seed);
        reset();
        set_enabled(true);
        ScenarioContext ctx;
        ctx.quick = opt.quick;
        ctx.seed = opt.seed;
        ctx.repetition = repetition;
        ctx.threads = util::ThreadPool(opt.threads).thread_count();
        // Waveform dumps only on the last recorded repetition: file I/O in
        // earlier repetitions would pollute the timing statistics for no
        // extra information (repetitions are asserted deterministic).
        if (record && repetition == result.repetitions - 1) ctx.wave_dir = opt.wave_dir;
        const auto t0 = Clock::now();
        s.run(ctx);
        const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
        set_enabled(false);
        if (!record) return;
        result.runtime.runs_s.push_back(elapsed);
        if (repetition == 0) {
            result.accuracy = std::move(ctx.accuracy);
            result.notes = std::move(ctx.notes);
        } else {
            check_deterministic_accuracy(s, result.accuracy, ctx.accuracy, repetition);
            if (result.notes != ctx.notes)
                raise("scenario '%s' is non-deterministic: notes changed between "
                      "repetition 0 (%zu notes) and repetition %d (%zu notes)",
                      s.name.c_str(), result.notes.size(), repetition,
                      ctx.notes.size());
        }
    };

    for (int w = 0; w < result.warmup; ++w) {
        one_rep(-1 - w, false);
        progress.advance();
    }
    for (int r = 0; r < result.repetitions; ++r) {
        one_rep(r, true);
        progress.advance();
    }

    // The final repetition's registry is left intact (but disabled) so the
    // caller can still read phase_seconds()/report_text() after we return.
    result.registry = report_json();
    // Schema 4: fold the figure accuracy deltas into the ledger as
    // "figure/..." stages (briefly re-enabling the registry — one ranked
    // budget view covers solver health and figure reproduction alike), then
    // snapshot ledger and certificate summary.
    set_enabled(true);
    for (const AccuracyMetric& m : result.accuracy)
        budget_update("figure/" + s.name + "/" + m.name, m.delta_db,
                      m.tolerance_db, "dB", /*higher_is_worse=*/true,
                      m.reference);
    set_enabled(false);
    result.budget = budget_json();
    result.certificates = certificate_summary_json();
    result.lane = registry_trace_lane(s.name);
    result.runtime = runtime_stats(std::move(result.runtime.runs_s));
    result.peak_rss_bytes = peak_rss_bytes();

    // Solver-health channels of the final repetition as a VCD next to the
    // scenario's own probe dumps (non-monotone channels fall back to a
    // sample-index axis inside wave_from_timeseries).
    if (!opt.wave_dir.empty() && !result.lane.timeseries.empty()) {
        std::vector<WaveSignal> health;
        health.reserve(result.lane.timeseries.size());
        for (const auto& ts : result.lane.timeseries)
            health.push_back(wave_from_timeseries(ts));
        const std::string stem = opt.wave_dir + "/" + file_slug(s.name) + ".health";
        write_vcd(stem + ".vcd", health);
        write_wave_csv(stem + ".csv", health);
    }
    return result;
}

Json bench_report_json(const std::vector<ScenarioResult>& results,
                       const BenchOptions& opt) {
    JsonObject root;
    root.emplace("schema_version", kBenchSchemaVersion);
    root.emplace("tool", "snim_bench");
    root.emplace("quick", opt.quick);
    root.emplace("seed", static_cast<double>(opt.seed));
    // Additive field (schema_version stays 1): the resolved worker-thread
    // count the scenarios ran with.  Results are thread-count independent;
    // runtimes are not, so baselines should note it.
    root.emplace("threads", util::ThreadPool(opt.threads).thread_count());
    // Schema 2: the run's provenance manifest.  The process-wide current
    // manifest (set by run_scenario) wins so nested flows and the report
    // agree on one run id; a fresh one is built when nothing ran yet.
    RunManifest manifest;
    if (auto cur = current_manifest()) {
        manifest = *cur;
    } else {
        manifest = make_run_manifest("snim_bench", bench_config_digest(opt),
                                     opt.seed,
                                     util::ThreadPool(opt.threads).thread_count());
    }
    root.emplace("manifest", manifest_json(manifest));
    JsonArray scenarios;
    for (const auto& r : results) {
        JsonObject s;
        s.emplace("name", r.name);
        s.emplace("kind", r.kind);
        s.emplace("description", r.description);
        s.emplace("repetitions", r.repetitions);
        s.emplace("warmup", r.warmup);
        JsonObject rt;
        JsonArray runs;
        for (double x : r.runtime.runs_s) runs.push_back(x);
        rt.emplace("runs_s", Json(std::move(runs)));
        rt.emplace("min_s", r.runtime.min_s);
        rt.emplace("median_s", r.runtime.median_s);
        rt.emplace("p95_s", r.runtime.p95_s);
        rt.emplace("mean_s", r.runtime.mean_s);
        s.emplace("runtime", Json(std::move(rt)));
        s.emplace("accuracy", accuracy_json(r.accuracy));
        JsonArray notes;
        for (const auto& note : r.notes) notes.push_back(note);
        s.emplace("notes", Json(std::move(notes)));
        s.emplace("registry", r.registry);
        // Schema 4: the accuracy-budget ledger and certificate summary.
        s.emplace("budget", r.budget);
        s.emplace("certificates", r.certificates);
        if (r.peak_rss_bytes > 0)
            s.emplace("peak_rss_bytes", static_cast<double>(r.peak_rss_bytes));
        scenarios.push_back(Json(std::move(s)));
    }
    root.emplace("scenarios", Json(std::move(scenarios)));
    // Schema 3: the event-journal tail (when live telemetry ran), so the
    // report alone answers "what was the run saying near the end".
    if (JsonArray events = event_tail_json(); !events.empty())
        root.emplace("events", Json(std::move(events)));
    // Schema 3: folded-stack sample counts when the sampling profiler ran.
    if (const FoldedProfile profile = profiler_snapshot(); profile.samples > 0)
        root.emplace("profile", profile_json(profile));
    return Json(std::move(root));
}

void write_bench_report(const std::string& path, const Json& report) {
    write_json_file(path, report);
}

std::string accuracy_failure(const ScenarioResult& r) {
    const auto bad = std::find_if(r.accuracy.begin(), r.accuracy.end(),
                                  [](const AccuracyMetric& m) { return !m.pass(); });
    if (bad != r.accuracy.end())
        return format("'%s' delta %.2f dB > tolerance %.2f dB (vs %s)",
                      bad->name.c_str(), bad->delta_db, bad->tolerance_db,
                      bad->reference.c_str());
    if (r.kind != "figure" || !r.accuracy.empty()) return {};
    // guard_corner's notes read "corner '<tag>' skipped: <error>".
    const std::string prefix = "corner ";
    std::string out = "figure without accuracy metrics; skipped corners:";
    for (const auto& note : r.notes)
        if (note.rfind(prefix + '\'', 0) == 0)
            out += " " + note.substr(prefix.size(),
                                     note.find(" skipped: ") - prefix.size());
    return out;
}

} // namespace snim::obs
