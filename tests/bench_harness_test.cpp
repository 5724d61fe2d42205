// Tests for the snim_bench scenario harness: registration and filtering,
// runtime statistics, the determinism assertion across repetitions, the
// accuracy gate (a metric beyond tolerance or a figure without accuracy
// metrics fails), the BENCH_*.json round-trip through diff_reports
// (including its schema_version check), and the Chrome trace exporter's
// well-formedness (balanced B/E pairs, monotonic timestamps, counter args).
//
// Lives in the snim_obs_tests binary (ctest label "obs").
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/bench.hpp"
#include "obs/compare.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace snim;

namespace {

obs::Scenario make_scenario(const std::string& name,
                            std::function<void(obs::ScenarioContext&)> body) {
    obs::Scenario s;
    s.name = name;
    s.description = "test scenario";
    s.kind = "kernel";
    s.repeat = 2;
    s.warmup = 0;
    s.run = std::move(body);
    return s;
}

obs::AccuracyMetric metric(const std::string& name, double delta, double tol) {
    obs::AccuracyMetric m;
    m.name = name;
    m.reference = "test";
    m.delta_db = delta;
    m.tolerance_db = tol;
    m.points = 3;
    return m;
}

/// A ScenarioResult with a fixed runtime, bypassing run_scenario.
obs::ScenarioResult fixed_result(const std::string& name, double median_s,
                                 std::vector<obs::AccuracyMetric> accuracy = {}) {
    obs::ScenarioResult r;
    r.name = name;
    r.kind = "kernel";
    r.repetitions = 1;
    r.runtime = obs::runtime_stats({median_s});
    r.accuracy = std::move(accuracy);
    return r;
}

} // namespace

// --- runtime statistics ---------------------------------------------------

TEST(BenchRuntimeStats, OrderStatistics) {
    const auto st = obs::runtime_stats({5.0, 1.0, 3.0, 2.0, 4.0});
    EXPECT_DOUBLE_EQ(st.min_s, 1.0);
    EXPECT_DOUBLE_EQ(st.median_s, 3.0);
    EXPECT_DOUBLE_EQ(st.mean_s, 3.0);
    // Linear interpolation at position 0.95*(n-1) = 3.8.
    EXPECT_DOUBLE_EQ(st.p95_s, 4.8);
    EXPECT_EQ(st.runs_s.size(), 5u);
}

TEST(BenchRuntimeStats, SingleRunAndEmpty) {
    const auto one = obs::runtime_stats({2.5});
    EXPECT_DOUBLE_EQ(one.min_s, 2.5);
    EXPECT_DOUBLE_EQ(one.median_s, 2.5);
    EXPECT_DOUBLE_EQ(one.p95_s, 2.5);

    const auto none = obs::runtime_stats({});
    EXPECT_DOUBLE_EQ(none.median_s, 0.0);
    EXPECT_TRUE(none.runs_s.empty());
}

// --- registration & filtering ---------------------------------------------

TEST(BenchRegistry, RegisterFilterAndDuplicates) {
    obs::register_scenario(make_scenario("t/reg/alpha", [](obs::ScenarioContext&) {}));
    obs::register_scenario(make_scenario("t/reg/beta", [](obs::ScenarioContext&) {}));

    const auto alpha = obs::match_scenarios("t/reg/alpha");
    ASSERT_EQ(alpha.size(), 1u);
    EXPECT_EQ(alpha[0]->name, "t/reg/alpha");

    // Comma-separated substrings union; unknown substrings match nothing.
    EXPECT_EQ(obs::match_scenarios("t/reg/alpha,t/reg/beta").size(), 2u);
    EXPECT_EQ(obs::match_scenarios("t/reg/").size(), 2u);
    EXPECT_TRUE(obs::match_scenarios("no-such-scenario").empty());

    // Empty filter selects everything registered so far.
    EXPECT_GE(obs::match_scenarios("").size(), 2u);

    EXPECT_THROW(
        obs::register_scenario(make_scenario("t/reg/alpha", [](obs::ScenarioContext&) {})),
        Error);
}

// --- run_scenario ---------------------------------------------------------

TEST(BenchRun, CollectsRunsAccuracyAndRegistry) {
    auto s = make_scenario("t/run/basic", [](obs::ScenarioContext& ctx) {
        obs::ScopedTimer t(obs::Phase("t_phase/work"));
        obs::count("t_phase/work/items", 7);
        ctx.add_accuracy(metric("delta", 0.5, 2.0));
    });
    s.repeat = 3;
    const auto r = obs::run_scenario(s, obs::BenchOptions{});

    EXPECT_EQ(r.repetitions, 3);
    EXPECT_EQ(r.runtime.runs_s.size(), 3u);
    EXPECT_GT(r.runtime.median_s, 0.0);
    ASSERT_EQ(r.accuracy.size(), 1u);
    EXPECT_TRUE(r.accuracy[0].pass());

    // The final repetition's registry snapshot rides along; each repetition
    // starts from a reset registry so the counter is 7, not 21.
    EXPECT_EQ(obs::counter_value("t_phase/work/items"), 7u);
    EXPECT_EQ(obs::phase_calls("t_phase/work"), 1u);
    ASSERT_TRUE(r.registry.contains("counters"));
    ASSERT_EQ(r.lane.counters.size(), 1u);
    EXPECT_EQ(r.lane.counters[0].second, 7u);
    obs::reset();
}

TEST(BenchRun, QuickUsesQuickRepeatAndSkipsWarmup) {
    int runs = 0;
    auto s = make_scenario("t/run/quick", [&](obs::ScenarioContext& ctx) {
        ++runs;
        EXPECT_TRUE(ctx.quick);
    });
    s.repeat = 4;
    s.quick_repeat = 2;
    s.warmup = 3;
    obs::BenchOptions opt;
    opt.quick = true;
    const auto r = obs::run_scenario(s, opt);
    EXPECT_EQ(r.repetitions, 2);
    EXPECT_EQ(runs, 2); // warmups skipped under --quick
    obs::reset();
}

TEST(BenchRun, RepetitionDependentAccuracyRaises) {
    auto s = make_scenario("t/run/nondet", [](obs::ScenarioContext& ctx) {
        // Repetition-dependent delta: exactly the determinism bug the
        // harness exists to catch.
        ctx.add_accuracy(metric("delta", 0.1 * (ctx.repetition + 1), 2.0));
    });
    EXPECT_THROW(obs::run_scenario(s, obs::BenchOptions{}), Error);
    obs::reset();
}

TEST(BenchRun, TwoRunsProduceIdenticalAccuracy) {
    auto s = make_scenario("t/run/det", [](obs::ScenarioContext& ctx) {
        // Derives the metric from the seeded default Rng: identical across
        // runs because run_scenario reseeds before every repetition.
        Rng rng;
        ctx.add_accuracy(metric("delta", rng.uniform(0.0, 1.0), 2.0));
    });
    const auto a = obs::run_scenario(s, obs::BenchOptions{});
    const auto b = obs::run_scenario(s, obs::BenchOptions{});
    ASSERT_EQ(a.accuracy.size(), 1u);
    ASSERT_EQ(b.accuracy.size(), 1u);
    EXPECT_DOUBLE_EQ(a.accuracy[0].delta_db, b.accuracy[0].delta_db);

    obs::BenchOptions other;
    other.seed = 1234;
    const auto c = obs::run_scenario(s, other);
    EXPECT_NE(a.accuracy[0].delta_db, c.accuracy[0].delta_db);
    obs::reset();
}

// --- accuracy gate and report round-trip ----------------------------------

TEST(BenchGate, SerializedBaselineRoundTrip) {
    // Through dump() + parse(): what `snim_report diff` reads from disk.
    const obs::BenchOptions opt;
    const auto report = obs::bench_report_json(
        {fixed_result("t/gate/disk", 1.0, {metric("delta", 0.5, 2.0)}),
         fixed_result("t/gate/kernel", 0.25)},
        opt);
    const auto reparsed = obs::Json::parse(report.dump(2));
    EXPECT_EQ(static_cast<int>(reparsed.at("schema_version").as_number()),
              obs::kBenchSchemaVersion);

    const auto d = obs::diff_reports(reparsed, report);
    EXPECT_TRUE(d.only_in_a.empty());
    EXPECT_TRUE(d.only_in_b.empty());
    ASSERT_FALSE(d.metrics.empty());
    for (const auto& m : d.metrics)
        EXPECT_EQ(m.verdict, obs::DiffVerdict::Equal) << m.scenario << " " << m.metric;
    EXPECT_FALSE(obs::diff_has_regression(d));
}

TEST(BenchGate, AccuracyFailureIsAlwaysFatal) {
    const auto bad = fixed_result("t/gate/acc", 1.0, {metric("delta", 5.0, 2.0)});
    EXPECT_EQ(obs::accuracy_failure(bad),
              "'delta' delta 5.00 dB > tolerance 2.00 dB (vs test)");
    const auto good = fixed_result("t/gate/acc", 1.0, {metric("delta", 1.0, 2.0)});
    EXPECT_EQ(obs::accuracy_failure(good), "");
}

TEST(BenchGate, FigureWithoutAccuracyMetricFailsTheGate) {
    // Every corner of the figure was skipped, so no accuracy was checked.
    auto fig = fixed_result("t/gate/fig", 1.0);
    fig.kind = "figure";
    fig.notes = {"corner 'fig10 real' skipped: operating point did not converge",
                 "corner 'fig10 2x' skipped: operating point did not converge"};
    const std::string why = obs::accuracy_failure(fig);
    EXPECT_NE(why.find("skipped corners: 'fig10 real' 'fig10 2x'"), std::string::npos)
        << why;

    // A kernel scores no accuracy and passes on its own.
    EXPECT_EQ(obs::accuracy_failure(fixed_result("t/gate/kernel", 1.0)), "");
}

TEST(BenchGate, SchemaVersionMismatchRaises) {
    const auto current = obs::bench_report_json({fixed_result("t/gate/v", 1.0)},
                                                obs::BenchOptions{});
    for (const int version : {0, obs::kBenchSchemaVersion + 1}) {
        obs::Json other = current;
        other.as_object().at("schema_version") = obs::Json(version);
        EXPECT_THROW(obs::diff_reports(other, current), Error) << version;
        EXPECT_THROW(obs::diff_reports(current, other), Error) << version;
    }
    obs::Json unversioned = current;
    unversioned.as_object().erase("schema_version");
    EXPECT_THROW(obs::diff_reports(unversioned, current), Error);
    EXPECT_THROW(obs::diff_reports(obs::Json("not a report"), current), Error);
    EXPECT_NO_THROW(obs::diff_reports(current, current));
}

// --- Chrome trace export --------------------------------------------------

namespace {

obs::PhaseNode node(const std::string& path, uint64_t calls, double seconds,
                    std::vector<obs::PhaseNode> children = {}) {
    obs::PhaseNode n;
    const auto slash = path.rfind('/');
    n.name = slash == std::string::npos ? path : path.substr(slash + 1);
    n.path = path;
    n.calls = calls;
    n.seconds = seconds;
    n.children = std::move(children);
    return n;
}

obs::TraceLane sample_lane() {
    obs::TraceLane lane;
    lane.name = "sample";
    lane.tree = node("", 0, 0.0,
                     {node("flow", 0, 0.0,
                           {node("flow/extract", 1, 0.3), node("flow/simulate", 2, 0.7)}),
                      node("numeric", 0, 0.0, {node("numeric/lu_factor", 5, 0.2)})});
    lane.counters = {{"flow/simulate/steps", 1000}, {"unmatched/counter", 3}};
    return lane;
}

} // namespace

TEST(TraceExport, EventsAreBalancedAndMonotonic) {
    const auto doc = obs::chrome_trace_json({sample_lane()});
    ASSERT_TRUE(doc.contains("traceEvents"));
    const auto& events = doc.at("traceEvents").as_array();

    std::map<double, std::vector<std::string>> stacks; // tid -> open B names
    std::map<double, double> last_ts;
    size_t durations = 0;
    for (const auto& e : events) {
        const auto& ph = e.at("ph").as_string();
        if (ph == "M") continue; // metadata carries no timestamp
        ASSERT_TRUE(ph == "B" || ph == "E") << "unexpected phase " << ph;
        ++durations;
        const double tid = e.at("tid").as_number();
        const double ts = e.at("ts").as_number();
        auto it = last_ts.find(tid);
        if (it != last_ts.end()) {
            EXPECT_GE(ts, it->second);
        }
        last_ts[tid] = ts;
        if (ph == "B")
            stacks[tid].push_back(e.at("name").as_string());
        else {
            ASSERT_FALSE(stacks[tid].empty()) << "E without matching B";
            stacks[tid].pop_back();
        }
    }
    EXPECT_GT(durations, 0u);
    for (const auto& [tid, open] : stacks)
        EXPECT_TRUE(open.empty()) << "unbalanced B on tid " << tid;
}

TEST(TraceExport, CountersLandOnDeepestMatchingPhase) {
    const auto doc = obs::chrome_trace_json({sample_lane()});
    bool found_steps = false;
    for (const auto& e : doc.at("traceEvents").as_array()) {
        if (e.at("ph").as_string() != "B") continue;
        if (e.at("name").as_string() != "simulate") continue;
        const auto& args = e.at("args").as_object();
        ASSERT_TRUE(args.count("steps"));
        EXPECT_DOUBLE_EQ(args.at("steps").as_number(), 1000.0);
        found_steps = true;
    }
    EXPECT_TRUE(found_steps);

    // Counters with no phase prefix go to otherData (keyed by lane), not
    // onto a random span.
    ASSERT_TRUE(doc.contains("otherData"));
    const auto& other = doc.at("otherData").at("sample").as_object();
    EXPECT_TRUE(other.count("unmatched/counter"));
}

TEST(TraceExport, LanesGetDistinctTidsAndThreadNames) {
    auto a = sample_lane();
    a.name = "lane_a";
    auto b = sample_lane();
    b.name = "lane_b";
    const auto doc = obs::chrome_trace_json({a, b});

    std::map<std::string, double> lane_tid;
    for (const auto& e : doc.at("traceEvents").as_array()) {
        if (e.at("ph").as_string() != "M") continue;
        if (e.at("name").as_string() != "thread_name") continue;
        lane_tid[e.at("args").at("name").as_string()] = e.at("tid").as_number();
    }
    ASSERT_TRUE(lane_tid.count("lane_a"));
    ASSERT_TRUE(lane_tid.count("lane_b"));
    EXPECT_NE(lane_tid["lane_a"], lane_tid["lane_b"]);
}
