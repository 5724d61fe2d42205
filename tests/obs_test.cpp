// Tests for the observability subsystem: registry counters/histograms,
// nested scoped phase timers, JSON report round-trip, log sink capture,
// the disabled mode recording nothing, concurrent recording from raw
// threads, and a frozen digest of what a VCO capture records, whose
// waveform must equal the one the same capture gives with telemetry off.
//
// Built as its own ctest target (label "obs") so the whole group can be
// selected with `ctest -L obs`.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "numeric/sparse_lu.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/phasestack.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "rf/oscillator.hpp"
#include "sim/transient.hpp"
#include "testcases/vco.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "waveform_digest.hpp"

using namespace snim;

namespace {

class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::reset();
        obs::set_enabled(true);
    }
    void TearDown() override {
        obs::set_enabled(false);
        obs::set_events_active(false);
        obs::reset_events_for_test();
        obs::phase_stack::set_enabled(false);
        obs::reset();
    }
};

const obs::PhaseNode* child_named(const obs::PhaseNode& node, const std::string& name) {
    for (const auto& c : node.children)
        if (c.name == name) return &c;
    return nullptr;
}

} // namespace

TEST_F(ObsTest, CountersAccumulate) {
    obs::count("a/b");
    obs::count("a/b", 4);
    obs::count("other");
    EXPECT_EQ(obs::counter_value("a/b"), 5u);
    EXPECT_EQ(obs::counter_value("other"), 1u);
    EXPECT_EQ(obs::counter_value("missing"), 0u);
}

TEST_F(ObsTest, CountersThreadSafeUnderHammer) {
    // Four raw threads record every kind, alternately through interned
    // handles and through names.  Each thread's op log is applied at the
    // latest when the thread exits, so every total is exact after join().
    constexpr int kThreads = 4;
    constexpr int kPerThread = 50000;
    const obs::Counter counter("hammer/shared");
    const obs::Value value("hammer/value");
    const obs::Phase phase("hammer/phase");
    const obs::Channel channel("hammer/ts", "1");
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i) {
                const double v = static_cast<double>(i);
                if (i % 2 == 0) {
                    obs::ScopedTimer timer(phase);
                    obs::count(counter);
                    obs::record_value(value, v);
                    obs::ts_append(channel, v, v);
                } else {
                    obs::ScopedTimer timer(obs::Phase("hammer/phase"));
                    obs::count("hammer/shared");
                    obs::record_value("hammer/value", v);
                    obs::ts_append("hammer/ts", v, v, "1");
                }
            }
        });
    }
    for (auto& th : threads) th.join();
    constexpr uint64_t kTotal = static_cast<uint64_t>(kThreads) * kPerThread;
    EXPECT_EQ(obs::counter_value("hammer/shared"), kTotal);
    const auto stats = obs::value_stats("hammer/value");
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->count, kTotal);
    EXPECT_DOUBLE_EQ(stats->min, 0.0);
    EXPECT_DOUBLE_EQ(stats->max, kPerThread - 1);
    // Integer samples: the sum is exact in any order.
    EXPECT_EQ(stats->sum, kThreads * (kPerThread - 1.0) * kPerThread / 2.0);
    EXPECT_EQ(obs::phase_calls("hammer/phase"), kTotal);
    const auto ts = obs::ts_get("hammer/ts");
    ASSERT_TRUE(ts.has_value());
    EXPECT_EQ(ts->offered, kTotal);
    EXPECT_EQ(ts->unit, "1");
    EXPECT_LE(ts->value.size(), obs::kTimeSeriesCapacity + 1);
}

TEST_F(ObsTest, ValueStatsQuantiles) {
    for (int i = 1; i <= 100; ++i) obs::record_value("v", static_cast<double>(i));
    const auto s = obs::value_stats("v");
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->count, 100u);
    EXPECT_DOUBLE_EQ(s->sum, 5050.0);
    EXPECT_DOUBLE_EQ(s->mean, 50.5);
    EXPECT_NEAR(s->p50, 50.5, 1.0);
    EXPECT_NEAR(s->p95, 95.0, 1.5);
}

TEST_F(ObsTest, ValueStatsEmptyHistogram) {
    // A histogram nobody recorded into does not exist at all — nullopt, not
    // a zero-filled stats block.
    EXPECT_FALSE(obs::value_stats("never_recorded").has_value());
    obs::record_value("v", 1.0);
    obs::reset();
    EXPECT_FALSE(obs::value_stats("v").has_value());
}

TEST_F(ObsTest, ValueStatsSingleSample) {
    obs::record_value("one", 42.5);
    const auto s = obs::value_stats("one");
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->count, 1u);
    EXPECT_DOUBLE_EQ(s->min, 42.5);
    EXPECT_DOUBLE_EQ(s->max, 42.5);
    EXPECT_DOUBLE_EQ(s->mean, 42.5);
    // Every percentile of a one-sample distribution is that sample.
    EXPECT_DOUBLE_EQ(s->p50, 42.5);
    EXPECT_DOUBLE_EQ(s->p95, 42.5);
}

TEST_F(ObsTest, ValueStatsAllEqualSamples) {
    for (int i = 0; i < 1000; ++i) obs::record_value("flat", -3.25);
    const auto s = obs::value_stats("flat");
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->count, 1000u);
    EXPECT_DOUBLE_EQ(s->min, -3.25);
    EXPECT_DOUBLE_EQ(s->max, -3.25);
    EXPECT_DOUBLE_EQ(s->mean, -3.25);
    EXPECT_DOUBLE_EQ(s->p50, -3.25);
    EXPECT_DOUBLE_EQ(s->p95, -3.25);
}

TEST_F(ObsTest, NestedScopedTimersFormTree) {
    {
        obs::ScopedTimer flow(obs::Phase("flow/substrate_extract"));
        { obs::ScopedTimer lu(obs::Phase("numeric/lu_factor")); }
        { obs::ScopedTimer lu(obs::Phase("numeric/lu_factor")); }
        { obs::ScopedTimer solve(obs::Phase("numeric/lu_solve")); }
    }
    { obs::ScopedTimer flow(obs::Phase("flow/stitch")); }

    EXPECT_EQ(obs::phase_calls("flow/substrate_extract"), 1u);
    EXPECT_EQ(obs::phase_calls("flow/stitch"), 1u);
    EXPECT_EQ(obs::phase_calls("numeric/lu_factor"), 2u);
    EXPECT_EQ(obs::phase_calls("numeric/lu_solve"), 1u);

    // Parent inclusive time covers the nested children.
    EXPECT_GE(obs::phase_seconds("flow/substrate_extract"),
              obs::phase_seconds("numeric/lu_factor") +
                  obs::phase_seconds("numeric/lu_solve"));

    const obs::PhaseNode tree = obs::phase_tree();
    const auto* flow = child_named(tree, "flow");
    ASSERT_NE(flow, nullptr);
    EXPECT_EQ(flow->calls, 0u); // structural interior node
    ASSERT_NE(child_named(*flow, "substrate_extract"), nullptr);
    ASSERT_NE(child_named(*flow, "stitch"), nullptr);
    EXPECT_EQ(child_named(*flow, "substrate_extract")->calls, 1u);
    EXPECT_EQ(child_named(*flow, "substrate_extract")->path, "flow/substrate_extract");

    const auto* numeric = child_named(tree, "numeric");
    ASSERT_NE(numeric, nullptr);
    ASSERT_NE(child_named(*numeric, "lu_factor"), nullptr);
    EXPECT_EQ(child_named(*numeric, "lu_factor")->calls, 2u);
}

TEST_F(ObsTest, ScopedTimerStopIsIdempotent) {
    obs::ScopedTimer t(obs::Phase("phase/x"), obs::Timing::Always);
    const double first = t.stop();
    EXPECT_GE(first, 0.0);
    EXPECT_DOUBLE_EQ(t.stop(), first); // second stop reports the same time
    EXPECT_EQ(obs::phase_calls("phase/x"), 1u); // destructor must not re-record
}

TEST_F(ObsTest, AlwaysTimingMeasuresWhenDisabled) {
    obs::set_enabled(false);
    obs::ScopedTimer t(obs::Phase("phase/always"), obs::Timing::Always);
    // Burn a little time so elapsed() is strictly positive.
    volatile double sink = 0.0;
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<double>(i);
    EXPECT_GT(t.stop(), 0.0);
    EXPECT_EQ(obs::phase_calls("phase/always"), 0u); // measured but not recorded
}

TEST_F(ObsTest, DisabledModeRecordsNothing) {
    obs::set_enabled(false);
    obs::count("dead/counter", 7);
    obs::record_value("dead/value", 1.0);
    { obs::ScopedTimer t(obs::Phase("dead/phase")); }
    EXPECT_EQ(obs::counter_value("dead/counter"), 0u);
    EXPECT_FALSE(obs::value_stats("dead/value").has_value());
    EXPECT_EQ(obs::phase_calls("dead/phase"), 0u);
    EXPECT_TRUE(obs::phase_tree().children.empty());
}

TEST_F(ObsTest, ResetClearsEverything) {
    obs::count("c");
    obs::record_value("v", 1.0);
    { obs::ScopedTimer t(obs::Phase("p")); }
    obs::reset();
    EXPECT_EQ(obs::counter_value("c"), 0u);
    EXPECT_FALSE(obs::value_stats("v").has_value());
    EXPECT_EQ(obs::phase_calls("p"), 0u);
}

TEST_F(ObsTest, JsonReportRoundTrips) {
    obs::count("sim/transient/steps", 42);
    obs::record_value("numeric/lu_fill_nnz", 128.0);
    obs::record_value("numeric/lu_fill_nnz", 256.0);
    {
        obs::ScopedTimer outer(obs::Phase("flow/substrate_extract"));
        obs::ScopedTimer inner(obs::Phase("numeric/lu_factor"));
    }

    const std::string doc = obs::report_json().dump(2);
    const obs::Json parsed = obs::Json::parse(doc); // throws on malformed output

    ASSERT_TRUE(parsed.contains("phases"));
    ASSERT_TRUE(parsed.contains("counters"));
    ASSERT_TRUE(parsed.contains("values"));
    EXPECT_EQ(parsed.at("counters").at("sim/transient/steps").as_number(), 42.0);
    EXPECT_EQ(parsed.at("phases_flat").at("numeric/lu_factor").at("calls").as_number(),
              1.0);
    const auto& fill = parsed.at("values").at("numeric/lu_fill_nnz");
    EXPECT_EQ(fill.at("count").as_number(), 2.0);
    EXPECT_EQ(fill.at("mean").as_number(), 192.0);

    // Dense single-line form parses identically.
    const obs::Json reparsed = obs::Json::parse(obs::report_json().dump(-1));
    EXPECT_EQ(reparsed.at("counters").at("sim/transient/steps").as_number(), 42.0);
}

TEST_F(ObsTest, TextReportListsPhasesAndCounters) {
    obs::count("sim/transient/steps", 3);
    { obs::ScopedTimer t(obs::Phase("flow/substrate_extract")); }
    const std::string text = obs::report_text();
    EXPECT_NE(text.find("substrate_extract"), std::string::npos);
    EXPECT_NE(text.find("sim/transient/steps"), std::string::npos);
}

TEST(ObsJsonTest, ParsesScalarsContainersAndEscapes) {
    const obs::Json j = obs::Json::parse(
        R"({"a": [1, 2.5, -3e2, true, false, null], "s": "he\"llo\nA", "o": {}})");
    ASSERT_TRUE(j.is_object());
    const auto& arr = j.at("a").as_array();
    ASSERT_EQ(arr.size(), 6u);
    EXPECT_DOUBLE_EQ(arr[0].as_number(), 1.0);
    EXPECT_DOUBLE_EQ(arr[1].as_number(), 2.5);
    EXPECT_DOUBLE_EQ(arr[2].as_number(), -300.0);
    EXPECT_TRUE(arr[3].as_bool());
    EXPECT_FALSE(arr[4].as_bool());
    EXPECT_TRUE(arr[5].is_null());
    EXPECT_EQ(j.at("s").as_string(), "he\"llo\nA");
    EXPECT_TRUE(j.at("o").is_object());
}

TEST(ObsJsonTest, RejectsMalformedInput) {
    EXPECT_THROW(obs::Json::parse("{"), Error);
    EXPECT_THROW(obs::Json::parse("[1, ]"), Error);
    EXPECT_THROW(obs::Json::parse("\"unterminated"), Error);
    EXPECT_THROW(obs::Json::parse("{} trailing"), Error);
    EXPECT_THROW(obs::Json::parse("nul"), Error);
}

TEST(ObsJsonTest, QuoteEscapesControlCharacters) {
    EXPECT_EQ(obs::json_quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    const obs::Json round = obs::Json::parse(obs::json_quote(std::string("\x01\t ok")));
    EXPECT_EQ(round.as_string(), "\x01\t ok");
}

TEST(ObsLogTest, SinkCapturesFormattedMessages) {
    std::vector<std::pair<LogLevel, std::string>> captured;
    LogSink prev = set_log_sink([&](LogLevel level, std::string_view msg) {
        captured.emplace_back(level, std::string(msg));
    });
    const LogLevel prev_level = log_level();
    set_log_level(LogLevel::Debug);

    const size_t warns_before = log_emit_count(LogLevel::Warn);
    log_warn("pivot %d fell back to %s", 3, "partial");
    log_info("mesh has %d nodes", 42);
    set_log_level(LogLevel::Quiet);
    log_warn("suppressed");

    set_log_level(prev_level);
    set_log_sink(std::move(prev));

    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[0].first, LogLevel::Warn);
    EXPECT_EQ(captured[0].second, "pivot 3 fell back to partial");
    EXPECT_EQ(captured[1].first, LogLevel::Info);
    EXPECT_EQ(captured[1].second, "mesh has 42 nodes");
    // Suppressed messages are neither sunk nor counted.
    EXPECT_EQ(log_emit_count(LogLevel::Warn), warns_before + 1);
}

TEST(ObsIntegrationTest, SparseLuRecordsFactorAndFillIn) {
    obs::reset();
    obs::set_enabled(true);
    // A small SPD-ish system exercises factor + solve.
    Triplets<double> t(4);
    for (size_t i = 0; i < 4; ++i) t.add(i, i, 4.0);
    t.add(0, 1, 1.0);
    t.add(1, 0, 1.0);
    t.add(2, 3, 1.0);
    t.add(3, 2, 1.0);
    SparseLU<double> lu(t);
    lu.solve({1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(obs::phase_calls("numeric/lu_factor"), 1u);
    EXPECT_EQ(obs::phase_calls("numeric/lu_solve"), 1u);
    const auto fill = obs::value_stats("numeric/lu_fill_nnz");
    ASSERT_TRUE(fill.has_value());
    EXPECT_EQ(fill->count, 1u);
    EXPECT_DOUBLE_EQ(fill->max, static_cast<double>(lu.nnz()));
    obs::set_enabled(false);
    obs::reset();
}

namespace {

/// FNV-1a over the recorded contents of the registry, in snapshot order:
/// every counter; each histogram's count, sum, min, max, mean, p50 and p95;
/// every time-series sample with its unit, offered count and stride; and
/// every phase's call count.  Wall seconds and RSS are left out, so the
/// digest pins what was recorded, not how long it took.
uint64_t registry_digest() {
    uint64_t h = 0xcbf29ce484222325ull;
    auto bytes = [&h](const void* p, size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    };
    auto str = [&](const std::string& s) {
        const uint64_t n = s.size();
        bytes(&n, sizeof n);
        bytes(s.data(), s.size());
    };
    auto num = [&](auto v) { bytes(&v, sizeof v); };
    for (const auto& [name, v] : obs::counters_snapshot()) {
        str(name);
        num(v);
    }
    for (const auto& [name, s] : obs::values_snapshot()) {
        str(name);
        num(s.count);
        for (const double d : {s.sum, s.min, s.max, s.mean, s.p50, s.p95}) num(d);
    }
    for (const auto& ts : obs::ts_snapshot()) {
        str(ts.name);
        str(ts.unit);
        num(ts.offered);
        num(ts.stride);
        num(static_cast<uint64_t>(ts.time.size()));
        bytes(ts.time.data(), ts.time.size() * sizeof(double));
        bytes(ts.value.data(), ts.value.size() * sizeof(double));
    }
    for (const auto& [name, p] : obs::phases_snapshot()) {
        str(name);
        num(p.calls);
    }
    return h;
}

} // namespace

TEST_F(ObsTest, VcoCaptureRecordsFrozenRegistryContents) {
    // Golden registry contents of the nominal VCO model build plus the
    // first calibration capture's quarter window (the run that
    // AssemblyTest.DefaultEngineMatchesFrozenWaveformDigests pins): 6,750
    // transient steps overflow the 4,096-sample histogram reservoirs and
    // decimate every per-step channel, so the digest also pins the
    // reservoir LCG, the decimation and the order ops reach the registry.
    // A change that moves it must re-freeze it and say why.
    //
    // The run records with the registry, the event journal and phase-stack
    // tracking all on, and its waveform must still be the one the assembly
    // test freezes with all three off: instrumentation changes no result.
    obs::set_events_active(true);
    obs::phase_stack::set_enabled(true);
    auto vco = testcases::build_model(testcases::build_vco(),
                                      testcases::vco_flow_options());
    const rf::OscOptions osc = testcases::vco_osc_options();
    const auto res = sim::transient(
        vco.netlist, {osc.probe_p, osc.probe_n},
        sim::vco_capture_options(osc.settle / 4.0, osc.capture / 4.0));
    EXPECT_EQ(sim::waveform_digest(res), sim::kVcoQuarterWindowDigest);

    const auto steps = obs::value_stats("sim/transient/newton_per_step");
    ASSERT_TRUE(steps.has_value());
    EXPECT_GT(steps->count, 4096u); // the reservoir overflowed
    const auto dt = obs::ts_get("sim/transient/dt");
    ASSERT_TRUE(dt.has_value());
    EXPECT_GT(dt->stride, 1u); // the channel decimated
    EXPECT_EQ(registry_digest(), 0xae2250c06cd116b9ull);
}
