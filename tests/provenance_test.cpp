// Run provenance, resource attribution and the cross-run comparison engine:
// config digests (order independence, sensitivity to every option), manifest
// round-trips, the run ledger, snim_report's diff verdicts, per-phase RSS
// attribution and the shared JSON escaping rules.  Own binary: some tests
// assert on the global registry and the process-wide current manifest.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "core/impact_flow.hpp"
#include "obs/bench.hpp"
#include "obs/compare.hpp"
#include "obs/json.hpp"
#include "obs/provenance.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/resources.hpp"
#include "obs/run_ledger.hpp"
#include "obs/trace.hpp"
#include "sim/diagnostics.hpp"
#include "util/strings.hpp"

using namespace snim;

namespace {

class ProvenanceTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::clear_current_manifest();
        obs::reset();
        obs::set_enabled(false);
    }
    void TearDown() override {
        obs::clear_current_manifest();
        obs::reset();
        obs::set_enabled(false);
        obs::set_bundle_dir("");
    }
};

std::string temp_dir(const std::string& tag) {
    const std::string path =
        std::filesystem::temp_directory_path() /
        ("snim_prov_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
}

// --- config digest --------------------------------------------------------

TEST_F(ProvenanceTest, DigestIsFieldOrderIndependent) {
    obs::ConfigDigest a;
    a.add("x", 1.5);
    a.add("y", true);
    a.add("z", "hello");
    obs::ConfigDigest b;
    b.add("z", "hello");
    b.add("x", 1.5);
    b.add("y", true);
    EXPECT_EQ(a.value64(), b.value64());
    EXPECT_EQ(a.hex(), b.hex());
    EXPECT_EQ(a.hex().size(), 16u);
}

TEST_F(ProvenanceTest, DigestChangesOnValueFieldNameOrExtraField) {
    obs::ConfigDigest base;
    base.add("x", 1.5);
    base.add("y", true);

    obs::ConfigDigest value_changed;
    value_changed.add("x", 1.5000001);
    value_changed.add("y", true);
    EXPECT_NE(base.value64(), value_changed.value64());

    obs::ConfigDigest renamed;
    renamed.add("x2", 1.5);
    renamed.add("y", true);
    EXPECT_NE(base.value64(), renamed.value64());

    obs::ConfigDigest extra = base;
    extra.add("w", 0);
    EXPECT_NE(base.value64(), extra.value64());
}

TEST_F(ProvenanceTest, DigestSeparatesNameValueBoundary) {
    // ("ab", "c") must not collide with ("a", "bc").
    obs::ConfigDigest a, b;
    a.add("ab", "c");
    b.add("a", "bc");
    EXPECT_NE(a.value64(), b.value64());
}

TEST_F(ProvenanceTest, TranOptionsDigestSeesEveryPerturbedField) {
    const auto digest_of = [](const sim::TranOptions& o) {
        obs::ConfigDigest d;
        sim::digest_options(d, o);
        return d.value64();
    };
    sim::TranOptions base;
    const uint64_t h0 = digest_of(base);

    sim::TranOptions o = base;
    o.reltol *= 2.0;
    EXPECT_NE(digest_of(o), h0);
    o = base;
    o.order = 1;
    EXPECT_NE(digest_of(o), h0);
    o = base;
    o.record_start = 1e-9;
    EXPECT_NE(digest_of(o), h0);
    o = base;
    o.certify.rcond_min = 0.0;
    EXPECT_NE(digest_of(o), h0);
    // And stability: the same options digest identically.
    EXPECT_EQ(digest_of(base), h0);
}

TEST_F(ProvenanceTest, OpAndFlowAndBenchDigestsReactToChanges) {
    const auto op_digest = [](const sim::OpOptions& o) {
        obs::ConfigDigest d;
        sim::digest_options(d, o);
        return d.value64();
    };
    sim::OpOptions op;
    const uint64_t oh = op_digest(op);
    op.max_iter += 1;
    EXPECT_NE(op_digest(op), oh);

    const auto flow_digest = [](const core::FlowOptions& o) {
        obs::ConfigDigest d;
        core::digest_options(d, o);
        return d.value64();
    };
    core::FlowOptions flow;
    const uint64_t fh = flow_digest(flow);
    flow.substrate.mesh.fine_pitch *= 2.0;
    EXPECT_NE(flow_digest(flow), fh);
    flow = core::FlowOptions{};
    flow.interconnect.extract_resistance = false;
    EXPECT_NE(flow_digest(flow), fh);
    flow = core::FlowOptions{};
    flow.substrate.mesh.z_steps.push_back(1.0);
    EXPECT_NE(flow_digest(flow), fh);

    obs::BenchOptions bench;
    const uint64_t bh = obs::bench_config_digest(bench).value64();
    bench.seed += 1;
    EXPECT_NE(obs::bench_config_digest(bench).value64(), bh);
    bench = obs::BenchOptions{};
    bench.quick = true;
    EXPECT_NE(obs::bench_config_digest(bench).value64(), bh);
    // Threads are environment, not configuration.
    bench = obs::BenchOptions{};
    bench.threads = 7;
    EXPECT_EQ(obs::bench_config_digest(bench).value64(), bh);
}

// --- manifests ------------------------------------------------------------

TEST_F(ProvenanceTest, ManifestRoundTripsThroughJson) {
    obs::ConfigDigest d;
    d.add("k", 42);
    const obs::RunManifest m = obs::make_run_manifest("unit_test", d, 1234u, 3);
    EXPECT_FALSE(m.run_id.empty());
    EXPECT_EQ(m.config_digest, d.hex());
    EXPECT_FALSE(m.created_utc.empty());

    const obs::RunManifest r = obs::manifest_from_json(obs::manifest_json(m));
    EXPECT_EQ(r.run_id, m.run_id);
    EXPECT_EQ(r.tool, "unit_test");
    EXPECT_EQ(r.config_digest, m.config_digest);
    EXPECT_EQ(r.seed, 1234u);
    EXPECT_EQ(r.threads, 3);
    EXPECT_EQ(r.build_type, m.build_type);
    EXPECT_EQ(r.compiler, m.compiler);
    EXPECT_EQ(r.obs_enabled, m.obs_enabled);
    EXPECT_EQ(r.faults_enabled, m.faults_enabled);
    EXPECT_EQ(r.hostname, m.hostname);
    EXPECT_EQ(r.os, m.os);
    EXPECT_EQ(r.created_utc, m.created_utc);
}

TEST_F(ProvenanceTest, RunIdsAreUniqueAndEnsureAdoptsTheFirstManifest) {
    obs::ConfigDigest d;
    d.add("k", 1);
    const auto a = obs::make_run_manifest("t", d, 0, 1);
    const auto b = obs::make_run_manifest("t", d, 0, 1);
    EXPECT_NE(a.run_id, b.run_id);

    EXPECT_FALSE(obs::current_manifest().has_value());
    const auto first = obs::ensure_current_manifest("outer", d, 7, 2);
    // A nested entry point must adopt the outer identity, not replace it.
    const auto second = obs::ensure_current_manifest("inner", d, 9, 4);
    EXPECT_EQ(second.run_id, first.run_id);
    EXPECT_EQ(second.tool, "outer");
    ASSERT_TRUE(obs::current_manifest().has_value());
    EXPECT_EQ(obs::current_manifest()->seed, 7u);
}

TEST_F(ProvenanceTest, BenchReportIsSchema2WithManifest) {
    obs::ScenarioResult r;
    r.name = "synthetic";
    r.kind = "kernel";
    r.runtime = obs::runtime_stats({0.25, 0.5, 0.75});
    r.peak_rss_bytes = 123u << 20;
    const obs::Json doc = obs::bench_report_json({r}, obs::BenchOptions{});
    EXPECT_EQ(static_cast<int>(doc.at("schema_version").as_number()),
              obs::kBenchSchemaVersion);
    EXPECT_GE(obs::kBenchSchemaVersion, 2);
    ASSERT_TRUE(doc.contains("manifest"));
    const auto m = obs::manifest_from_json(doc.at("manifest"));
    EXPECT_EQ(m.config_digest,
              obs::bench_config_digest(obs::BenchOptions{}).hex());
    const auto& s = doc.at("scenarios").as_array().at(0);
    EXPECT_DOUBLE_EQ(s.at("peak_rss_bytes").as_number(),
                     static_cast<double>(123u << 20));
}

// --- JSON escaping --------------------------------------------------------

TEST_F(ProvenanceTest, JsonWritersEscapeControlCharsAndNonFiniteDoubles) {
    EXPECT_EQ(obs::json_number(std::nan("")), "null");
    EXPECT_EQ(obs::json_number(INFINITY), "null");
    EXPECT_EQ(obs::json_number(-INFINITY), "null");
    EXPECT_EQ(obs::json_number(3.0), "3");

    obs::JsonObject o;
    o.emplace("ctrl", std::string("a\x01" "b\nc"));
    o.emplace("nan", std::nan(""));
    o.emplace("inf", INFINITY);
    const std::string text = obs::Json(std::move(o)).dump(-1);
    EXPECT_NE(text.find("\\u0001"), std::string::npos);
    // Non-finite doubles must serialise as null, never as a bare token.
    EXPECT_EQ(obs::Json(std::nan("")).dump(-1), "null");
    EXPECT_EQ(obs::Json(INFINITY).dump(-1), "null");

    // Round trip: the parser restores the control character, non-finite
    // values come back as JSON null.
    const obs::Json back = obs::Json::parse(text);
    EXPECT_EQ(back.at("ctrl").as_string(), "a\x01" "b\nc");
    EXPECT_TRUE(back.at("nan").is_null());
}

// --- resource sampling and per-phase RSS ----------------------------------

TEST_F(ProvenanceTest, ResourceSamplingIsMonotoneAndPhaseRssIsAttributed) {
    const obs::ResourceSample s0 = obs::sample_resources();
    EXPECT_GT(s0.rss_bytes, 0u);
    EXPECT_GE(s0.peak_rss_bytes, s0.rss_bytes / 2); // HWM can lag slightly

    obs::set_enabled(true);
    {
        obs::ScopedTimer t(obs::Phase("prov/alloc"), obs::Timing::WhenEnabled,
                           obs::Rss::Track);
        // Touch 32 MB so RSS genuinely grows inside the phase.
        std::vector<char> block(32u << 20);
        for (size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
        const obs::ResourceSample s1 = obs::sample_resources();
        EXPECT_GE(s1.peak_rss_bytes, s0.peak_rss_bytes);
    }
    obs::set_enabled(false);

    bool found = false;
    for (const auto& [name, stats] : obs::phases_snapshot()) {
        if (name != "prov/alloc") continue;
        found = true;
        EXPECT_EQ(stats.rss_samples, 1u);
        EXPECT_GT(stats.rss_peak_bytes, 0u);
    }
    EXPECT_TRUE(found);
}

// --- run ledger -----------------------------------------------------------

obs::Json synthetic_report(double median_s, double delta_db, bool with_rss,
                           const std::string& digest) {
    const std::string rss =
        with_rss ? ",\"peak_rss_bytes\": 104857600" : "";
    return obs::Json::parse(format(
        R"({"schema_version": 2, "tool": "snim_bench",
            "manifest": {"run_id": "r1", "tool": "snim_bench",
                         "config_digest": "%s", "seed": 1, "threads": 1,
                         "created_utc": "2026-01-01T00:00:00Z"},
            "scenarios": [
              {"name": "scen_a", "kind": "kernel",
               "runtime": {"median_s": %.17g, "min_s": %.17g},
               "accuracy": [{"name": "m", "reference": "ref.csv",
                             "delta_db": %.17g, "tolerance_db": 2.0,
                             "points": 10, "pass": %s}],
               "registry": {"counters": {"sim/newton_iters": 100,
                                         "bench/other": 5},
                            "phases": [{"name": "sim", "path": "sim",
                                        "calls": 1, "seconds": %.17g}],
                            "timeseries": {"sim/residual": {"offered": 40}}}%s}
            ]})",
        digest.c_str(), median_s, median_s * 0.9, delta_db,
        delta_db <= 2.0 ? "true" : "false", median_s, rss.c_str()));
}

TEST_F(ProvenanceTest, LedgerRoundTripsAndFiltersCounters) {
    const std::string dir = temp_dir("ledger");
    const std::string path = dir + "/ledger.jsonl";

    const obs::Json entry =
        obs::ledger_entry_from_report(synthetic_report(1.0, 0.5, true, "d1"));
    obs::append_ledger(path, entry);
    obs::append_ledger(
        path, obs::ledger_entry_from_report(synthetic_report(2.0, 0.5, true, "d1")));

    const auto entries = obs::read_ledger(path);
    ASSERT_EQ(entries.size(), 2u);
    const auto& s = entries[0].at("scenarios").as_array().at(0);
    EXPECT_EQ(s.at("name").as_string(), "scen_a");
    EXPECT_DOUBLE_EQ(s.at("median_s").as_number(), 1.0);
    EXPECT_TRUE(s.at("accuracy_pass").as_bool());
    // Counter filter: solver-effort counters stay, others are dropped.
    EXPECT_TRUE(s.at("counters").contains("sim/newton_iters"));
    EXPECT_FALSE(s.at("counters").contains("bench/other"));
    EXPECT_TRUE(entries[0].contains("manifest"));

    const std::string trend = obs::trend_text(entries);
    EXPECT_NE(trend.find("scen_a"), std::string::npos);
    EXPECT_NE(trend.find("2 runs"), std::string::npos);
    const std::string html = obs::trend_html(entries);
    EXPECT_NE(html.find("<html>"), std::string::npos);
    EXPECT_NE(html.find("scen_a"), std::string::npos);

    std::filesystem::remove_all(dir);
}

// --- diff verdicts --------------------------------------------------------

TEST_F(ProvenanceTest, IdenticalReportsDiffClean) {
    const obs::Json a = synthetic_report(1.0, 0.5, true, "d1");
    const auto d = obs::diff_reports(a, a);
    EXPECT_TRUE(d.digests_known);
    EXPECT_TRUE(d.digests_match);
    EXPECT_FALSE(obs::diff_has_regression(d));
    for (const auto& m : d.metrics) EXPECT_EQ(m.verdict, obs::DiffVerdict::Equal);
}

TEST_F(ProvenanceTest, DoubledRuntimeRegressesAndRanksFirst) {
    const auto d = obs::diff_reports(synthetic_report(1.0, 0.5, true, "d1"),
                                     synthetic_report(2.0, 0.5, true, "d1"));
    EXPECT_TRUE(obs::diff_has_regression(d));
    ASSERT_FALSE(d.metrics.empty());
    EXPECT_EQ(d.metrics.front().verdict, obs::DiffVerdict::Regress);
    EXPECT_EQ(d.metrics.front().metric, "runtime/median_s");
    EXPECT_NEAR(d.metrics.front().change_pct, 100.0, 1e-9);
    const std::string table = obs::diff_table(d);
    EXPECT_NE(table.find("REGRESS"), std::string::npos);
    EXPECT_NE(table.find("runtime/median_s"), std::string::npos);
}

TEST_F(ProvenanceTest, RuntimeWithinToleranceIsNotARegression) {
    const auto d = obs::diff_reports(synthetic_report(1.0, 0.5, true, "d1"),
                                     synthetic_report(1.1, 0.5, true, "d1"));
    EXPECT_FALSE(obs::diff_has_regression(d)); // +10% < default 25%
}

TEST_F(ProvenanceTest, HalvedRuntimeIsAnImprovement) {
    const auto d = obs::diff_reports(synthetic_report(2.0, 0.5, true, "d1"),
                                     synthetic_report(1.0, 0.5, true, "d1"));
    EXPECT_FALSE(obs::diff_has_regression(d));
    bool improved = false;
    for (const auto& m : d.metrics)
        if (m.metric == "runtime/median_s")
            improved = m.verdict == obs::DiffVerdict::Improve;
    EXPECT_TRUE(improved);
}

TEST_F(ProvenanceTest, AccuracyGateFlipRegressesRegardlessOfTolerance) {
    // 0.5 dB -> 2.5 dB crosses the scenario's 2.0 dB gate: pass -> fail.
    const auto d = obs::diff_reports(synthetic_report(1.0, 0.5, true, "d1"),
                                     synthetic_report(1.0, 2.5, true, "d1"));
    EXPECT_TRUE(obs::diff_has_regression(d));
    bool flagged = false;
    for (const auto& m : d.metrics)
        if (m.metric == "accuracy/m" && m.verdict == obs::DiffVerdict::Regress)
            flagged = true;
    EXPECT_TRUE(flagged);
}

TEST_F(ProvenanceTest, MissingAndNewScenariosAreFlaggedNotRegressed) {
    obs::Json a = synthetic_report(1.0, 0.5, true, "d1");
    obs::Json b = synthetic_report(1.0, 0.5, true, "d1");
    auto& scen_b = b.as_object().at("scenarios").as_array();
    scen_b.at(0).as_object().at("name") = obs::Json(std::string("scen_b"));
    const auto d = obs::diff_reports(a, b);
    ASSERT_EQ(d.only_in_a.size(), 1u);
    ASSERT_EQ(d.only_in_b.size(), 1u);
    EXPECT_EQ(d.only_in_a[0], "scen_a");
    EXPECT_EQ(d.only_in_b[0], "scen_b");
    EXPECT_FALSE(obs::diff_has_regression(d));
}

TEST_F(ProvenanceTest, DifferentDigestsAreReportedNotLikeForLike) {
    const auto d = obs::diff_reports(synthetic_report(1.0, 0.5, true, "d1"),
                                     synthetic_report(1.0, 0.5, true, "d2"));
    EXPECT_TRUE(d.digests_known);
    EXPECT_FALSE(d.digests_match);
    EXPECT_NE(obs::diff_table(d).find("DIFFERENT configuration"),
              std::string::npos);
}

TEST_F(ProvenanceTest, Schema1ReportsStillDiff) {
    obs::Json a = synthetic_report(1.0, 0.5, false, "d1");
    a.as_object().erase("manifest");
    a.as_object().at("schema_version") = obs::Json(1);
    const auto d = obs::diff_reports(a, a);
    EXPECT_FALSE(d.digests_known);
    EXPECT_EQ(d.schema_a, 1);
    EXPECT_FALSE(obs::diff_has_regression(d));
}

TEST_F(ProvenanceTest, SparklineAndShowReport) {
    EXPECT_EQ(obs::sparkline({}), "");
    EXPECT_FALSE(obs::sparkline({1.0, 2.0, 3.0}).empty());
    const std::string shown = obs::show_report(synthetic_report(1.0, 0.5, true, "d1"));
    EXPECT_NE(shown.find("scen_a"), std::string::npos);
    EXPECT_NE(shown.find("d1"), std::string::npos);
}

// --- diag bundle naming ---------------------------------------------------

TEST_F(ProvenanceTest, ConcurrentDiagBundlesGetUniquePaths) {
    const std::string dir = temp_dir("diag");
    obs::set_bundle_dir(dir);
    constexpr int kWriters = 8;
    std::vector<std::string> paths(kWriters);
    {
        std::vector<std::thread> writers;
        for (int i = 0; i < kWriters; ++i)
            writers.emplace_back([&, i] {
                sim::FailureDiagnosis d;
                d.engine = "transient";
                d.reason = "unit_test";
                paths[static_cast<size_t>(i)] = sim::write_diagnosis_bundle(d);
            });
        for (auto& w : writers) w.join();
    }
    std::set<std::string> unique;
    for (const auto& p : paths) {
        EXPECT_FALSE(p.empty());
        unique.insert(p);
        EXPECT_TRUE(std::filesystem::exists(p)) << p;
        EXPECT_EQ(std::filesystem::path(p).parent_path(), std::filesystem::path(dir))
            << p;
    }
    EXPECT_EQ(unique.size(), static_cast<size_t>(kWriters));
    std::filesystem::remove_all(dir);
}

TEST_F(ProvenanceTest, DiagBundleFilenameCarriesRunIdAndManifest) {
    const std::string dir = temp_dir("diag_id");
    obs::set_bundle_dir(dir);
    obs::ConfigDigest cd;
    cd.add("k", 1);
    obs::set_current_manifest(obs::make_run_manifest("unit", cd, 0, 1));
    const std::string run_id = obs::current_manifest()->run_id;

    sim::FailureDiagnosis d;
    d.engine = "op";
    d.reason = "unit_test";
    const std::string path = sim::write_diagnosis_bundle(d);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(std::filesystem::path(path).filename().string().rfind(
                  "snim_diag_op_" + run_id + "_", 0),
              0u)
        << path;

    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const obs::Json doc = obs::Json::parse(buf.str());
    ASSERT_TRUE(doc.contains("manifest"));
    EXPECT_EQ(doc.at("manifest").at("run_id").as_string(), run_id);
    std::filesystem::remove_all(dir);
}

} // namespace
