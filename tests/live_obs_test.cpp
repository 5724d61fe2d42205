// Live-run telemetry suite: the structured event journal (ring overwrite
// and torn-record semantics), heartbeat cadence under a fake clock, the
// hang watchdog driven by a real fault-injected slow transient step and its
// SNIM_WATCHDOG spec parser, the one bundle writer shared by hang and
// failure bundles, the folded-stack sampling profiler, and the crash
// last-gasp handler (smoke tested in a forked child so the death is real
// but contained).  Runs as its own binary: the journal, progress counters,
// phase stacks and signal dispositions are all process-global.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/lastgasp.hpp"
#include "obs/phasestack.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"
#include "obs/provenance.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "sim/op.hpp"
#include "sim/transient.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

using namespace snim;

namespace {

class LiveObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        fault::clear();
        obs::reset();
        obs::set_enabled(false);
        obs::reset_events_for_test();
        obs::reset_progress_for_test();
        obs::reset_profiler();
        obs::set_events_active(true);
        obs::set_heartbeat_interval(1.0);
        obs::set_bundle_dir(::testing::TempDir());
    }
    void TearDown() override {
        obs::stop_watchdog();
        obs::stop_profiler();
        obs::phase_stack::set_enabled(false);
        obs::set_heartbeat_clock(nullptr);
        obs::set_heartbeat_observer({});
        obs::close_event_stream();
        obs::set_events_active(false);
        obs::reset_events_for_test();
        obs::reset_progress_for_test();
        fault::clear();
        fault::set_slow_step_seconds(0.25);
        obs::set_bundle_dir("");
        obs::clear_current_manifest();
    }
};

circuit::Netlist sine_rc_netlist() {
    circuit::Netlist nl;
    nl.add<circuit::VSource>("vin", nl.node("in"), circuit::kGround,
                             circuit::Waveform::sin(0.0, 1.0, 50e6));
    nl.add<circuit::Resistor>("r1", nl.node("in"), nl.node("out"), 1e3);
    nl.add<circuit::Capacitor>("c1", nl.node("out"), circuit::kGround, 1e-12);
    return nl;
}

sim::TranOptions sine_options() {
    sim::TranOptions opt;
    opt.dt = 1e-9;
    opt.tstop = 50e-9;
    return opt;
}

obs::Json read_json(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return obs::Json::parse(buf.str());
}

/// The journal's watchdog "hang" event names the bundle it wrote.
std::string hang_bundle_from_journal() {
    for (const auto& line : obs::event_tail()) {
        const obs::Json e = obs::Json::parse(line);
        if (e.at("comp").as_string() == "watchdog" && e.at("code").as_string() == "hang")
            return e.at("kv").at("bundle").as_string();
    }
    return {};
}

/// Runs the sine transient with one fault-injected slow step that sleeps
/// `sleep_s`, under a watchdog with the given budgets.
void run_with_slow_step(double stall_s, double hang_s, double sleep_s) {
    fault::arm({.point = "tran.slow_step", .at = 20, .count = 1});
    fault::set_slow_step_seconds(sleep_s);
    obs::WatchdogOptions wd;
    wd.stall_s = stall_s;
    wd.hang_s = hang_s;
    obs::start_watchdog(wd);
    auto nl = sine_rc_netlist();
    const auto res = sim::transient(nl, {"out"}, sine_options());
    EXPECT_EQ(res.time.size(), 50u);
}

} // namespace

// --- event journal --------------------------------------------------------

TEST_F(LiveObsTest, EventRecordsAreParseableJsonWithStableFields) {
    obs::event(obs::EventLevel::Warn, "test", "unit",
               {{"num", 2.5}, {"str", "hello"}, {"yes", true}, {"count", 7}});
    const auto tail = obs::event_tail();
    ASSERT_EQ(tail.size(), 1u);
    const obs::Json e = obs::Json::parse(tail[0]);
    EXPECT_EQ(e.at("seq").as_number(), 1.0);
    EXPECT_GE(e.at("ts").as_number(), 0.0);
    EXPECT_EQ(e.at("lvl").as_string(), "warn");
    EXPECT_EQ(e.at("comp").as_string(), "test");
    EXPECT_EQ(e.at("code").as_string(), "unit");
    EXPECT_EQ(e.at("kv").at("num").as_number(), 2.5);
    EXPECT_EQ(e.at("kv").at("str").as_string(), "hello");
    EXPECT_TRUE(e.at("kv").at("yes").as_bool());
    EXPECT_EQ(e.at("kv").at("count").as_number(), 7.0);
}

TEST_F(LiveObsTest, RingOverwritesOldestAndKeepsSequenceNumbers) {
    const size_t total = obs::kEventRingSlots + 100;
    for (size_t i = 0; i < total; ++i)
        obs::event(obs::EventLevel::Info, "test", "flood", {{"i", i}});
    EXPECT_EQ(obs::event_count(), total);

    const auto tail = obs::event_tail();
    ASSERT_EQ(tail.size(), obs::kEventRingSlots);
    // Oldest surviving record is exactly total - slots + 1; newest is total.
    const obs::Json first = obs::Json::parse(tail.front());
    const obs::Json last = obs::Json::parse(tail.back());
    EXPECT_EQ(first.at("seq").as_number(),
              static_cast<double>(total - obs::kEventRingSlots + 1));
    EXPECT_EQ(last.at("seq").as_number(), static_cast<double>(total));
    for (const auto& line : tail) EXPECT_NO_THROW(obs::Json::parse(line));
}

TEST_F(LiveObsTest, OversizeKvPayloadDegradesToTruncatedRecord) {
    const std::string big(2 * obs::kEventSlotBytes, 'x');
    obs::event(obs::EventLevel::Info, "test", "big", {{"blob", big}});
    const auto tail = obs::event_tail();
    ASSERT_EQ(tail.size(), 1u);
    const obs::Json e = obs::Json::parse(tail[0]);
    EXPECT_TRUE(e.at("truncated").as_bool());
    EXPECT_EQ(e.at("code").as_string(), "big");
    EXPECT_FALSE(e.contains("kv"));
}

TEST_F(LiveObsTest, InactiveJournalRecordsNothing) {
    obs::set_events_active(false);
    obs::event(obs::EventLevel::Info, "test", "dropped");
    EXPECT_EQ(obs::event_count(), 0u);
    EXPECT_TRUE(obs::event_tail().empty());
}

TEST_F(LiveObsTest, UtilLogWarningsMirrorIntoTheJournal) {
    log_warn("live-obs test warning %d", 42);
    const auto tail = obs::event_tail();
    ASSERT_GE(tail.size(), 1u);
    const obs::Json e = obs::Json::parse(tail.back());
    EXPECT_EQ(e.at("comp").as_string(), "log");
    EXPECT_EQ(e.at("lvl").as_string(), "warn");
    EXPECT_NE(e.at("kv").at("msg").as_string().find("live-obs test warning 42"),
              std::string::npos);
}

TEST_F(LiveObsTest, EventStreamWritesJsonlToFile) {
    const std::string path = ::testing::TempDir() + "/live_obs_stream.jsonl";
    obs::set_event_stream_path(path);
    obs::event(obs::EventLevel::Info, "test", "streamed", {{"k", 1}});
    obs::event(obs::EventLevel::Info, "test", "streamed", {{"k", 2}});
    obs::close_event_stream();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
        EXPECT_NO_THROW(obs::Json::parse(line));
        ++lines;
    }
    EXPECT_EQ(lines, 2u);
}

TEST_F(LiveObsTest, RingTailFdWriterEmitsTheSameRecords) {
    obs::event(obs::EventLevel::Info, "test", "fd", {{"k", 1}});
    obs::event(obs::EventLevel::Info, "test", "fd", {{"k", 2}});
    const std::string path = ::testing::TempDir() + "/live_obs_fdtail.jsonl";
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(obs::detail::write_ring_tail_fd(fileno(f), 10), 2u);
    std::fclose(f);
    std::ifstream in(path);
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
        EXPECT_NO_THROW(obs::Json::parse(line));
        ++lines;
    }
    EXPECT_EQ(lines, 2u);
}

TEST_F(LiveObsTest, ParseLogLevelAcceptsTheDocumentedSpellings) {
    EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
    EXPECT_EQ(parse_log_level("INFO"), LogLevel::Info);
    EXPECT_EQ(parse_log_level("Warn"), LogLevel::Warn);
    EXPECT_EQ(parse_log_level("warning"), LogLevel::Warn);
    EXPECT_EQ(parse_log_level("quiet"), LogLevel::Quiet);
    EXPECT_EQ(parse_log_level("off"), LogLevel::Quiet);
    EXPECT_FALSE(parse_log_level("loud").has_value());
    EXPECT_FALSE(parse_log_level("").has_value());
}

// --- heartbeats -----------------------------------------------------------

namespace {
std::atomic<double> g_fake_now{0.0};
double fake_clock() { return g_fake_now.load(); }
} // namespace

TEST_F(LiveObsTest, HeartbeatsFireOncePerIntervalUnderAFakeClock) {
    obs::set_heartbeat_clock(&fake_clock);
    g_fake_now = 0.0;
    obs::set_heartbeat_interval(1.0);

    obs::ProgressScope scope("test/work", 100);
    // 40 advances over 10 fake seconds: one heartbeat per 1 s window.
    for (int i = 1; i <= 40; ++i) {
        g_fake_now = i * 0.25;
        scope.advance();
    }
    EXPECT_EQ(obs::heartbeat_count(), 10u);

    // Heartbeat records carry monotone percent and the scope's phase.
    double last_pct = -1.0;
    size_t heartbeats = 0;
    for (const auto& line : obs::event_tail()) {
        const obs::Json e = obs::Json::parse(line);
        if (e.at("code").as_string() != "heartbeat") continue;
        ++heartbeats;
        EXPECT_EQ(e.at("kv").at("phase").as_string(), "test/work");
        const double pct = e.at("kv").at("pct").as_number();
        EXPECT_GE(pct, last_pct);
        last_pct = pct;
    }
    EXPECT_EQ(heartbeats, 10u);
}

TEST_F(LiveObsTest, CurrentProgressTracksTheInnermostScope) {
    obs::ProgressScope outer("test/outer", 10);
    outer.advance(2);
    {
        obs::ProgressScope inner("test/inner", 4);
        inner.advance();
        const obs::HeartbeatInfo hb = obs::current_progress();
        EXPECT_EQ(hb.phase, "test/inner");
        EXPECT_EQ(hb.done, 1u);
        EXPECT_EQ(hb.total, 4u);
        EXPECT_EQ(hb.depth, 2);
    }
    const obs::HeartbeatInfo hb = obs::current_progress();
    EXPECT_EQ(hb.phase, "test/outer");
    EXPECT_EQ(hb.done, 2u);
    EXPECT_EQ(hb.depth, 1);
}

TEST_F(LiveObsTest, HeartbeatObserverSeesEtaAndActivatesProgress) {
    obs::set_events_active(false); // observer alone must activate progress
    std::atomic<int> seen{0};
    obs::HeartbeatInfo last;
    std::mutex last_mutex;
    obs::set_heartbeat_observer([&](const obs::HeartbeatInfo& hb) {
        std::lock_guard<std::mutex> lock(last_mutex);
        last = hb;
        ++seen;
    });
    obs::set_heartbeat_clock(&fake_clock);
    g_fake_now = 100.0;
    EXPECT_TRUE(obs::progress_active());

    obs::ProgressScope scope("test/eta", 10);
    g_fake_now = 102.0; // 2 s elapsed
    scope.advance(5);   // half done -> ETA == elapsed
    ASSERT_GE(seen.load(), 1);
    std::lock_guard<std::mutex> lock(last_mutex);
    EXPECT_EQ(last.phase, "test/eta");
    EXPECT_DOUBLE_EQ(last.percent, 50.0);
    EXPECT_NEAR(last.eta_s, last.elapsed_s, 1e-9);
}

// --- watchdog -------------------------------------------------------------

TEST_F(LiveObsTest, SlowStepFaultTripsTheWatchdogStallAndBundle) {
    // One fault-injected slow step sleeps well past both budgets, so the
    // monitor sees a genuinely quiet solver thread mid-transient.
    const uint64_t stalls_before = obs::watchdog_stall_count();
    run_with_slow_step(0.2, 0.6, 0.9);
    // Give the monitor (50 ms tick) a chance to observe the recovery before
    // shutting it down.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    obs::stop_watchdog();

    EXPECT_GT(obs::watchdog_stall_count(), stalls_before);
    bool saw_stall = false, saw_recovered = false;
    for (const auto& line : obs::event_tail()) {
        const obs::Json e = obs::Json::parse(line);
        if (e.at("comp").as_string() != "watchdog") continue;
        if (e.at("code").as_string() == "stall") {
            saw_stall = true;
            EXPECT_EQ(e.at("lvl").as_string(), "warn");
            EXPECT_GE(e.at("kv").at("quiet_s").as_number(), 0.2);
            // The live phase stack names the stalled engine.
            EXPECT_NE(e.at("kv").at("stacks").as_string().find("sim/transient"),
                      std::string::npos);
        }
        if (e.at("code").as_string() == "recovered") saw_recovered = true;
    }
    EXPECT_TRUE(saw_stall);
    EXPECT_TRUE(saw_recovered);

    // The hang budget also elapsed inside the sleep: a bundle exists and
    // carries the phase stacks + event tail.
    const std::string bundle = hang_bundle_from_journal();
    ASSERT_FALSE(bundle.empty());
    const obs::Json doc = read_json(bundle);
    EXPECT_EQ(doc.at("kind").as_string(), "watchdog_hang");
    EXPECT_GE(doc.at("quiet_s").as_number(), 0.6);
    EXPECT_FALSE(doc.at("phase_stacks").as_array().empty());
    EXPECT_FALSE(doc.at("events").as_array().empty());
    std::remove(bundle.c_str());
}

TEST_F(LiveObsTest, WatchdogRejectsNonPositiveStallBudget) {
    // Also non-finite budgets: a NaN one compares false against every
    // quiet time, so the watchdog would be armed and never fire.
    auto expect_raises_naming = [](const obs::WatchdogOptions& wd, const char* field) {
        try {
            obs::start_watchdog(wd);
            obs::stop_watchdog();
            ADD_FAILURE() << "expected an error naming " << field;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
    };
    expect_raises_naming({.stall_s = 0.0}, "stall_s");
    expect_raises_naming({.stall_s = std::nan("")}, "stall_s");
    expect_raises_naming({.stall_s = HUGE_VAL}, "stall_s");
    expect_raises_naming({.stall_s = 1.0, .hang_s = std::nan("")}, "hang_s");
    expect_raises_naming({.stall_s = 1.0, .hang_s = HUGE_VAL}, "hang_s");
}

TEST_F(LiveObsTest, WatchdogSpecParsesExactlyStallHangAbort) {
    const obs::WatchdogOptions stall = obs::parse_watchdog_spec("30");
    EXPECT_EQ(stall.stall_s, 30.0);
    EXPECT_EQ(stall.hang_s, 0.0); // start_watchdog makes it 4 * stall_s
    EXPECT_FALSE(stall.abort_on_hang);
    const obs::WatchdogOptions hang = obs::parse_watchdog_spec("0.5,2");
    EXPECT_EQ(hang.stall_s, 0.5);
    EXPECT_EQ(hang.hang_s, 2.0);
    EXPECT_FALSE(hang.abort_on_hang);
    const obs::WatchdogOptions abort = obs::parse_watchdog_spec("30,60,abort");
    EXPECT_EQ(abort.stall_s, 30.0);
    EXPECT_EQ(abort.hang_s, 60.0);
    EXPECT_TRUE(abort.abort_on_hang);

    for (const char* bad : {"30x", "30,abc", "30,60,abrt", "nan", "1e999", "", "30,",
                            " 30", "-1", "0", "inf", "30,60,abort,1", "30,nan"}) {
        try {
            (void)obs::parse_watchdog_spec(bad);
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(std::string("'") + bad + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST_F(LiveObsTest, MalformedWatchdogEnvIsSkippedWithAWarning) {
    ::setenv("SNIM_WATCHDOG", "30,60,abrt", 1);
    obs::init_live_from_env();
    ::unsetenv("SNIM_WATCHDOG");
    bool warned = false;
    for (const auto& line : obs::event_tail()) {
        const obs::Json e = obs::Json::parse(line);
        EXPECT_NE(e.at("comp").as_string(), "watchdog") << line; // never started
        if (e.at("comp").as_string() == "log" && e.at("lvl").as_string() == "warn") {
            const std::string msg = e.at("kv").at("msg").as_string();
            warned = warned || (msg.find("SNIM_WATCHDOG") != std::string::npos &&
                                msg.find("'abrt'") != std::string::npos);
        }
    }
    EXPECT_TRUE(warned);
}

TEST_F(LiveObsTest, FailureAndHangBundlesShareOneWriterAndDirectory) {
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) /
         ("live_obs_bundles_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    obs::set_bundle_dir(dir);
    obs::ConfigDigest cd;
    cd.add("k", 1);
    obs::set_current_manifest(obs::make_run_manifest("unit", cd, 0, 1));
    const std::string run_id = obs::current_manifest()->run_id;

    // A solver failure, with one journal record before it: every rung of
    // the operating point is vetoed.
    obs::event(obs::EventLevel::Info, "test", "before_failure");
    fault::arm({.point = "op.fail", .at = 1, .count = 1});
    std::string message;
    try {
        auto nl = sine_rc_netlist();
        (void)sim::operating_point(nl);
    } catch (const Error& e) {
        message = e.what();
    }
    const std::string marker = "diagnosis bundle: ";
    ASSERT_NE(message.find(marker), std::string::npos) << message;
    const std::string diag = message.substr(message.find(marker) + marker.size());

    // A hang: one slow step outlasts the hang budget.
    run_with_slow_step(0.1, 0.2, 0.5);
    obs::stop_watchdog();
    const std::string hang = hang_bundle_from_journal();
    ASSERT_FALSE(hang.empty());

    for (const auto& [path, kind] :
         {std::pair{diag, "diag_op"}, std::pair{hang, "watchdog"}}) {
        const std::filesystem::path p(path);
        EXPECT_EQ(p.parent_path(), std::filesystem::path(dir)) << path;
        EXPECT_EQ(p.filename().string().rfind(
                      std::string("snim_") + kind + "_" + run_id + "_", 0),
                  0u)
            << path;
        EXPECT_EQ(p.extension(), ".json") << path;
        const obs::Json doc = read_json(path);
        EXPECT_EQ(doc.at("manifest").at("run_id").as_string(), run_id) << path;
        EXPECT_TRUE(doc.at("registry").contains("counters")) << path;
        EXPECT_FALSE(doc.at("events").as_array().empty()) << path;
    }
    std::filesystem::remove_all(dir);
}

TEST_F(LiveObsTest, SlowStepSleepDoesNotChangeTransientResults) {
    auto nl1 = sine_rc_netlist();
    const auto clean = sim::transient(nl1, {"out"}, sine_options());
    fault::arm({.point = "tran.slow_step", .at = 5, .count = 1});
    fault::set_slow_step_seconds(0.05);
    auto nl2 = sine_rc_netlist();
    const auto slowed = sim::transient(nl2, {"out"}, sine_options());
    ASSERT_EQ(clean.waves[0].size(), slowed.waves[0].size());
    for (size_t i = 0; i < clean.waves[0].size(); ++i)
        EXPECT_EQ(clean.waves[0][i], slowed.waves[0][i]);
}

// --- phase stacks & profiler ----------------------------------------------

TEST_F(LiveObsTest, PhaseStackTracksNestingAndSampling) {
    obs::phase_stack::set_enabled(true);
    // A frame is the interned name itself, so a long one samples whole.
    const std::string inner_name = "test/outer/" + std::string(100, 'x');
    {
        obs::ScopedTimer outer(obs::Phase("test/outer"));
        obs::ScopedTimer inner(obs::Phase{inner_name});
        EXPECT_EQ(obs::phase_stack::depth(), 2);
        const auto stacks = obs::phase_stack::sample_all();
        ASSERT_EQ(stacks.size(), 1u);
        ASSERT_EQ(stacks[0].frames.size(), 2u);
        EXPECT_EQ(stacks[0].frames[0], "test/outer");
        EXPECT_EQ(stacks[0].frames[1], inner_name);
    }
    EXPECT_EQ(obs::phase_stack::depth(), 0);
    EXPECT_TRUE(obs::phase_stack::sample_all().empty());
}

TEST_F(LiveObsTest, ProfilerProducesWellFormedFoldedStacks) {
    obs::start_profiler();
    {
        obs::ScopedTimer t(obs::Phase("test/profiled"));
        std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }
    obs::stop_profiler();

    const obs::FoldedProfile p = obs::profiler_snapshot();
    EXPECT_GT(p.samples, 0u);
    uint64_t sum = 0;
    bool saw_phase = false;
    for (const auto& [stack, count] : p.counts) {
        EXPECT_EQ(stack.rfind("snim", 0), 0u) << stack; // "snim" root frame
        EXPECT_GT(count, 0u);
        sum += count;
        if (stack.find("test/profiled") != std::string::npos) saw_phase = true;
    }
    EXPECT_EQ(sum, p.samples);
    EXPECT_TRUE(saw_phase);

    // folded_text: "stack count" lines, flamegraph.pl's input format.
    const std::string text = obs::folded_text(p);
    std::istringstream lines(text);
    std::string line;
    size_t n = 0;
    while (std::getline(lines, line)) {
        const size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        EXPECT_GT(std::stoull(line.substr(sp + 1)), 0u);
        EXPECT_FALSE(line.substr(0, sp).empty());
        ++n;
    }
    EXPECT_EQ(n, p.counts.size());

    const obs::Json j = obs::profile_json(p);
    EXPECT_EQ(j.at("samples").as_number(), static_cast<double>(p.samples));
    EXPECT_EQ(j.at("stacks").as_object().size(), p.counts.size());
}

// --- last gasp ------------------------------------------------------------

TEST_F(LiveObsTest, ForkedChildWritesLastGaspBundleOnAbort) {
    const std::string path = ::testing::TempDir() + "/live_obs_lastgasp.jsonl";
    std::remove(path.c_str());

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: install, leave some journal + stack context, die hard.
        // _exit codes mark setup failures; the expected death is SIGABRT.
        try {
            obs::install_last_gasp(path);
        } catch (...) {
            _exit(97);
        }
        obs::event(obs::EventLevel::Info, "test", "pre_crash", {{"k", 1}});
        obs::ScopedTimer t(obs::Phase("test/crashing"));
        std::abort();
    }

    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with " << WEXITSTATUS(status);
    EXPECT_EQ(WTERMSIG(status), SIGABRT);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    bool saw_header = false, saw_stack = false, saw_event = false;
    while (std::getline(in, line)) {
        const obs::Json e = obs::Json::parse(line);
        if (e.contains("last_gasp")) {
            saw_header = true;
            EXPECT_EQ(e.at("last_gasp").at("reason").as_string(), "SIGABRT");
        }
        if (e.contains("phase_stack")) {
            saw_stack = true;
            EXPECT_NE(e.at("phase_stack").at("stack").as_string().find(
                          "test/crashing"),
                      std::string::npos);
        }
        if (e.contains("code") && e.at("code").as_string() == "pre_crash")
            saw_event = true;
    }
    EXPECT_TRUE(saw_header);
    EXPECT_TRUE(saw_stack);
    EXPECT_TRUE(saw_event);
    std::remove(path.c_str());
}

TEST_F(LiveObsTest, LastGaspInstallUninstallRoundTrip) {
    const std::string path = ::testing::TempDir() + "/live_obs_lg_rt.jsonl";
    obs::install_last_gasp(path);
    EXPECT_TRUE(obs::last_gasp_installed());
    EXPECT_EQ(obs::last_gasp_path(), path);
    // The test hook writes the same records the handler would.
    EXPECT_TRUE(obs::detail::write_last_gasp_now("test_reason"));
    obs::uninstall_last_gasp();
    EXPECT_FALSE(obs::last_gasp_installed());
    EXPECT_FALSE(obs::detail::write_last_gasp_now("test_reason"));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const obs::Json e = obs::Json::parse(line);
    EXPECT_EQ(e.at("last_gasp").at("reason").as_string(), "test_reason");
    std::remove(path.c_str());
}
