// Checkpoint/restart subsystem: crash-consistent atomic writes, the
// versioned snapshot framing, the double-buffer + fallback loader, the
// corrupt-checkpoint matrix (truncation, checksum flip, wrong version,
// digest mismatch), and the determinism contract — a resumed transient is
// bit-identical to the uninterrupted run.  Own binary: arms ckpt.* fault
// windows, installs the process-default checkpoint policy and asserts on
// global registry counters.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/diode.hpp"
#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "obs/provenance.hpp"
#include "obs/registry.hpp"
#include "sim/checkpoint.hpp"
#include "sim/diagnostics.hpp"
#include "sim/transient.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

using namespace snim;

namespace {

class CheckpointTest : public ::testing::Test {
protected:
    void SetUp() override {
        fault::clear();
        sim::set_default_checkpoint({});
        obs::reset();
        obs::set_enabled(false);
    }
    void TearDown() override {
        fault::clear();
        sim::set_default_checkpoint({});
        util::set_default_thread_count(1);
        obs::reset();
        obs::set_enabled(false);
    }

    /// Per-test scratch directory under gtest's temp root, scrubbed of any
    /// snapshot leftovers from a previous run of the same test.
    std::string scratch(const std::string& name) {
        const std::string dir = ::testing::TempDir() + "ckpt_" + name;
        ::mkdir(dir.c_str(), 0755);
        for (const char* tag : {"tran", "tagged_site"}) {
            const std::string p = sim::checkpoint_path(dir, tag);
            std::remove(p.c_str());
            std::remove((p + ".prev").c_str());
        }
        return dir;
    }
};

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool file_exists(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return static_cast<bool>(in);
}

/// Mildly nonlinear RC + diode network: exercises per-device integration
/// state (capacitor charge history, diode linearisation point) across the
/// save/restore boundary.
circuit::Netlist test_netlist() {
    circuit::Netlist nl;
    nl.add<circuit::VSource>("vin", nl.node("in"), circuit::kGround,
                             circuit::Waveform::sin(0.4, 0.5, 100e6));
    nl.add<circuit::Resistor>("r1", nl.node("in"), nl.node("mid"), 1e3);
    nl.add<circuit::Capacitor>("c1", nl.node("mid"), circuit::kGround, 2e-12);
    circuit::DiodeModel dm;
    dm.cj0 = 1e-13; // junction capacitance: real integration state to carry
    nl.add<circuit::Diode>("d1", nl.node("mid"), nl.node("out"), dm);
    nl.add<circuit::Resistor>("r2", nl.node("out"), circuit::kGround, 10e3);
    nl.add<circuit::Capacitor>("c2", nl.node("out"), circuit::kGround, 1e-12);
    return nl;
}

sim::TranOptions base_options() {
    sim::TranOptions opt;
    opt.dt = 0.1e-9;
    opt.tstop = 20e-9; // 200 nominal steps
    opt.record_start = 5e-9;
    opt.accumulate_average = true;
    return opt;
}

const std::vector<std::string> kProbes{"mid", "out"};

void expect_bitwise_equal(const sim::TranResult& a, const sim::TranResult& b) {
    ASSERT_EQ(a.time.size(), b.time.size());
    ASSERT_EQ(a.waves.size(), b.waves.size());
    EXPECT_EQ(0, std::memcmp(a.time.data(), b.time.data(),
                             a.time.size() * sizeof(double)));
    for (size_t p = 0; p < a.waves.size(); ++p) {
        ASSERT_EQ(a.waves[p].size(), b.waves[p].size()) << "probe " << p;
        EXPECT_EQ(0, std::memcmp(a.waves[p].data(), b.waves[p].data(),
                                 a.waves[p].size() * sizeof(double)))
            << "probe " << p << " diverged";
    }
    ASSERT_EQ(a.average.size(), b.average.size());
    EXPECT_EQ(0, std::memcmp(a.average.data(), b.average.data(),
                             a.average.size() * sizeof(double)));
}

sim::TranCheckpoint sample_checkpoint() {
    sim::TranCheckpoint c;
    c.config_digest = 0x1234567890abcdefULL;
    c.rng_seed = 42;
    c.step = 17;
    c.attempt_no = 21;
    c.be_steps_done = 4;
    c.level = 1;
    c.consecutive_accepts = 3;
    c.step_retries = 2;
    c.dt_prev = 0.05e-9;
    c.x_acc = {1.0, -2.5, 3.0e-13};
    c.x_prev = {0.875, -2.5, 2.9e-13};
    c.device_state = {0.1, 0.2, 0.3, 1.0, 0.0};
    c.average = {10.0, -20.0, 30.0};
    c.probe_names = {"mid", "out"};
    c.time = {1e-9, 2e-9};
    c.waves = {{0.5, 0.625}, {0.25, 0.375}};
    c.budget.cert_solves = 9;
    c.budget.worst_omega = 1.5e-12;
    return c;
}

// --- util::atomic_file ------------------------------------------------------

TEST_F(CheckpointTest, AtomicWriteCreatesAndReplaces) {
    const std::string path = ::testing::TempDir() + "atomic_file_test.txt";
    util::write_file_atomic(path, "first");
    EXPECT_EQ(slurp(path), "first");
    util::write_file_atomic(path, "second, longer content");
    EXPECT_EQ(slurp(path), "second, longer content");
    std::remove(path.c_str());
}

TEST_F(CheckpointTest, AtomicWriteMissingDirIsNamedError) {
    try {
        util::write_file_atomic("/nonexistent_dir_snim/x.txt", "data");
        FAIL() << "expected an error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("/nonexistent_dir_snim"),
                  std::string::npos);
    }
}

TEST_F(CheckpointTest, AtomicAppendAccumulatesRecords) {
    const std::string path = ::testing::TempDir() + "atomic_append_test.jsonl";
    std::remove(path.c_str());
    util::append_record_atomic(path, "{\"a\":1}");
    util::append_record_atomic(path, "{\"b\":2}");
    EXPECT_EQ(slurp(path), "{\"a\":1}\n{\"b\":2}\n");
    std::remove(path.c_str());
}

// --- framing ----------------------------------------------------------------

TEST_F(CheckpointTest, EncodeDecodeRoundTrip) {
    const auto c = sample_checkpoint();
    const auto d = sim::decode_checkpoint(sim::encode_checkpoint(c));
    EXPECT_EQ(d.config_digest, c.config_digest);
    EXPECT_EQ(d.rng_seed, c.rng_seed);
    EXPECT_EQ(d.step, c.step);
    EXPECT_EQ(d.attempt_no, c.attempt_no);
    EXPECT_EQ(d.be_steps_done, c.be_steps_done);
    EXPECT_EQ(d.level, c.level);
    EXPECT_EQ(d.consecutive_accepts, c.consecutive_accepts);
    EXPECT_EQ(d.step_retries, c.step_retries);
    EXPECT_EQ(d.dt_prev, c.dt_prev);
    EXPECT_EQ(d.x_acc, c.x_acc);
    EXPECT_EQ(d.x_prev, c.x_prev);
    EXPECT_EQ(d.device_state, c.device_state);
    EXPECT_EQ(d.average, c.average);
    EXPECT_EQ(d.probe_names, c.probe_names);
    EXPECT_EQ(d.time, c.time);
    EXPECT_EQ(d.waves, c.waves);
    EXPECT_EQ(d.budget.cert_solves, c.budget.cert_solves);
    EXPECT_EQ(d.budget.worst_omega, c.budget.worst_omega);
}

TEST_F(CheckpointTest, DecodeRejectsBadMagic) {
    std::string frame = sim::encode_checkpoint(sample_checkpoint());
    frame[0] = 'X';
    try {
        sim::decode_checkpoint(frame);
        FAIL() << "expected an error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
    }
}

TEST_F(CheckpointTest, DecodeRejectsWrongVersion) {
    // Version 2 framed the recorded and averaged sample counts.
    for (const int version : {2, 99}) {
        std::string frame = sim::encode_checkpoint(sample_checkpoint());
        frame[8] = static_cast<char>(version); // follows the 8-byte magic
        try {
            sim::decode_checkpoint(frame);
            FAIL() << "expected an error for version " << version;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version"),
                      std::string::npos);
        }
    }
}

TEST_F(CheckpointTest, DecodeRejectsFlippedChecksumByte) {
    std::string frame = sim::encode_checkpoint(sample_checkpoint());
    frame[frame.size() - 3] ^= 0x40;
    try {
        sim::decode_checkpoint(frame);
        FAIL() << "expected an error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
    }
}

TEST_F(CheckpointTest, DecodeRejectsFlippedPayloadByte) {
    std::string frame = sim::encode_checkpoint(sample_checkpoint());
    frame[frame.size() / 2] ^= 0x01;
    EXPECT_THROW(sim::decode_checkpoint(frame), Error);
}

TEST_F(CheckpointTest, DecodeRejectsTruncation) {
    const std::string frame = sim::encode_checkpoint(sample_checkpoint());
    for (const size_t keep : {size_t{4}, size_t{11}, frame.size() / 2, frame.size() - 1}) {
        EXPECT_THROW(sim::decode_checkpoint(frame.substr(0, keep)), Error)
            << "kept " << keep << " bytes";
    }
}

TEST_F(CheckpointTest, CheckpointPathSlugsTag) {
    EXPECT_EQ(sim::checkpoint_path("/d", "fig8_vt0.9"), "/d/fig8_vt0.9.ckpt");
    EXPECT_EQ(sim::checkpoint_path("/d", "a/b c"), "/d/a_b_c.ckpt");
    EXPECT_EQ(sim::checkpoint_path("/d", ""), "/d/tran.ckpt");
}

// --- double buffer + fallback loader ---------------------------------------

TEST_F(CheckpointTest, WriterRotatesPreviousSnapshot) {
    const std::string dir = scratch("rotate");
    const std::string path = sim::checkpoint_path(dir, "tran");
    auto c = sample_checkpoint();
    sim::write_checkpoint(path, c);
    EXPECT_TRUE(file_exists(path));
    EXPECT_FALSE(file_exists(path + ".prev"));
    c.step = 18;
    sim::write_checkpoint(path, c);
    EXPECT_TRUE(file_exists(path + ".prev"));
    EXPECT_EQ(sim::load_checkpoint(path, c.config_digest)->step, 18);
}

TEST_F(CheckpointTest, LoaderFallsBackWhenNewestIsTruncated) {
    const std::string dir = scratch("fallback_trunc");
    const std::string path = sim::checkpoint_path(dir, "tran");
    auto c = sample_checkpoint();
    sim::write_checkpoint(path, c);
    c.step = 18;
    sim::write_checkpoint(path, c);
    const std::string full = slurp(path);
    util::write_file_atomic(path, full.substr(0, full.size() / 2));
    const auto res = sim::load_checkpoint(path, c.config_digest);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->step, 17); // the .prev snapshot
}

TEST_F(CheckpointTest, LoaderFallsBackWhenNewestChecksumFlips) {
    const std::string dir = scratch("fallback_sum");
    const std::string path = sim::checkpoint_path(dir, "tran");
    auto c = sample_checkpoint();
    sim::write_checkpoint(path, c);
    c.step = 18;
    sim::write_checkpoint(path, c);
    std::string full = slurp(path);
    full[full.size() / 2] ^= 0x10;
    util::write_file_atomic(path, full);
    const auto res = sim::load_checkpoint(path, c.config_digest);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->step, 17);
}

TEST_F(CheckpointTest, AllCandidatesCorruptIsNamedError) {
    const std::string dir = scratch("all_corrupt");
    const std::string path = sim::checkpoint_path(dir, "tran");
    util::write_file_atomic(path, "garbage");
    util::write_file_atomic(path + ".prev", "more garbage");
    try {
        sim::load_checkpoint(path, 1);
        FAIL() << "expected an error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("unreadable"), std::string::npos);
    }
}

TEST_F(CheckpointTest, MissingFilesMeanFreshStart) {
    const std::string dir = scratch("fresh");
    EXPECT_FALSE(sim::load_checkpoint(sim::checkpoint_path(dir, "tran"), 1)
                     .has_value());
}

TEST_F(CheckpointTest, DigestMismatchRefusesEvenWithIntactSnapshot) {
    const std::string dir = scratch("digest");
    const std::string path = sim::checkpoint_path(dir, "tran");
    sim::write_checkpoint(path, sample_checkpoint());
    try {
        sim::load_checkpoint(path, 0xdeadbeefULL);
        FAIL() << "expected an error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("refusing to resume"),
                  std::string::npos);
    }
}

// --- determinism contract ---------------------------------------------------

TEST_F(CheckpointTest, CheckpointedRunIsBitIdenticalToPlainRun) {
    auto nl_a = test_netlist();
    const auto clean = sim::transient(nl_a, kProbes, base_options());

    const std::string dir = scratch("bitident");
    auto opt = base_options();
    opt.checkpoint.dir = dir;
    opt.checkpoint.every_steps = 25;
    auto nl_b = test_netlist();
    const auto ckpt = sim::transient(nl_b, kProbes, opt);
    expect_bitwise_equal(clean, ckpt);
    EXPECT_TRUE(file_exists(sim::checkpoint_path(dir, "tran")));
}

TEST_F(CheckpointTest, MidRunResumeIsBitIdentical) {
    auto nl_a = test_netlist();
    const auto clean = sim::transient(nl_a, kProbes, base_options());

    for (const int threads : {1, 4}) {
        util::set_default_thread_count(threads);
        const std::string dir = scratch(format("resume_t%d", threads));
        auto opt = base_options();
        opt.checkpoint.dir = dir;
        opt.checkpoint.every_steps = 25;
        auto nl_b = test_netlist();
        (void)sim::transient(nl_b, kProbes, opt);

        // Simulate the SIGKILL: drop the final snapshot so the newest
        // intact one is a mid-run state, then resume on a FRESH netlist.
        const std::string path = sim::checkpoint_path(dir, "tran");
        std::remove(path.c_str());
        ASSERT_EQ(std::rename((path + ".prev").c_str(), path.c_str()), 0);

        auto nl_c = test_netlist();
        const auto resumed = sim::resume_transient(nl_c, kProbes, opt);
        expect_bitwise_equal(clean, resumed);
    }
}

TEST_F(CheckpointTest, ResumeIsBitIdenticalUnderTightNewtonTolerances) {
    // Tight Newton tolerances keep every step iterating longer than the
    // defaults do.  A resumed run must still reproduce the uninterrupted
    // waveform exactly: the (dt, order) companion cache and the predictor
    // history rebuild deterministically from the snapshot.
    auto tight = base_options();
    tight.vntol = 1e-9;
    tight.reltol = 1e-6;

    auto nl_a = test_netlist();
    const auto clean = sim::transient(nl_a, kProbes, tight);

    const std::string dir = scratch("resume_stale");
    auto opt = tight;
    opt.checkpoint.dir = dir;
    opt.checkpoint.every_steps = 25;
    auto nl_b = test_netlist();
    (void)sim::transient(nl_b, kProbes, opt);

    const std::string path = sim::checkpoint_path(dir, "tran");
    std::remove(path.c_str());
    ASSERT_EQ(std::rename((path + ".prev").c_str(), path.c_str()), 0);

    auto nl_c = test_netlist();
    const auto resumed = sim::resume_transient(nl_c, kProbes, opt);
    expect_bitwise_equal(clean, resumed);
}

TEST_F(CheckpointTest, ResumeFromCompletedRunReplaysInstantly) {
    const std::string dir = scratch("replay");
    auto opt = base_options();
    opt.checkpoint.dir = dir;
    opt.checkpoint.every_steps = 50;
    auto nl_a = test_netlist();
    const auto first = sim::transient(nl_a, kProbes, opt);

    auto nl_b = test_netlist();
    const auto replay = sim::resume_transient(nl_b, kProbes, opt);
    expect_bitwise_equal(first, replay);
}

TEST_F(CheckpointTest, ResumeWithNoSnapshotIsAFreshRun) {
    auto nl_a = test_netlist();
    const auto clean = sim::transient(nl_a, kProbes, base_options());

    const std::string dir = scratch("resume_fresh");
    auto opt = base_options();
    opt.checkpoint.dir = dir;
    opt.checkpoint.every_steps = 50;
    auto nl_b = test_netlist();
    const auto resumed = sim::resume_transient(nl_b, kProbes, opt);
    expect_bitwise_equal(clean, resumed);
}

TEST_F(CheckpointTest, ResumeRefusesChangedOptions) {
    const std::string dir = scratch("changed_opt");
    auto opt = base_options();
    opt.checkpoint.dir = dir;
    opt.checkpoint.every_steps = 50;
    auto nl_a = test_netlist();
    (void)sim::transient(nl_a, kProbes, opt);

    auto changed = opt;
    changed.reltol = 1e-5; // physics knob -> different config digest
    auto nl_b = test_netlist();
    try {
        sim::resume_transient(nl_b, kProbes, changed);
        FAIL() << "expected an error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("refusing to resume"),
                  std::string::npos);
    }
}

TEST_F(CheckpointTest, CadenceKnobsStayOutOfTheDigest) {
    // Checkpoint knobs are operational: runs that differ only in cadence /
    // dir / resume must share one config digest, or resume would always
    // refuse.
    auto a = base_options();
    auto b = base_options();
    b.checkpoint.dir = "/somewhere";
    b.checkpoint.every_steps = 7;
    b.checkpoint.every_s = 1.5;
    b.checkpoint.resume = true;
    obs::ConfigDigest da, db;
    sim::digest_options(da, a);
    sim::digest_options(db, b);
    EXPECT_EQ(da.value64(), db.value64());
}

TEST_F(CheckpointTest, DefaultPolicyAppliesWhenOptionsCarryNoDir) {
    auto nl_a = test_netlist();
    const auto clean = sim::transient(nl_a, kProbes, base_options());

    const std::string dir = scratch("default_policy");
    sim::CheckpointOptions policy;
    policy.dir = dir;
    policy.every_steps = 50;
    sim::set_default_checkpoint(policy);

    auto opt = base_options();
    opt.checkpoint.tag = "tagged_site";
    auto nl_b = test_netlist();
    const auto run = sim::transient(nl_b, kProbes, opt);
    expect_bitwise_equal(clean, run);
    EXPECT_TRUE(file_exists(sim::checkpoint_path(dir, "tagged_site")));
}

TEST_F(CheckpointTest, ResumeWithoutAnyDirIsNamedError) {
    auto nl = test_netlist();
    try {
        sim::resume_transient(nl, kProbes, base_options());
        FAIL() << "expected an error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("no checkpoint dir"),
                  std::string::npos);
    }
}

// --- fault points -----------------------------------------------------------

TEST_F(CheckpointTest, WriteFailureKeepsRunAliveOnLastGood) {
    auto nl_a = test_netlist();
    const auto clean = sim::transient(nl_a, kProbes, base_options());

    const std::string dir = scratch("write_fail");
    auto opt = base_options();
    opt.checkpoint.dir = dir;
    opt.checkpoint.every_steps = 25;
    fault::arm({.point = "ckpt.write.fail", .at = 2, .count = 1});
    obs::set_enabled(true);
    auto nl_b = test_netlist();
    const auto run = sim::transient(nl_b, kProbes, opt);
    expect_bitwise_equal(clean, run);
    EXPECT_EQ(obs::counter_value("sim/ckpt_write_failures"), 1u);
    EXPECT_GT(obs::counter_value("sim/ckpt_writes"), 0u);
    EXPECT_GT(obs::counter_value("sim/ckpt_bytes"), 0u);
}

TEST_F(CheckpointTest, CorruptFaultExercisesPrevFallbackOnResume) {
    auto nl_a = test_netlist();
    const auto clean = sim::transient(nl_a, kProbes, base_options());

    const std::string dir = scratch("corrupt_fault");
    auto opt = base_options();
    opt.checkpoint.dir = dir;
    opt.checkpoint.every_steps = 25;
    auto nl_b = test_netlist();
    (void)sim::transient(nl_b, kProbes, opt);

    // The loader's first candidate (the final snapshot) reads as corrupt;
    // resume must fall back to .prev (a mid-run state) and still finish
    // bit-identically.
    fault::arm({.point = "ckpt.corrupt", .at = 1, .count = 1});
    obs::set_enabled(true);
    auto nl_c = test_netlist();
    const auto resumed = sim::resume_transient(nl_c, kProbes, opt);
    expect_bitwise_equal(clean, resumed);
    EXPECT_EQ(obs::counter_value("sim/ckpt_fallbacks"), 1u);
    EXPECT_EQ(obs::counter_value("sim/ckpt_resumes"), 1u);
}

// --- budget-ledger state ----------------------------------------------------

TEST_F(CheckpointTest, BudgetRestoreMergesMonotonically) {
    obs::set_enabled(true);
    obs::BudgetState st;
    obs::BudgetState::Row row;
    row.stage = "sim/kcl";
    row.unit = "A";
    row.worst = 1e-7;
    row.threshold = 1e-6;
    row.higher_is_worse = true;
    row.samples = 10;
    row.breaches = 0;
    row.detail = "node mid";
    st.rows.push_back(row);
    st.cert_solves = 5;
    st.worst_omega = 2e-13;
    st.min_rcond = 1e-3;

    obs::budget_restore(st);
    auto out = obs::budget_state();
    ASSERT_EQ(out.rows.size(), 1u);
    EXPECT_EQ(out.rows[0].stage, "sim/kcl");
    EXPECT_EQ(out.rows[0].worst, 1e-7);
    EXPECT_EQ(out.rows[0].samples, 10u);
    EXPECT_EQ(out.cert_solves, 5u);
    EXPECT_EQ(out.min_rcond, 1e-3);

    // Restoring an EARLIER snapshot of the same path must not regress the
    // ledger: counters keep their maxima, worst keeps the worse value.
    obs::BudgetState earlier = st;
    earlier.rows[0].samples = 4;
    earlier.rows[0].worst = 5e-8;
    earlier.cert_solves = 2;
    earlier.min_rcond = 5e-3;
    obs::budget_restore(earlier);
    out = obs::budget_state();
    EXPECT_EQ(out.rows[0].samples, 10u);
    EXPECT_EQ(out.rows[0].worst, 1e-7);
    EXPECT_EQ(out.cert_solves, 5u);
    EXPECT_EQ(out.min_rcond, 1e-3);
}

} // namespace
