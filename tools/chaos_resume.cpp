// chaos_resume — kill-and-resume chaos harness for the checkpoint subsystem.
//
//   chaos_resume [--trials N] [--seed S] [--dir PATH] [--threads N]
//                [--steps N] [--every N]
//
// Each trial forks a child that runs a checkpointed transient on a mildly
// nonlinear RC+diode network, SIGKILLs it at a seeded-random point
// mid-run, resumes the run in the parent from whatever snapshot survived,
// and bit-compares the resumed waveforms (time axis, every probe, the
// accumulated averages) against a clean uninterrupted reference run.  Even
// trials wait for the first snapshot before killing (resume continues
// mid-run); odd trials kill after a random delay from process start, which
// sometimes lands before any snapshot exists (resume must then fall back
// to a bit-identical fresh start).  Any byte of divergence fails the
// trial; any failed trial fails the process (exit 1).  Same --seed, same
// kill points.
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "circuit/diode.hpp"
#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "sim/checkpoint.hpp"
#include "sim/transient.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace snim;

struct Args {
    long trials = 5;
    uint64_t seed = 1;
    std::string dir = "chaos_ckpt";
    int threads = 1;
    long steps = 20000;  // nominal transient steps per run
    long every = 250;    // checkpoint cadence, accepted steps
};

[[noreturn]] void usage(const char* msg = nullptr) {
    if (msg) std::fprintf(stderr, "chaos_resume: %s\n\n", msg);
    std::fputs(
        "usage: chaos_resume [options]\n"
        "  --trials N    kill-and-resume trials to run (default 5)\n"
        "  --seed S      RNG seed for the kill points (default 1)\n"
        "  --dir PATH    checkpoint directory (default chaos_ckpt)\n"
        "  --threads N   solver thread count (default 1)\n"
        "  --steps N     nominal transient steps per run (default 20000)\n"
        "  --every N     checkpoint every N accepted steps (default 250)\n",
        stderr);
    std::exit(2);
}

long parse_long(const char* flag, const char* value) {
    if (!value) usage(format("%s needs a value", flag).c_str());
    char* end = nullptr;
    const long v = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || v < 0)
        usage(format("%s: bad number '%s'", flag, value).c_str());
    return v;
}

/// splitmix64 — tiny, seedable, good enough to scatter kill points.
uint64_t next_rand(uint64_t& state) {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void sleep_us(long us) {
    struct timespec ts;
    ts.tv_sec = us / 1000000;
    ts.tv_nsec = (us % 1000000) * 1000;
    nanosleep(&ts, nullptr);
}

bool file_exists(const std::string& path) {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/// The same network shape the checkpoint unit tests use: capacitor charge
/// history plus a diode linearisation point, so a snapshot carries real
/// per-device integration state, not just node voltages.
circuit::Netlist chaos_netlist() {
    circuit::Netlist nl;
    nl.add<circuit::VSource>("vin", nl.node("in"), circuit::kGround,
                             circuit::Waveform::sin(0.4, 0.5, 100e6));
    nl.add<circuit::Resistor>("r1", nl.node("in"), nl.node("mid"), 1e3);
    nl.add<circuit::Capacitor>("c1", nl.node("mid"), circuit::kGround, 2e-12);
    circuit::DiodeModel dm;
    dm.cj0 = 1e-13;
    nl.add<circuit::Diode>("d1", nl.node("mid"), nl.node("out"), dm);
    nl.add<circuit::Resistor>("r2", nl.node("out"), circuit::kGround, 10e3);
    nl.add<circuit::Capacitor>("c2", nl.node("out"), circuit::kGround, 1e-12);
    return nl;
}

const std::vector<std::string> kProbes{"mid", "out"};

sim::TranOptions chaos_options(const Args& a) {
    sim::TranOptions opt;
    opt.dt = 0.1e-9;
    opt.tstop = static_cast<double>(a.steps) * opt.dt;
    opt.record_start = opt.tstop * 0.25;
    opt.accumulate_average = true;
    return opt;
}

sim::TranOptions checkpointed_options(const Args& a) {
    sim::TranOptions opt = chaos_options(a);
    opt.checkpoint.dir = a.dir;
    opt.checkpoint.tag = "chaos";
    opt.checkpoint.every_steps = a.every;
    return opt;
}

/// Byte-for-byte waveform comparison; prints the first divergence found.
bool bitwise_equal(const sim::TranResult& a, const sim::TranResult& b) {
    if (a.time.size() != b.time.size() || a.waves.size() != b.waves.size() ||
        a.average.size() != b.average.size()) {
        std::fprintf(stderr,
                     "  shape mismatch: %zu vs %zu samples, %zu vs %zu probes\n",
                     a.time.size(), b.time.size(), a.waves.size(), b.waves.size());
        return false;
    }
    if (std::memcmp(a.time.data(), b.time.data(), a.time.size() * sizeof(double))) {
        std::fprintf(stderr, "  time axis diverged\n");
        return false;
    }
    for (size_t p = 0; p < a.waves.size(); ++p) {
        if (a.waves[p].size() != b.waves[p].size() ||
            std::memcmp(a.waves[p].data(), b.waves[p].data(),
                        a.waves[p].size() * sizeof(double))) {
            for (size_t k = 0; k < a.waves[p].size(); ++k)
                if (a.waves[p][k] != b.waves[p][k]) {
                    std::fprintf(stderr,
                                 "  probe '%s' diverged at sample %zu: "
                                 "%.17g vs %.17g\n",
                                 a.probe_names[p].c_str(), k, a.waves[p][k],
                                 b.waves[p][k]);
                    break;
                }
            return false;
        }
    }
    if (std::memcmp(a.average.data(), b.average.data(),
                    a.average.size() * sizeof(double))) {
        std::fprintf(stderr, "  accumulated averages diverged\n");
        return false;
    }
    return true;
}

void scrub_snapshots(const Args& a) {
    const std::string path = sim::checkpoint_path(a.dir, "chaos");
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
}

int run_trials(const Args& a) {
    ::mkdir(a.dir.c_str(), 0755);
    util::set_default_thread_count(a.threads);

    std::printf("chaos_resume: reference run (%ld steps, %d thread%s)...\n",
                a.steps, a.threads, a.threads == 1 ? "" : "s");
    circuit::Netlist ref_nl = chaos_netlist();
    const sim::TranResult reference = sim::transient(ref_nl, kProbes, chaos_options(a));

    const std::string ckpt_path = sim::checkpoint_path(a.dir, "chaos");
    uint64_t rng = a.seed;
    int failures = 0;
    for (long trial = 0; trial < a.trials; ++trial) {
        scrub_snapshots(a);
        // Even trials wait for the first snapshot so resume genuinely
        // continues mid-run; odd trials race from process start and may
        // kill before any snapshot lands (fresh-start resume path).
        const bool wait_for_ckpt = trial % 2 == 0;
        const long delay_us = static_cast<long>(next_rand(rng) % 50000);

        const pid_t child = fork();
        if (child < 0) {
            std::perror("chaos_resume: fork");
            return 2;
        }
        if (child == 0) {
            // Child: run the checkpointed transient to completion (unless
            // killed first).  _exit keeps the parent's stdio buffers from
            // being flushed twice.
            try {
                circuit::Netlist nl = chaos_netlist();
                sim::transient(nl, kProbes, checkpointed_options(a));
            } catch (...) {
                _exit(3);
            }
            _exit(0);
        }

        if (wait_for_ckpt) {
            // Poll until the first snapshot is published (or the child
            // finishes early — resume then replays the completed state).
            for (int spins = 0; spins < 200000; ++spins) {
                if (file_exists(ckpt_path)) break;
                if (waitpid(child, nullptr, WNOHANG) == child) break;
                sleep_us(100);
            }
        }
        sleep_us(delay_us);
        kill(child, SIGKILL);
        int status = 0;
        waitpid(child, &status, 0);
        const bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
        const bool have_snapshot = file_exists(ckpt_path) ||
                                   file_exists(ckpt_path + ".prev");

        std::printf("trial %ld/%ld: %s after %ld us (%s), resuming...\n",
                    trial + 1, a.trials,
                    killed ? "SIGKILLed" : "child finished",
                    delay_us, have_snapshot ? "snapshot on disk" : "no snapshot yet");

        sim::TranOptions resume_opt = checkpointed_options(a);
        resume_opt.checkpoint.resume = true;
        circuit::Netlist nl = chaos_netlist();
        sim::TranResult resumed;
        try {
            resumed = sim::resume_transient(nl, kProbes, resume_opt);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "trial %ld: resume raised: %s\n", trial + 1, e.what());
            ++failures;
            continue;
        }
        if (bitwise_equal(reference, resumed)) {
            std::printf("trial %ld: PASS (bit-identical to the clean run)\n",
                        trial + 1);
        } else {
            std::fprintf(stderr, "trial %ld: FAIL (resumed run diverged)\n",
                         trial + 1);
            ++failures;
        }
    }
    scrub_snapshots(a);
    if (failures) {
        std::fprintf(stderr, "chaos_resume: %d of %ld trials FAILED\n", failures,
                     a.trials);
        return 1;
    }
    std::printf("chaos_resume: all %ld trials passed\n", a.trials);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--trials") a.trials = parse_long(argv[i], next), ++i;
        else if (arg == "--seed") a.seed = static_cast<uint64_t>(parse_long(argv[i], next)), ++i;
        else if (arg == "--threads") a.threads = static_cast<int>(parse_long(argv[i], next)), ++i;
        else if (arg == "--steps") a.steps = parse_long(argv[i], next), ++i;
        else if (arg == "--every") a.every = parse_long(argv[i], next), ++i;
        else if (arg == "--dir") {
            if (!next) usage("--dir needs a path");
            a.dir = next;
            ++i;
        } else {
            usage(format("unknown flag '%s'", arg.c_str()).c_str());
        }
    }
    if (a.trials <= 0) usage("--trials must be positive");
    if (a.steps <= 0 || a.every <= 0) usage("--steps/--every must be positive");
    try {
        return run_trials(a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "chaos_resume: %s\n", e.what());
        return 2;
    }
}
