// snim_report — cross-run comparison front-end.
//
//   snim_report diff  OLD.json NEW.json [--tol-runtime PCT] [--tol-accuracy DB]
//                     [--tol-rss PCT] [--tol-counter PCT] [--tol-budget DB]
//                     [--limit N] [--fail-on-regress]
//   snim_report trend LEDGER.jsonl [--last N] [--html FILE]
//   snim_report show  RUN.json [--events]
//   snim_report budget RUN.json [--limit N] [--fail-on-breach]
//
// `diff` is the one comparison of two runs: it aligns two BENCH_*.json
// reports by scenario and metric name (runtime, accuracy, peak RSS,
// counters, channels and accuracy-budget stages), prints the ranked
// regression table, and — only under --fail-on-regress — exits 1 when any
// metric regressed beyond tolerance, which is how CI gates a run against
// the committed baseline.  `trend` renders a snim_bench --ledger history as
// sparklines (text) or a self-contained HTML page with a collapsible phase
// flame view.  `show` pretty-prints a single report's manifest and
// scenarios.  `budget` prints one report's ranked accuracy-budget ledger
// (worst margin first) with the per-scenario solve-certificate summaries.
// Numeric flag values are checked: tolerances are finite and >= 0, counts
// whole numbers.  Exit codes: 0 ok, 1 gated regression/breach, 2 usage or
// I/O error.
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/compare.hpp"
#include "obs/json.hpp"
#include "obs/run_ledger.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace {

using namespace snim;
using namespace snim::obs;

[[noreturn]] void usage(const char* msg = nullptr) {
    if (msg) std::fprintf(stderr, "snim_report: %s\n\n", msg);
    std::fputs(
        "usage:\n"
        "  snim_report diff OLD.json NEW.json [options]\n"
        "      --tol-runtime PCT   runtime noise tolerance, percent (default 25)\n"
        "      --tol-accuracy DB   accuracy noise tolerance, dB (default 0.05)\n"
        "      --tol-rss PCT       peak-RSS noise tolerance, percent (default 30)\n"
        "      --tol-counter PCT   counter tolerance, percent (default 0)\n"
        "      --tol-budget DB     accuracy-budget margin tolerance, dB (default\n"
        "                          0.5; a margin crossing 0 dB regresses anyway)\n"
        "      --limit N           show at most N non-regression rows\n"
        "      --fail-on-regress   exit 1 when anything regressed beyond tolerance\n"
        "  snim_report trend LEDGER.jsonl [--last N] [--html FILE]\n"
        "  snim_report show RUN.json [--events]\n"
        "      --events            print the live event-journal tail and top\n"
        "                          sampled stacks instead of the summary\n"
        "  snim_report budget RUN.json [options]\n"
        "      --limit N           show at most N unbreached budget rows\n"
        "      --fail-on-breach    exit 1 when any stage is over budget or a\n"
        "                          solve certificate recorded a breach\n",
        stderr);
    std::exit(2);
}

/// A tolerance: a finite number >= 0.
double parse_tolerance(const char* flag, const char* value) {
    if (!value) usage(format("%s needs a value", flag).c_str());
    char* end = nullptr;
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || !std::isfinite(v) || v < 0.0)
        usage(format("%s wants a finite number >= 0, got '%s'", flag, value).c_str());
    return v;
}

/// A row or run count: a whole decimal number.
size_t parse_count(const char* flag, const char* value) {
    if (!value) usage(format("%s needs a value", flag).c_str());
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(value, &end, 10);
    // strtoull skips blanks and wraps a leading '-': take digits only.
    if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end != '\0' ||
        errno == ERANGE || v > SIZE_MAX)
        usage(format("%s wants a whole number >= 0, got '%s'", flag, value).c_str());
    return static_cast<size_t>(v);
}

Json load_json(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) raise("cannot open '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    // A report file from a killed run (or a partial download) must be a
    // named, non-zero-exit error — not a raw parse backtrace or a crash.
    try {
        return Json::parse(ss.str());
    } catch (const Error& e) {
        raise("'%s' is not a valid snim report (truncated or corrupt JSON): %s",
              path.c_str(), e.what());
    }
}

int cmd_diff(int argc, char** argv) {
    std::vector<std::string> files;
    DiffTolerances tol;
    size_t limit = 0;
    bool fail_on_regress = false;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--tol-runtime") tol.runtime_pct = parse_tolerance(argv[i], next), ++i;
        else if (a == "--tol-accuracy") tol.accuracy_db = parse_tolerance(argv[i], next), ++i;
        else if (a == "--tol-rss") tol.rss_pct = parse_tolerance(argv[i], next), ++i;
        else if (a == "--tol-counter") tol.counter_pct = parse_tolerance(argv[i], next), ++i;
        else if (a == "--tol-budget") tol.budget_db = parse_tolerance(argv[i], next), ++i;
        else if (a == "--limit") limit = parse_count(argv[i], next), ++i;
        else if (a == "--fail-on-regress") fail_on_regress = true;
        else if (!a.empty() && a[0] == '-') usage(format("unknown flag '%s'", a.c_str()).c_str());
        else files.push_back(a);
    }
    if (files.size() != 2) usage("diff needs exactly two report files");

    const ReportDiff d = diff_reports(load_json(files[0]), load_json(files[1]), tol);
    std::fputs(diff_table(d, limit).c_str(), stdout);
    if (diff_has_regression(d)) {
        if (fail_on_regress) {
            std::fputs("FAIL: regression beyond tolerance\n", stdout);
            return 1;
        }
        std::fputs("note: regression beyond tolerance "
                   "(pass --fail-on-regress to gate on it)\n",
                   stdout);
    }
    return 0;
}

int cmd_trend(int argc, char** argv) {
    std::string ledger_path, html_path;
    size_t last = 0;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--last") last = parse_count(argv[i], next), ++i;
        else if (a == "--html") {
            if (!next) usage("--html needs a file name");
            html_path = next;
            ++i;
        } else if (!a.empty() && a[0] == '-') {
            usage(format("unknown flag '%s'", a.c_str()).c_str());
        } else if (ledger_path.empty()) {
            ledger_path = a;
        } else {
            usage("trend takes one ledger file");
        }
    }
    if (ledger_path.empty()) usage("trend needs a ledger file");

    std::vector<Json> entries = read_ledger(ledger_path);
    if (last > 0 && entries.size() > last)
        entries.erase(entries.begin(),
                      entries.begin() + static_cast<long>(entries.size() - last));

    std::fputs(trend_text(entries).c_str(), stdout);
    if (!html_path.empty()) {
        util::write_file_atomic(html_path, trend_html(entries));
        std::printf("HTML trend written to %s\n", html_path.c_str());
    }
    return 0;
}

int cmd_show(int argc, char** argv) {
    std::string path;
    bool events = false;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--events") events = true;
        else if (!a.empty() && a[0] == '-')
            usage(format("unknown flag '%s'", a.c_str()).c_str());
        else if (path.empty()) path = a;
        else usage("show takes one report file");
    }
    if (path.empty()) usage("show needs one report file");
    const Json report = load_json(path);
    if (events) {
        std::fputs(show_events(report).c_str(), stdout);
        return 0;
    }
    std::fputs(show_report(report).c_str(), stdout);
    return 0;
}

int cmd_budget(int argc, char** argv) {
    std::string path;
    size_t limit = 0;
    bool fail_on_breach = false;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--limit") limit = parse_count(argv[i], next), ++i;
        else if (a == "--fail-on-breach") fail_on_breach = true;
        else if (!a.empty() && a[0] == '-') usage(format("unknown flag '%s'", a.c_str()).c_str());
        else if (path.empty()) path = a;
        else usage("budget takes one report file (compare two with `diff`)");
    }
    if (path.empty()) usage("budget needs a report file");

    const Json report = load_json(path);
    std::fputs(budget_table(report, limit).c_str(), stdout);
    if (!budget_has_breach(report)) return 0;
    if (fail_on_breach) {
        std::fputs("FAIL: accuracy budget breached\n", stdout);
        return 1;
    }
    std::fputs("note: accuracy budget breached (pass --fail-on-breach to gate on it)\n",
               stdout);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) usage();
    const std::string cmd = argv[1];
    try {
        if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
        if (cmd == "trend") return cmd_trend(argc - 2, argv + 2);
        if (cmd == "show") return cmd_show(argc - 2, argv + 2);
        if (cmd == "budget") return cmd_budget(argc - 2, argv + 2);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "snim_report: %s\n", e.what());
        return 2;
    }
    usage(format("unknown command '%s'", cmd.c_str()).c_str());
}
