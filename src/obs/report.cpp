#include "obs/report.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/events.hpp"
#include "obs/provenance.hpp"
#include "obs/timeseries.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace snim::obs {

namespace {

Json phase_node_json(const PhaseNode& node) {
    JsonObject out;
    out.emplace("name", node.name);
    out.emplace("path", node.path);
    out.emplace("calls", node.calls);
    out.emplace("seconds", node.seconds);
    if (node.rss_samples > 0) {
        out.emplace("rss_delta_bytes", static_cast<double>(node.rss_delta_bytes));
        out.emplace("rss_peak_bytes", static_cast<double>(node.rss_peak_bytes));
    }
    if (!node.children.empty()) {
        JsonArray kids;
        kids.reserve(node.children.size());
        for (const auto& c : node.children) kids.push_back(phase_node_json(c));
        out.emplace("children", std::move(kids));
    }
    return Json(std::move(out));
}

std::string mb_string(double bytes, bool signed_fmt) {
    const double mb = bytes / (1024.0 * 1024.0);
    return format(signed_fmt ? "%+.1f" : "%.1f", mb);
}

void phase_rows(const PhaseNode& node, int depth, Table& t) {
    if (depth >= 0) { // skip the structural root
        const std::string label = std::string(static_cast<size_t>(2 * depth), ' ') +
                                  (node.name.empty() ? "(root)" : node.name);
        t.add_row({label, node.calls ? format("%llu", static_cast<unsigned long long>(node.calls)) : "-",
                   node.calls ? format("%.4f", node.seconds) : "-",
                   node.calls && node.seconds > 0.0
                       ? format("%.3g", node.seconds / static_cast<double>(node.calls))
                       : "-",
                   node.rss_samples
                       ? mb_string(static_cast<double>(node.rss_delta_bytes), true)
                       : "-",
                   node.rss_samples
                       ? mb_string(static_cast<double>(node.rss_peak_bytes), false)
                       : "-"});
    }
    for (const auto& c : node.children) phase_rows(c, depth + 1, t);
}

std::mutex g_bundle_dir_mutex;
std::string g_bundle_dir;

} // namespace

Json report_json() {
    JsonObject root;

    // Phase tree plus a flat map for easy lookup by full path.
    const PhaseNode tree = phase_tree();
    JsonArray top;
    for (const auto& c : tree.children) top.push_back(phase_node_json(c));
    root.emplace("phases", std::move(top));

    JsonObject flat;
    for (const auto& [name, stats] : phases_snapshot()) {
        JsonObject p;
        p.emplace("calls", stats.calls);
        p.emplace("seconds", stats.seconds);
        if (stats.rss_samples > 0) {
            p.emplace("rss_delta_bytes", static_cast<double>(stats.rss_delta_bytes));
            p.emplace("rss_peak_bytes", static_cast<double>(stats.rss_peak_bytes));
        }
        flat.emplace(name, std::move(p));
    }
    root.emplace("phases_flat", std::move(flat));

    JsonObject counters;
    for (const auto& [name, v] : counters_snapshot()) counters.emplace(name, v);
    root.emplace("counters", std::move(counters));

    JsonObject values;
    for (const auto& [name, s] : values_snapshot()) {
        JsonObject v;
        v.emplace("count", s.count);
        v.emplace("sum", s.sum);
        v.emplace("min", s.min);
        v.emplace("max", s.max);
        v.emplace("mean", s.mean);
        v.emplace("p50", s.p50);
        v.emplace("p95", s.p95);
        values.emplace(name, std::move(v));
    }
    root.emplace("values", std::move(values));

    // Time-series channels as summaries (full samples stay in VCD/trace
    // exports): enough for snim_report to align channels by name and spot a
    // channel that vanished or changed shape between runs.
    JsonObject channels;
    for (const auto& ts : ts_snapshot()) {
        JsonObject c;
        c.emplace("unit", ts.unit);
        c.emplace("offered", ts.offered);
        c.emplace("kept", static_cast<uint64_t>(ts.value.size()));
        if (!ts.value.empty()) {
            double lo = ts.value.front(), hi = ts.value.front(), sum = 0.0;
            for (const double v : ts.value) {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
                sum += v;
            }
            c.emplace("min", lo);
            c.emplace("max", hi);
            c.emplace("mean", sum / static_cast<double>(ts.value.size()));
            c.emplace("last", ts.value.back());
        }
        channels.emplace(ts.name, std::move(c));
    }
    root.emplace("timeseries", std::move(channels));

    JsonObject log;
    log.emplace("warnings", log_emit_count(LogLevel::Warn));
    log.emplace("infos", log_emit_count(LogLevel::Info));
    root.emplace("log", std::move(log));

    return Json(std::move(root));
}

std::string report_text() {
    std::string out = "== observability report ==\n";

    const PhaseNode tree = phase_tree();
    if (!tree.children.empty()) {
        Table phases({"phase", "calls", "seconds", "s/call", "rssΔ[MB]", "peak[MB]"});
        phase_rows(tree, -1, phases);
        out += phases.to_string();
    }

    const auto counters = counters_snapshot();
    if (!counters.empty()) {
        Table t({"counter", "value"});
        for (const auto& [name, v] : counters)
            t.add_row({name, format("%llu", static_cast<unsigned long long>(v))});
        out += t.to_string();
    }

    const auto values = values_snapshot();
    if (!values.empty()) {
        Table t({"value", "count", "mean", "min", "p50", "p95", "max"});
        for (const auto& [name, s] : values)
            t.add_row({name, format("%llu", static_cast<unsigned long long>(s.count)),
                       format("%.4g", s.mean), format("%.4g", s.min),
                       format("%.4g", s.p50), format("%.4g", s.p95),
                       format("%.4g", s.max)});
        out += t.to_string();
    }

    const size_t warns = log_emit_count(LogLevel::Warn);
    if (warns > 0) out += format("log warnings: %zu\n", warns);
    return out;
}

void write_env_report() {
    switch (report_mode()) {
        case ReportMode::None:
            return;
        case ReportMode::Text:
            std::fputs(report_text().c_str(), stderr);
            return;
        case ReportMode::Json: {
            const char* env = std::getenv("SNIM_OBS_FILE");
            const std::string path = env && *env ? env : "snim_obs_report.json";
            try {
                write_json_file(path, report_json(), 2);
            } catch (const Error& e) {
                log_warn("obs: cannot write report to '%s': %s", path.c_str(),
                         e.what());
                return;
            }
            log_info("obs: run report written to %s", path.c_str());
            return;
        }
    }
}

JsonArray event_tail_json() {
    JsonArray events;
    for (const std::string& line : event_tail()) {
        try {
            events.push_back(Json::parse(line));
        } catch (const Error&) {
            // A torn or overwritten ring record slipped through; drop it.
        }
    }
    return events;
}

void set_bundle_dir(std::string dir) {
    std::lock_guard<std::mutex> lock(g_bundle_dir_mutex);
    g_bundle_dir = std::move(dir);
}

std::string write_bundle(std::string_view kind, JsonObject payload) {
    static std::atomic<int> seq{0};
    try {
        if (auto m = current_manifest()) payload["manifest"] = manifest_json(*m);
        payload["registry"] = report_json();
        if (JsonArray events = event_tail_json(); !events.empty())
            payload["events"] = Json(std::move(events));
        const std::string doc = Json(std::move(payload)).dump(1);

        std::unique_lock<std::mutex> lock(g_bundle_dir_mutex);
        const std::string dir = g_bundle_dir.empty() ? "." : g_bundle_dir;
        lock.unlock();
        const std::string run = current_run_id();
        std::string path;
        std::FILE* f = nullptr;
        for (int attempt = 0; attempt < 10000 && !f; ++attempt) {
            path = format("%s/snim_%.*s_%s_%04d.json", dir.c_str(),
                          static_cast<int>(kind.size()), kind.data(), run.c_str(),
                          seq.fetch_add(1));
            f = std::fopen(path.c_str(), "wx"); // "x": O_CREAT|O_EXCL claim
        }
        if (!f) return {};
        std::fclose(f);
        util::write_file_atomic(path, doc + "\n");
        return path;
    } catch (...) {
        return {};
    }
}

} // namespace snim::obs
