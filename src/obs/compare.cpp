#include "obs/compare.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "obs/bench.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace snim::obs {

namespace {

constexpr const char* kSparks[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};

double num_or(const Json& obj, const std::string& key, double fallback) {
    if (!obj.contains(key)) return fallback;
    const Json& v = obj.at(key);
    return v.is_number() ? v.as_number() : fallback;
}

std::string str_or(const Json& obj, const std::string& key,
                   const std::string& fallback) {
    if (!obj.contains(key)) return fallback;
    const Json& v = obj.at(key);
    return v.is_string() ? v.as_string() : fallback;
}

/// Scenario entries of a bench report keyed by name, in document order.
std::vector<std::pair<std::string, const Json*>> scenario_list(const Json& report) {
    if (!report.is_object() || !report.contains("scenarios") ||
        !report.at("scenarios").is_array())
        raise("diff: input is not a snim_bench report (no scenarios array)");
    std::vector<std::pair<std::string, const Json*>> out;
    for (const auto& s : report.at("scenarios").as_array())
        out.emplace_back(s.at("name").as_string(), &s);
    return out;
}

const Json* find_scenario(const std::vector<std::pair<std::string, const Json*>>& list,
                          const std::string& name) {
    for (const auto& [n, p] : list)
        if (n == name) return p;
    return nullptr;
}

/// A bench report's schema_version; raises outside [1, kBenchSchemaVersion],
/// so a report of a newer layout, or a document that is no report, is
/// refused by name instead of being compared member by member.
int checked_schema(const Json& report, const char* side) {
    if (!report.contains("schema_version"))
        raise("diff: the %s document is not a snim_bench report (no schema_version)",
              side);
    const double v = num_or(report, "schema_version", 0.0);
    if (!(v >= 1.0 && v <= kBenchSchemaVersion))
        raise("diff: the %s report's schema_version %g is outside the supported "
              "range 1..%d",
              side, v, kBenchSchemaVersion);
    return static_cast<int>(v);
}

double pct_change(double a, double b) {
    if (a == 0.0) return b == 0.0 ? 0.0 : 100.0;
    return (b - a) / std::fabs(a) * 100.0;
}

/// Classifies a lower-is-better metric against a relative tolerance.
DiffVerdict classify_pct(double a, double b, double tol_pct) {
    if (a == b) return DiffVerdict::Equal;
    if (std::fabs(pct_change(a, b)) <= tol_pct) return DiffVerdict::Within;
    return b > a ? DiffVerdict::Regress : DiffVerdict::Improve;
}

/// Classifies a lower-is-better metric against an absolute tolerance.
DiffVerdict classify_abs(double a, double b, double tol_abs) {
    if (a == b) return DiffVerdict::Equal;
    if (std::fabs(b - a) <= tol_abs) return DiffVerdict::Within;
    return b > a ? DiffVerdict::Regress : DiffVerdict::Improve;
}

void push_metric(ReportDiff& d, const std::string& scenario,
                 const std::string& metric, double a, double b,
                 DiffVerdict verdict, std::string detail = {}) {
    MetricDiff m;
    m.scenario = scenario;
    m.metric = metric;
    m.a = a;
    m.b = b;
    m.change_pct = pct_change(a, b);
    m.verdict = verdict;
    m.detail = std::move(detail);
    d.metrics.push_back(std::move(m));
}

/// accuracy arrays keyed by metric name → (delta_db, pass).
std::map<std::string, std::pair<double, bool>> accuracy_map(const Json& scenario) {
    std::map<std::string, std::pair<double, bool>> out;
    if (!scenario.contains("accuracy") || !scenario.at("accuracy").is_array())
        return out;
    for (const auto& m : scenario.at("accuracy").as_array()) {
        bool pass = true;
        if (m.contains("pass") && m.at("pass").is_bool()) pass = m.at("pass").as_bool();
        out.emplace(m.at("name").as_string(),
                    std::make_pair(num_or(m, "delta_db", 0.0), pass));
    }
    return out;
}

std::map<std::string, double> counters_map(const Json& scenario) {
    std::map<std::string, double> out;
    if (!scenario.contains("registry")) return out;
    const Json& reg = scenario.at("registry");
    if (!reg.is_object() || !reg.contains("counters") ||
        !reg.at("counters").is_object())
        return out;
    for (const auto& [name, v] : reg.at("counters").as_object())
        if (v.is_number()) out.emplace(name, v.as_number());
    return out;
}

/// timeseries channel name → offered sample count.
std::map<std::string, double> timeseries_map(const Json& scenario) {
    std::map<std::string, double> out;
    if (!scenario.contains("registry")) return out;
    const Json& reg = scenario.at("registry");
    if (!reg.is_object() || !reg.contains("timeseries") ||
        !reg.at("timeseries").is_object())
        return out;
    for (const auto& [name, v] : reg.at("timeseries").as_object())
        if (v.is_object()) out.emplace(name, num_or(v, "offered", 0.0));
    return out;
}

/// budget array (schema 4) keyed by stage -> margin_db.
std::map<std::string, double> budget_map(const Json& scenario) {
    std::map<std::string, double> out;
    if (!scenario.contains("budget") || !scenario.at("budget").is_array())
        return out;
    for (const auto& e : scenario.at("budget").as_array())
        if (e.is_object() && e.contains("stage") && e.at("stage").is_string())
            out.emplace(e.at("stage").as_string(), num_or(e, "margin_db", 0.0));
    return out;
}

void diff_scenario(ReportDiff& d, const std::string& name, const Json& sa,
                   const Json& sb, const DiffTolerances& tol) {
    // Runtime: median is the headline number; min backs it up when the
    // median is noisy (min is the least scheduler-contaminated sample).
    const double med_a = sa.at("runtime").at("median_s").as_number();
    const double med_b = sb.at("runtime").at("median_s").as_number();
    push_metric(d, name, "runtime/median_s", med_a, med_b,
                classify_pct(med_a, med_b, tol.runtime_pct));

    // Accuracy deltas, aligned by metric name; a pass→fail flip regresses
    // regardless of the dB tolerance.
    const auto acc_a = accuracy_map(sa);
    const auto acc_b = accuracy_map(sb);
    for (const auto& [mname, va] : acc_a) {
        const auto it = acc_b.find(mname);
        if (it == acc_b.end()) {
            push_metric(d, name, "accuracy/" + mname, va.first, 0.0,
                        DiffVerdict::OnlyA, "metric missing from new run");
            continue;
        }
        DiffVerdict v = classify_abs(va.first, it->second.first, tol.accuracy_db);
        std::string detail;
        if (va.second && !it->second.second) {
            v = DiffVerdict::Regress;
            detail = "accuracy gate flipped pass -> fail";
        } else if (!va.second && it->second.second) {
            v = DiffVerdict::Improve;
            detail = "accuracy gate flipped fail -> pass";
        }
        push_metric(d, name, "accuracy/" + mname, va.first, it->second.first, v,
                    std::move(detail));
    }
    for (const auto& [mname, vb] : acc_b)
        if (!acc_a.count(mname))
            push_metric(d, name, "accuracy/" + mname, 0.0, vb.first,
                        DiffVerdict::OnlyB, "metric new in this run");

    // Peak RSS (schema 2; absent members are simply not compared).
    if (sa.contains("peak_rss_bytes") && sb.contains("peak_rss_bytes")) {
        const double ra = num_or(sa, "peak_rss_bytes", 0.0);
        const double rb = num_or(sb, "peak_rss_bytes", 0.0);
        if (ra > 0.0 || rb > 0.0)
            push_metric(d, name, "rss/peak_bytes", ra, rb,
                        classify_pct(ra, rb, tol.rss_pct));
    }

    // Registry counters: deterministic per seed, so exact by default.
    const auto cnt_a = counters_map(sa);
    const auto cnt_b = counters_map(sb);
    for (const auto& [cname, va] : cnt_a) {
        const auto it = cnt_b.find(cname);
        if (it == cnt_b.end()) {
            push_metric(d, name, "counter/" + cname, va, 0.0, DiffVerdict::OnlyA,
                        "counter missing from new run");
            continue;
        }
        push_metric(d, name, "counter/" + cname, va, it->second,
                    classify_pct(va, it->second, tol.counter_pct));
    }
    for (const auto& [cname, vb] : cnt_b)
        if (!cnt_a.count(cname))
            push_metric(d, name, "counter/" + cname, 0.0, vb, DiffVerdict::OnlyB,
                        "counter new in this run");

    // Time-series channels by name: an offered-count change means the run
    // took a different trajectory (different step count / recovery path);
    // direction is meaningless, so any out-of-tolerance change regresses.
    const auto ts_a = timeseries_map(sa);
    const auto ts_b = timeseries_map(sb);
    for (const auto& [tname, va] : ts_a) {
        const auto it = ts_b.find(tname);
        if (it == ts_b.end()) {
            push_metric(d, name, "ts/" + tname, va, 0.0, DiffVerdict::OnlyA,
                        "channel missing from new run");
            continue;
        }
        DiffVerdict v = classify_pct(va, it->second, tol.timeseries_pct);
        if (v == DiffVerdict::Improve) v = DiffVerdict::Regress;
        push_metric(d, name, "ts/" + tname, va, it->second, v,
                    v == DiffVerdict::Regress ? "offered sample count changed" : "");
    }
    for (const auto& [tname, vb] : ts_b)
        if (!ts_a.count(tname))
            push_metric(d, name, "ts/" + tname, 0.0, vb, DiffVerdict::OnlyB,
                        "channel new in this run");

    // Accuracy-budget stages (schema 4), aligned by stage name on margin_db
    // (lower is better: negative = headroom).  A margin crossing 0 dB flips
    // the verdict to Regress/Improve regardless of the dB tolerance.
    const auto bud_a = budget_map(sa);
    const auto bud_b = budget_map(sb);
    for (const auto& [stage, ma] : bud_a) {
        const auto it = bud_b.find(stage);
        if (it == bud_b.end()) {
            push_metric(d, name, "budget/" + stage, ma, 0.0, DiffVerdict::OnlyA,
                        "budget stage missing from new run");
            continue;
        }
        const double mb = it->second;
        DiffVerdict v = classify_abs(ma, mb, tol.budget_db);
        std::string detail;
        if (ma <= 0.0 && mb > 0.0) {
            v = DiffVerdict::Regress;
            detail = "budget crossed into breach";
        } else if (ma > 0.0 && mb <= 0.0) {
            v = DiffVerdict::Improve;
            detail = "budget breach cleared";
        }
        push_metric(d, name, "budget/" + stage, ma, mb, v, std::move(detail));
    }
    for (const auto& [stage, mb] : bud_b)
        if (!bud_a.count(stage))
            push_metric(d, name, "budget/" + stage, 0.0, mb, DiffVerdict::OnlyB,
                        "budget stage new in this run");
}

int verdict_rank(DiffVerdict v) {
    switch (v) {
        case DiffVerdict::Regress: return 0;
        case DiffVerdict::OnlyA: return 1;
        case DiffVerdict::OnlyB: return 2;
        case DiffVerdict::Improve: return 3;
        case DiffVerdict::Within: return 4;
        case DiffVerdict::Equal: return 5;
    }
    return 6;
}

std::string metric_value(const std::string& metric, double v) {
    if (metric.rfind("runtime/", 0) == 0) return format("%.4f", v);
    if (metric.rfind("accuracy/", 0) == 0) return format("%.3f", v);
    if (metric.rfind("rss/", 0) == 0)
        return format("%.1fM", v / (1024.0 * 1024.0));
    if (metric.rfind("budget/", 0) == 0) return format("%+.2fdB", v);
    return format("%.6g", v);
}

std::string html_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '&': out += "&amp;"; break;
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '"': out += "&quot;"; break;
            default: out.push_back(c);
        }
    }
    return out;
}

/// SVG polyline sparkline for the HTML trend view.
std::string svg_sparkline(const std::vector<double>& values, int w, int h) {
    if (values.empty()) return "";
    double lo = values.front(), hi = values.front();
    for (const double v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const double span = hi - lo;
    std::string pts;
    for (size_t i = 0; i < values.size(); ++i) {
        const double x = values.size() == 1
                             ? w / 2.0
                             : static_cast<double>(i) /
                                   static_cast<double>(values.size() - 1) * (w - 4) + 2;
        const double frac = span > 0.0 ? (values[i] - lo) / span : 0.5;
        const double y = (1.0 - frac) * (h - 4) + 2;
        pts += format("%s%.1f,%.1f", pts.empty() ? "" : " ", x, y);
    }
    return format(
        "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">"
        "<polyline fill=\"none\" stroke=\"#2a6\" stroke-width=\"1.5\" "
        "points=\"%s\"/></svg>",
        w, h, w, h, pts.c_str());
}

/// Nested <details> flame view of one phase-tree node array.
void phase_flame_html(const Json& phases, double root_seconds, std::string& out) {
    if (!phases.is_array()) return;
    for (const auto& p : phases.as_array()) {
        const std::string name = str_or(p, "name", "?");
        const double secs = num_or(p, "seconds", 0.0);
        const double calls = num_or(p, "calls", 0.0);
        const double frac =
            root_seconds > 0.0 ? std::min(1.0, secs / root_seconds) : 0.0;
        std::string label =
            format("%s — %.4fs, %.0f calls", html_escape(name).c_str(), secs, calls);
        if (p.contains("rss_delta_bytes"))
            label += format(", rssΔ %+.1fM, peak %.1fM",
                            num_or(p, "rss_delta_bytes", 0.0) / (1024.0 * 1024.0),
                            num_or(p, "rss_peak_bytes", 0.0) / (1024.0 * 1024.0));
        const bool leaf = !p.contains("children");
        const std::string bar = format(
            "<div class=\"bar\"><div class=\"fill\" style=\"width:%.1f%%\"></div></div>",
            frac * 100.0);
        if (leaf) {
            out += format("<div class=\"leaf\">%s %s</div>\n", label.c_str(),
                          bar.c_str());
        } else {
            out += format("<details open><summary>%s %s</summary>\n", label.c_str(),
                          bar.c_str());
            phase_flame_html(p.at("children"), root_seconds, out);
            out += "</details>\n";
        }
    }
}

/// Scenario names across all ledger entries, ordered by first appearance.
std::vector<std::string> ledger_scenarios(const std::vector<Json>& ledger) {
    std::vector<std::string> names;
    std::set<std::string> seen;
    for (const auto& e : ledger) {
        if (!e.is_object() || !e.contains("scenarios")) continue;
        for (const auto& s : e.at("scenarios").as_array()) {
            const std::string& n = s.at("name").as_string();
            if (seen.insert(n).second) names.push_back(n);
        }
    }
    return names;
}

const Json* ledger_find(const Json& entry, const std::string& scenario) {
    if (!entry.is_object() || !entry.contains("scenarios")) return nullptr;
    for (const auto& s : entry.at("scenarios").as_array())
        if (s.at("name").as_string() == scenario) return &s;
    return nullptr;
}

} // namespace

const char* diff_verdict_name(DiffVerdict v) {
    switch (v) {
        case DiffVerdict::Equal: return "EQUAL";
        case DiffVerdict::Within: return "WITHIN";
        case DiffVerdict::Improve: return "IMPROVE";
        case DiffVerdict::Regress: return "REGRESS";
        case DiffVerdict::OnlyA: return "ONLY-OLD";
        case DiffVerdict::OnlyB: return "ONLY-NEW";
    }
    return "?";
}

ReportDiff diff_reports(const Json& a, const Json& b, const DiffTolerances& tol) {
    ReportDiff d;
    d.schema_a = checked_schema(a, "old");
    d.schema_b = checked_schema(b, "new");
    if (a.contains("manifest") && b.contains("manifest")) {
        d.manifest_a = manifest_from_json(a.at("manifest"));
        d.manifest_b = manifest_from_json(b.at("manifest"));
        d.digests_known = !d.manifest_a.config_digest.empty() &&
                          !d.manifest_b.config_digest.empty();
        d.digests_match =
            d.digests_known && d.manifest_a.config_digest == d.manifest_b.config_digest;
    }

    const auto list_a = scenario_list(a);
    const auto list_b = scenario_list(b);

    for (const auto& [name, sa] : list_a) {
        const Json* sb = find_scenario(list_b, name);
        if (!sb) {
            d.only_in_a.push_back(name);
            push_metric(d, name, "scenario",
                        sa->at("runtime").at("median_s").as_number(), 0.0,
                        DiffVerdict::OnlyA, "scenario missing from new run");
            continue;
        }
        diff_scenario(d, name, *sa, *sb, tol);
    }
    for (const auto& [name, sb] : list_b) {
        if (find_scenario(list_a, name)) continue;
        d.only_in_b.push_back(name);
        push_metric(d, name, "scenario", 0.0,
                    sb->at("runtime").at("median_s").as_number(),
                    DiffVerdict::OnlyB, "scenario new in this run");
    }

    std::stable_sort(d.metrics.begin(), d.metrics.end(),
                     [](const MetricDiff& x, const MetricDiff& y) {
                         const int rx = verdict_rank(x.verdict);
                         const int ry = verdict_rank(y.verdict);
                         if (rx != ry) return rx < ry;
                         return std::fabs(x.change_pct) > std::fabs(y.change_pct);
                     });
    return d;
}

bool diff_has_regression(const ReportDiff& d) {
    for (const auto& m : d.metrics)
        if (m.verdict == DiffVerdict::Regress) return true;
    return false;
}

std::string diff_table(const ReportDiff& d, size_t limit) {
    std::string out;
    if (d.digests_known) {
        out += format("config digest: %s %s %s (%s)\n",
                      d.manifest_a.config_digest.c_str(),
                      d.digests_match ? "==" : "!=",
                      d.manifest_b.config_digest.c_str(),
                      d.digests_match ? "same configuration"
                                      : "DIFFERENT configuration — not like-for-like");
        if (!d.manifest_a.run_id.empty())
            out += format("runs: %s (%s) -> %s (%s)\n", d.manifest_a.run_id.c_str(),
                          d.manifest_a.created_utc.c_str(),
                          d.manifest_b.run_id.c_str(),
                          d.manifest_b.created_utc.c_str());
    } else {
        out += format("config digest: unavailable (schema %d vs %d report)\n",
                      d.schema_a, d.schema_b);
    }

    Table t({"verdict", "scenario", "metric", "old", "new", "change", "detail"});
    size_t shown = 0, hidden = 0;
    for (const auto& m : d.metrics) {
        // Equal rows are noise at scale; regressions always survive `limit`.
        if (m.verdict == DiffVerdict::Equal) continue;
        if (limit > 0 && shown >= limit && m.verdict != DiffVerdict::Regress) {
            ++hidden;
            continue;
        }
        const bool has_a = m.verdict != DiffVerdict::OnlyB;
        const bool has_b = m.verdict != DiffVerdict::OnlyA;
        t.add_row({diff_verdict_name(m.verdict), m.scenario, m.metric,
                   has_a ? metric_value(m.metric, m.a) : "-",
                   has_b ? metric_value(m.metric, m.b) : "-",
                   has_a && has_b ? format("%+.1f%%", m.change_pct) : "-", m.detail});
        ++shown;
    }
    if (shown > 0)
        out += t.to_string();
    else
        out += "no differences beyond equality\n";
    if (hidden > 0) out += format("(%zu non-regression rows hidden by --limit)\n", hidden);

    size_t regress = 0, improve = 0, within = 0, equal = 0, only = 0;
    for (const auto& m : d.metrics) {
        switch (m.verdict) {
            case DiffVerdict::Regress: ++regress; break;
            case DiffVerdict::Improve: ++improve; break;
            case DiffVerdict::Within: ++within; break;
            case DiffVerdict::Equal: ++equal; break;
            default: ++only;
        }
    }
    out += format("summary: %zu regressed, %zu improved, %zu within tolerance, "
                  "%zu equal, %zu unmatched\n",
                  regress, improve, within, equal, only);
    return out;
}

std::string budget_table(const Json& report, size_t limit) {
    if (!report.is_object() || !report.contains("scenarios") ||
        !report.at("scenarios").is_array())
        raise("budget: input is not a snim_bench report (no scenarios array)");

    struct Row {
        std::string scenario;
        std::string stage;
        const Json* e;
        double margin;
    };
    std::vector<Row> rows;
    for (const auto& s : report.at("scenarios").as_array()) {
        if (!s.is_object() || !s.contains("budget") || !s.at("budget").is_array())
            continue;
        const std::string sname = str_or(s, "name", "?");
        for (const auto& e : s.at("budget").as_array())
            if (e.is_object())
                rows.push_back({sname, str_or(e, "stage", "?"), &e,
                                num_or(e, "margin_db", 0.0)});
    }
    if (rows.empty())
        return "no accuracy-budget data (schema < 4 report or obs-off build)\n";
    std::stable_sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
        if (x.margin != y.margin) return x.margin > y.margin;
        if (x.scenario != y.scenario) return x.scenario < y.scenario;
        return x.stage < y.stage;
    });

    std::string out;
    Table t({"scenario", "stage", "worst", "threshold", "margin", "samples",
             "breaches", "detail"});
    size_t shown = 0, hidden = 0, breached = 0;
    for (const Row& r : rows) {
        const bool breach = r.margin > 0.0;
        if (breach) ++breached;
        // Breached stages always survive the cut, like diff regressions.
        if (limit > 0 && shown >= limit && !breach) {
            ++hidden;
            continue;
        }
        const std::string unit = str_or(*r.e, "unit", "");
        t.add_row({r.scenario, r.stage,
                   format("%.4g %s", num_or(*r.e, "worst", 0.0), unit.c_str()),
                   format("%.4g %s", num_or(*r.e, "threshold", 0.0), unit.c_str()),
                   format("%+.2f dB%s", r.margin, breach ? " OVER" : ""),
                   format("%.0f", num_or(*r.e, "samples", 0.0)),
                   format("%.0f", num_or(*r.e, "breaches", 0.0)),
                   str_or(*r.e, "detail", "")});
        ++shown;
    }
    out += t.to_string();
    if (hidden > 0) out += format("(%zu rows hidden by --limit)\n", hidden);

    for (const auto& s : report.at("scenarios").as_array()) {
        if (!s.is_object() || !s.contains("certificates") ||
            !s.at("certificates").is_object())
            continue;
        const Json& c = s.at("certificates");
        if (!c.contains("solves")) continue; // empty summary: nothing certified
        out += format("certificates[%s]: %.0f solves, %.0f breaches, %.0f "
                      "refinement steps, worst omega %.3g, min rcond %.3g\n",
                      str_or(s, "name", "?").c_str(), num_or(c, "solves", 0.0),
                      num_or(c, "breaches", 0.0),
                      num_or(c, "refinement_steps", 0.0),
                      num_or(c, "worst_omega", 0.0), num_or(c, "min_rcond", 0.0));
    }
    out += format("summary: %zu budget stages, %zu over budget\n", rows.size(),
                  breached);
    return out;
}

bool budget_has_breach(const Json& report) {
    if (!report.is_object() || !report.contains("scenarios") ||
        !report.at("scenarios").is_array())
        return false;
    for (const auto& s : report.at("scenarios").as_array()) {
        if (!s.is_object()) continue;
        if (s.contains("budget") && s.at("budget").is_array())
            for (const auto& e : s.at("budget").as_array())
                if (e.is_object() && num_or(e, "margin_db", 0.0) > 0.0)
                    return true;
        if (s.contains("certificates") && s.at("certificates").is_object() &&
            num_or(s.at("certificates"), "breaches", 0.0) > 0.0)
            return true;
    }
    return false;
}

std::string sparkline(const std::vector<double>& values) {
    if (values.empty()) return "";
    double lo = values.front(), hi = values.front();
    for (const double v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const double span = hi - lo;
    std::string out;
    for (const double v : values) {
        const double frac = span > 0.0 ? (v - lo) / span : 0.5;
        const int level =
            std::min(7, std::max(0, static_cast<int>(frac * 7.0 + 0.5)));
        out += kSparks[level];
    }
    return out;
}

std::string trend_text(const std::vector<Json>& ledger) {
    if (ledger.empty()) return "ledger is empty\n";
    std::string out = format("%zu runs in ledger\n", ledger.size());

    // Count distinct config digests — trends across configurations are
    // apples-to-oranges and the header says so.
    std::set<std::string> digests;
    for (const auto& e : ledger)
        if (e.is_object() && e.contains("manifest"))
            digests.insert(str_or(e.at("manifest"), "config_digest", ""));
    digests.erase("");
    if (digests.size() > 1)
        out += format("note: %zu distinct config digests in ledger — history "
                      "mixes configurations\n",
                      digests.size());
    else if (digests.size() == 1)
        out += format("config digest: %s (all runs)\n", digests.begin()->c_str());

    Table t({"scenario", "runs", "median_s history", "first_s", "last_s", "change",
             "accuracy"});
    for (const auto& name : ledger_scenarios(ledger)) {
        std::vector<double> medians;
        bool last_pass = true;
        double last_max_db = 0.0;
        for (const auto& e : ledger) {
            const Json* s = ledger_find(e, name);
            if (!s) continue;
            medians.push_back(num_or(*s, "median_s", 0.0));
            if (s->contains("accuracy_pass") && s->at("accuracy_pass").is_bool())
                last_pass = s->at("accuracy_pass").as_bool();
            last_max_db = num_or(*s, "accuracy_max_db", 0.0);
        }
        if (medians.empty()) continue;
        t.add_row({name, format("%zu", medians.size()), sparkline(medians),
                   format("%.4f", medians.front()), format("%.4f", medians.back()),
                   format("%+.1f%%", pct_change(medians.front(), medians.back())),
                   format("%s (%.2f dB)", last_pass ? "OK" : "FAIL", last_max_db)});
    }
    out += t.to_string();
    return out;
}

std::string trend_html(const std::vector<Json>& ledger) {
    std::string out =
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
        "<title>snim run trend</title>\n<style>\n"
        "body{font:14px/1.45 system-ui,sans-serif;margin:2em;max-width:70em}\n"
        "table{border-collapse:collapse;margin:1em 0}\n"
        "td,th{border:1px solid #ccc;padding:0.3em 0.7em;text-align:left}\n"
        "th{background:#f2f2f2}\n"
        ".fail{color:#b00;font-weight:bold}\n"
        ".bar{display:inline-block;width:14em;height:0.7em;background:#eee;"
        "vertical-align:middle;margin-left:0.5em}\n"
        ".fill{height:100%;background:#fa3}\n"
        "details{margin-left:1.2em}\n"
        ".leaf{margin-left:2.3em}\n"
        "summary{cursor:pointer}\n"
        "</style></head><body>\n<h1>snim run trend</h1>\n";
    out += format("<p>%zu runs in ledger</p>\n", ledger.size());

    out += "<h2>Scenario history</h2>\n<table>\n"
           "<tr><th>scenario</th><th>runs</th><th>median_s</th><th>first</th>"
           "<th>last</th><th>change</th><th>accuracy</th></tr>\n";
    for (const auto& name : ledger_scenarios(ledger)) {
        std::vector<double> medians;
        bool last_pass = true;
        double last_max_db = 0.0;
        for (const auto& e : ledger) {
            const Json* s = ledger_find(e, name);
            if (!s) continue;
            medians.push_back(num_or(*s, "median_s", 0.0));
            if (s->contains("accuracy_pass") && s->at("accuracy_pass").is_bool())
                last_pass = s->at("accuracy_pass").as_bool();
            last_max_db = num_or(*s, "accuracy_max_db", 0.0);
        }
        if (medians.empty()) continue;
        out += format(
            "<tr><td>%s</td><td>%zu</td><td>%s</td><td>%.4f</td><td>%.4f</td>"
            "<td>%+.1f%%</td><td%s>%s (%.2f dB)</td></tr>\n",
            html_escape(name).c_str(), medians.size(),
            svg_sparkline(medians, 160, 28).c_str(), medians.front(),
            medians.back(), pct_change(medians.front(), medians.back()),
            last_pass ? "" : " class=\"fail\"", last_pass ? "OK" : "FAIL",
            last_max_db);
    }
    out += "</table>\n";

    // Latest run: manifest card + per-scenario collapsible phase flame view.
    const Json& latest = ledger.back();
    if (latest.is_object() && latest.contains("manifest")) {
        const Json& m = latest.at("manifest");
        out += "<h2>Latest run</h2>\n<table>\n";
        for (const char* key : {"run_id", "tool", "config_digest", "created_utc",
                                "build_type", "hostname", "os", "sanitizers"}) {
            const std::string v = str_or(m, key, "");
            if (!v.empty())
                out += format("<tr><th>%s</th><td>%s</td></tr>\n", key,
                              html_escape(v).c_str());
        }
        out += format("<tr><th>seed</th><td>%llu</td></tr>\n",
                      static_cast<unsigned long long>(num_or(m, "seed", 0.0)));
        out += format("<tr><th>threads</th><td>%d</td></tr>\n",
                      static_cast<int>(num_or(m, "threads", 1.0)));
        out += "</table>\n";
    }
    if (latest.is_object() && latest.contains("scenarios")) {
        out += "<h2>Phase flame view (latest run)</h2>\n";
        for (const auto& s : latest.at("scenarios").as_array()) {
            if (!s.contains("phases")) continue;
            double root_seconds = 0.0;
            if (s.at("phases").is_array())
                for (const auto& p : s.at("phases").as_array())
                    root_seconds += num_or(p, "seconds", 0.0);
            out += format("<h3>%s</h3>\n",
                          html_escape(s.at("name").as_string()).c_str());
            phase_flame_html(s.at("phases"), root_seconds, out);
        }
    }
    out += "</body></html>\n";
    return out;
}

std::string show_report(const Json& report) {
    std::string out;
    const int schema = static_cast<int>(num_or(report, "schema_version", 0.0));
    out += format("schema %d, tool %s\n", schema,
                  str_or(report, "tool", "?").c_str());
    if (report.contains("manifest")) {
        const RunManifest m = manifest_from_json(report.at("manifest"));
        Table t({"manifest", "value"});
        t.add_row({"run_id", m.run_id});
        t.add_row({"tool", m.tool});
        t.add_row({"config_digest", m.config_digest});
        t.add_row({"seed", format("%llu", static_cast<unsigned long long>(m.seed))});
        t.add_row({"threads", format("%d", m.threads)});
        t.add_row({"build", format("%s, %s%s%s", m.build_type.c_str(),
                                   m.obs_enabled ? "obs" : "no-obs",
                                   m.faults_enabled ? ", faults" : "",
                                   m.sanitizers.empty()
                                       ? ""
                                       : format(", %s", m.sanitizers.c_str()).c_str())});
        t.add_row({"compiler", m.compiler});
        t.add_row({"host", format("%s (%s)", m.hostname.c_str(), m.os.c_str())});
        t.add_row({"created", m.created_utc});
        out += t.to_string();
    } else {
        out += "no manifest (schema 1 report)\n";
    }

    if (!report.contains("scenarios")) return out;
    Table t({"scenario", "kind", "median_s", "min_s", "accuracy", "peak_rss"});
    for (const auto& s : report.at("scenarios").as_array()) {
        const auto acc = accuracy_map(s);
        double max_db = 0.0;
        bool pass = true;
        for (const auto& [n, v] : acc) {
            max_db = std::max(max_db, v.first);
            pass = pass && v.second;
        }
        const double rss = num_or(s, "peak_rss_bytes", 0.0);
        t.add_row({s.at("name").as_string(), str_or(s, "kind", "?"),
                   format("%.4f", s.at("runtime").at("median_s").as_number()),
                   format("%.4f", s.at("runtime").at("min_s").as_number()),
                   acc.empty() ? "-"
                               : format("%s (max %.2f dB, %zu metrics)",
                                        pass ? "OK" : "FAIL", max_db, acc.size()),
                   rss > 0.0 ? format("%.1fM", rss / (1024.0 * 1024.0)) : "-"});
    }
    out += t.to_string();

    // Top-level phases of each scenario, when the registry recorded any.
    for (const auto& s : report.at("scenarios").as_array()) {
        if (!s.contains("registry")) continue;
        const Json& reg = s.at("registry");
        if (!reg.is_object() || !reg.contains("phases") ||
            !reg.at("phases").is_array() || reg.at("phases").as_array().empty())
            continue;
        out += format("phases of %s:\n", s.at("name").as_string().c_str());
        Table pt({"phase", "calls", "seconds", "rssΔ[MB]", "peak[MB]"});
        // The registry serialises the phase tree; RSS attribution sits on
        // the tracked nodes (engine top levels, flow stages), so walk the
        // whole tree, indenting children under their structural parent.
        const std::function<void(const Json&, int)> walk = [&](const Json& p,
                                                               int depth) {
            const bool rss = p.contains("rss_delta_bytes");
            const bool structural = num_or(p, "calls", 0.0) == 0.0;
            pt.add_row({std::string(static_cast<size_t>(2 * depth), ' ') +
                            str_or(p, "name", "?"),
                        structural ? "-" : format("%.0f", num_or(p, "calls", 0.0)),
                        structural ? "-" : format("%.4f", num_or(p, "seconds", 0.0)),
                        rss ? format("%+.1f", num_or(p, "rss_delta_bytes", 0.0) /
                                                  (1024.0 * 1024.0))
                            : "-",
                        rss ? format("%.1f", num_or(p, "rss_peak_bytes", 0.0) /
                                                 (1024.0 * 1024.0))
                            : "-"});
            if (p.contains("children") && p.at("children").is_array())
                for (const auto& c : p.at("children").as_array()) walk(c, depth + 1);
        };
        for (const auto& p : reg.at("phases").as_array()) walk(p, 0);
        out += pt.to_string();
    }
    return out;
}

std::string show_events(const Json& report, size_t top_stacks) {
    std::string out;
    if (!report.contains("events") || !report.at("events").is_array() ||
        report.at("events").as_array().empty()) {
        out += "no event journal in this document (run with SNIM_EVENTS=<file> "
               "to record one)\n";
    } else {
        const JsonArray& events = report.at("events").as_array();
        out += format("event journal tail (%zu records):\n", events.size());
        Table t({"seq", "t[s]", "lvl", "comp", "code", "detail"});
        for (const Json& e : events) {
            if (!e.is_object()) continue;
            // The kv payload, flattened to "k=v k=v" for one table cell.
            std::string detail;
            if (e.contains("kv") && e.at("kv").is_object()) {
                for (const auto& [k, v] : e.at("kv").as_object()) {
                    if (!detail.empty()) detail += ' ';
                    detail += k + '=';
                    if (v.is_string()) detail += v.as_string();
                    else if (v.is_bool()) detail += v.as_bool() ? "true" : "false";
                    else if (v.is_number()) detail += format("%.4g", v.as_number());
                    else detail += "?";
                }
            }
            if (num_or(e, "truncated", 0.0) != 0.0 ||
                (e.contains("truncated") && e.at("truncated").is_bool() &&
                 e.at("truncated").as_bool()))
                detail = "(kv truncated)";
            t.add_row({format("%.0f", num_or(e, "seq", 0.0)),
                       format("%.3f", num_or(e, "ts", 0.0)),
                       str_or(e, "lvl", "?"), str_or(e, "comp", "?"),
                       str_or(e, "code", "?"), detail});
        }
        out += t.to_string();
    }

    if (report.contains("profile") && report.at("profile").is_object() &&
        report.at("profile").contains("stacks")) {
        const Json& profile = report.at("profile");
        const double samples = num_or(profile, "samples", 0.0);
        out += format("top sampled stacks (%.0f samples at %.0f Hz):\n", samples,
                      num_or(profile, "hz", 0.0));
        std::vector<std::pair<std::string, double>> stacks;
        for (const auto& [stack, count] : profile.at("stacks").as_object())
            if (count.is_number()) stacks.emplace_back(stack, count.as_number());
        std::sort(stacks.begin(), stacks.end(),
                  [](const auto& a, const auto& b) { return a.second > b.second; });
        if (top_stacks > 0 && stacks.size() > top_stacks) stacks.resize(top_stacks);
        Table t({"samples", "share", "stack"});
        for (const auto& [stack, count] : stacks)
            t.add_row({format("%.0f", count),
                       samples > 0 ? format("%.1f%%", 100.0 * count / samples) : "-",
                       stack});
        out += t.to_string();
    }
    return out;
}

} // namespace snim::obs
