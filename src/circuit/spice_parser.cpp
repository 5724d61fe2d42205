#include "circuit/spice_parser.hpp"

#include <cctype>
#include <cmath>
#include <limits>
#include <map>

#include "circuit/controlled.hpp"
#include "circuit/diode.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/varactor.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace snim::circuit {

namespace {

[[noreturn]] void fail(int line, const char* what, const std::string& detail = "") {
    raise("spice parse error at line %d: %s%s%s", line, what,
          detail.empty() ? "" : ": ", detail.c_str());
}

// Tokenises a logical line, keeping function-call groups like
// "sin(0 0.1 10meg)" as a single token.
std::vector<std::string> tokenize(const std::string& line, int lineno) {
    std::vector<std::string> toks;
    size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
        if (i >= line.size()) break;
        size_t j = i;
        int depth = 0;
        while (j < line.size()) {
            const char c = line[j];
            if (c == '(') ++depth;
            if (c == ')') {
                if (depth == 0) fail(lineno, "unbalanced ')'");
                --depth;
            }
            if (depth == 0 && std::isspace(static_cast<unsigned char>(c)) &&
                // allow "sin (" style with space before '(' only when depth>0
                !(j + 1 < line.size() && line[j + 1] == '('))
                break;
            ++j;
        }
        if (depth != 0) fail(lineno, "unbalanced '('");
        toks.push_back(line.substr(i, j - i));
        i = j;
    }
    return toks;
}

struct KeyVal {
    std::map<std::string, std::string> kv;
    bool has(const std::string& k) const { return kv.count(k) > 0; }
    double num(const std::string& k, double fallback) const {
        auto it = kv.find(k);
        if (it == kv.end()) return fallback;
        return parse_spice_number(it->second);
    }
};

// Splits trailing "key=value" tokens; returns remaining positional tokens.
std::vector<std::string> split_kv(const std::vector<std::string>& toks, size_t start,
                                  KeyVal& out) {
    std::vector<std::string> pos;
    for (size_t i = start; i < toks.size(); ++i) {
        const auto eq = toks[i].find('=');
        if (eq != std::string::npos) {
            out.kv[to_lower(toks[i].substr(0, eq))] = toks[i].substr(eq + 1);
        } else {
            pos.push_back(toks[i]);
        }
    }
    return pos;
}

// Parses the argument list of fn-call tokens like "sin(a b c)".
std::vector<double> fn_args(const std::string& tok, int lineno) {
    const auto open = tok.find('(');
    const auto close = tok.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open)
        fail(lineno, "malformed function token", tok);
    std::vector<double> args;
    for (const auto& a : split(tok.substr(open + 1, close - open - 1), " \t,"))
        args.push_back(parse_spice_number(a));
    return args;
}

// Parses the source value spec shared by V and I cards starting at toks[3].
void parse_source_spec(const std::vector<std::string>& toks, int lineno, Waveform& wave,
                       AcSpec& ac) {
    double dc = 0.0;
    bool have_tran = false;
    size_t i = 3;
    while (i < toks.size()) {
        const std::string low = to_lower(toks[i]);
        if (low == "dc") {
            if (i + 1 >= toks.size()) fail(lineno, "dc needs a value");
            dc = parse_spice_number(toks[++i]);
        } else if (low == "ac") {
            if (i + 1 >= toks.size()) fail(lineno, "ac needs a magnitude");
            ac.mag = parse_spice_number(toks[++i]);
            if (i + 1 < toks.size() && is_spice_number(toks[i + 1]))
                ac.phase_rad = parse_spice_number(toks[++i]) * units::kPi / 180.0;
        } else if (starts_with_nocase(low, "sin(")) {
            auto a = fn_args(toks[i], lineno);
            if (a.size() < 3) fail(lineno, "sin needs (offset amp freq)");
            const double ph = a.size() > 3 ? a[3] * units::kPi / 180.0 : 0.0;
            const double del = a.size() > 4 ? a[4] : 0.0;
            wave = Waveform::sin(a[0], a[1], a[2], ph, del);
            have_tran = true;
        } else if (starts_with_nocase(low, "pulse(")) {
            auto a = fn_args(toks[i], lineno);
            if (a.size() < 7) fail(lineno, "pulse needs 7 arguments");
            wave = Waveform::pulse(a[0], a[1], a[2], a[3], a[4], a[5], a[6]);
            have_tran = true;
        } else if (starts_with_nocase(low, "pwl(")) {
            auto a = fn_args(toks[i], lineno);
            if (a.size() < 2 || a.size() % 2 != 0) fail(lineno, "pwl needs t,v pairs");
            std::vector<std::pair<double, double>> pts;
            for (size_t k = 0; k < a.size(); k += 2) pts.emplace_back(a[k], a[k + 1]);
            wave = Waveform::pwl(std::move(pts));
            have_tran = true;
        } else if (is_spice_number(toks[i])) {
            dc = parse_spice_number(toks[i]);
        } else {
            fail(lineno, "unrecognised source token", toks[i]);
        }
        ++i;
    }
    if (!have_tran) wave = Waveform::dc(dc);
}

struct ModelDefs {
    std::map<std::string, tech::MosModelCard> mos;
    std::map<std::string, DiodeModel> diode;
    std::map<std::string, tech::VaractorCard> var;
};

void parse_model(const std::vector<std::string>& toks, int lineno, ModelDefs& defs) {
    if (toks.size() < 3) fail(lineno, ".model needs a name and a type");
    const std::string mname = to_lower(toks[1]);
    std::string type = to_lower(toks[2]);
    // Parameters may be inside parentheses attached to the type token or as
    // trailing key=value tokens.
    KeyVal kv;
    const auto open = type.find('(');
    if (open != std::string::npos) {
        std::string args = type.substr(open + 1);
        if (!args.empty() && args.back() == ')') args.pop_back();
        type = type.substr(0, open);
        for (const auto& p : split(args, " \t,")) {
            const auto eq = p.find('=');
            if (eq == std::string::npos) fail(lineno, "bad model parameter", p);
            kv.kv[to_lower(p.substr(0, eq))] = p.substr(eq + 1);
        }
    }
    split_kv(toks, 3, kv);

    if (type == "nmos" || type == "pmos") {
        tech::MosModelCard c;
        c.name = mname;
        c.is_nmos = (type == "nmos");
        c.vt0 = kv.num("vto", kv.num("vt0", c.vt0));
        c.kp = kv.num("kp", c.kp);
        c.gamma = kv.num("gamma", c.gamma);
        c.phi = kv.num("phi", c.phi);
        c.lambda = kv.num("lambda", c.lambda);
        c.cox = kv.num("cox", c.cox);
        c.cj = kv.num("cj", c.cj);
        c.cjsw = kv.num("cjsw", c.cjsw);
        c.pb = kv.num("pb", c.pb);
        c.mj = kv.num("mj", c.mj);
        c.cgso = kv.num("cgso", c.cgso);
        c.cgdo = kv.num("cgdo", c.cgdo);
        defs.mos[mname] = c;
    } else if (type == "d") {
        DiodeModel d;
        d.is = kv.num("is", d.is);
        d.n = kv.num("n", d.n);
        d.cj0 = kv.num("cjo", kv.num("cj0", d.cj0));
        d.pb = kv.num("pb", d.pb);
        d.mj = kv.num("mj", d.mj);
        defs.diode[mname] = d;
    } else if (type == "nvar") {
        tech::VaractorCard v;
        v.name = mname;
        v.cmax_per_area = kv.num("cmax_area", v.cmax_per_area);
        v.cmin_ratio = kv.num("cmin_ratio", v.cmin_ratio);
        v.vmid = kv.num("vmid", v.vmid);
        v.vslope = kv.num("vslope", v.vslope);
        defs.var[mname] = v;
    } else {
        fail(lineno, "unsupported model type", type);
    }
}

struct SubcktDef {
    std::string name;
    std::vector<std::string> ports;
    std::vector<std::pair<int, std::string>> body; // (lineno, card text)
};

/// Which token positions of a card are node names (for subckt expansion).
std::pair<size_t, size_t> node_token_range(const std::string& head, size_t ntokens) {
    const char kind = static_cast<char>(std::tolower(static_cast<unsigned char>(head[0])));
    switch (kind) {
        case 'r':
        case 'c':
        case 'l':
        case 'v':
        case 'i':
        case 'd':
        case 'y': return {1, 2};
        case 'm':
        case 'g':
        case 'e': return {1, 4};
        case 'x': return {1, ntokens - 2}; // all but head and subckt name
        default: return {0, 0};
    }
}

/// Expands X cards against the collected subckt definitions (textual macro
/// expansion with hierarchical node/device prefixes).
void expand_instance(const std::vector<std::string>& toks, int lineno,
                     const std::map<std::string, SubcktDef>& defs,
                     std::vector<std::pair<int, std::string>>& out, int depth) {
    if (depth > 8) fail(lineno, "subckt nesting too deep");
    if (toks.size() < 2) fail(lineno, "X card needs a subckt name");
    const std::string inst = to_lower(toks[0]).substr(1);
    const std::string subname = to_lower(toks.back());
    auto it = defs.find(subname);
    if (it == defs.end()) fail(lineno, "unknown subckt", subname);
    const SubcktDef& def = it->second;
    if (toks.size() - 2 != def.ports.size())
        fail(lineno, "subckt port count mismatch", subname);

    std::map<std::string, std::string> node_map;
    for (size_t i = 0; i < def.ports.size(); ++i)
        node_map[to_lower(def.ports[i])] = toks[i + 1];

    auto map_node = [&](const std::string& n) -> std::string {
        const std::string low = to_lower(n);
        if (low == "0" || low == "gnd") return n;
        auto m = node_map.find(low);
        if (m != node_map.end()) return m->second;
        return "x" + inst + "." + n;
    };

    for (const auto& [bline, btext] : def.body) {
        auto btoks = tokenize(btext, bline);
        if (btoks.empty()) continue;
        // Rename the device and its node tokens.
        std::string head = btoks[0];
        btoks[0] = std::string(1, head[0]) + "x" + inst + "." + head.substr(1);
        const auto [lo, hi] = node_token_range(head, btoks.size());
        for (size_t p = lo; p > 0 && p <= hi && p < btoks.size(); ++p)
            btoks[p] = map_node(btoks[p]);
        if (std::tolower(static_cast<unsigned char>(head[0])) == 'x') {
            expand_instance(btoks, bline, defs, out, depth + 1);
        } else {
            std::string joined;
            for (const auto& t : btoks) {
                if (!joined.empty()) joined += ' ';
                joined += t;
            }
            out.emplace_back(bline, joined);
        }
    }
}

} // namespace

ParseResult parse_spice(const std::string& text, const tech::Technology* tech) {
    ParseResult out;
    ModelDefs defs;

    // Standard SPICE: the first line is always the title.
    const auto raw_lines = split_keep(text, '\n');
    if (!raw_lines.empty()) out.title = trim(raw_lines[0]);

    // Join continuations, strip comments, keep line numbers of card starts.
    std::vector<std::pair<int, std::string>> lines;
    {
        int lineno = 1;
        for (size_t li = 1; li < raw_lines.size(); ++li) {
            const auto& raw = raw_lines[li];
            ++lineno;
            std::string s = trim(raw);
            const auto semi = s.find(';');
            if (semi != std::string::npos) s = trim(s.substr(0, semi));
            if (s.empty() || s[0] == '*') continue;
            if (s[0] == '+') {
                if (lines.empty()) fail(lineno, "continuation with no previous card");
                lines.back().second += " " + trim(s.substr(1));
            } else {
                lines.emplace_back(lineno, s);
            }
        }
    }

    // Collect .subckt definitions and expand X instances textually.
    {
        std::map<std::string, SubcktDef> subckts;
        std::vector<std::pair<int, std::string>> main_lines;
        SubcktDef* open_def = nullptr;
        for (const auto& [lineno, line] : lines) {
            auto toks = tokenize(line, lineno);
            if (toks.empty()) continue;
            if (equals_nocase(toks[0], ".subckt")) {
                if (open_def) fail(lineno, "nested .subckt definitions not supported");
                if (toks.size() < 3) fail(lineno, ".subckt needs a name and ports");
                SubcktDef def;
                def.name = to_lower(toks[1]);
                def.ports.assign(toks.begin() + 2, toks.end());
                open_def = &subckts.emplace(def.name, std::move(def)).first->second;
            } else if (equals_nocase(toks[0], ".ends")) {
                if (!open_def) fail(lineno, ".ends without .subckt");
                open_def = nullptr;
            } else if (open_def) {
                open_def->body.emplace_back(lineno, line);
            } else {
                main_lines.emplace_back(lineno, line);
            }
        }
        if (open_def) raise("spice parse error: unterminated .subckt '%s'",
                            open_def->name.c_str());
        lines.clear();
        for (const auto& [lineno, line] : main_lines) {
            auto toks = tokenize(line, lineno);
            if (!toks.empty() &&
                std::tolower(static_cast<unsigned char>(toks[0][0])) == 'x' &&
                toks[0][0] != '.') {
                expand_instance(toks, lineno, subckts, lines, 0);
            } else {
                lines.emplace_back(lineno, line);
            }
        }
    }

    // First pass: model cards (they may appear after their use).
    const size_t start = 0;
    for (size_t li = start; li < lines.size(); ++li) {
        const auto& [lineno, line] = lines[li];
        auto toks = tokenize(line, lineno);
        if (!toks.empty() && equals_nocase(toks[0], ".model")) parse_model(toks, lineno, defs);
    }

    Netlist& nl = out.netlist;
    for (size_t li = start; li < lines.size(); ++li) {
        const auto& [lineno, line] = lines[li];
        auto toks = tokenize(line, lineno);
        if (toks.empty()) continue;
        const std::string head = to_lower(toks[0]);
        if (head[0] == '.') {
            if (head == ".end" || head == ".model") continue;
            fail(lineno, "unsupported dot card", head);
        }
        // The full lower-cased card head is the device name ("r1", "cload"),
        // so different device types can never collide.
        const std::string& devname = head;
        const char kind = head[0];
        auto need = [&](size_t n) {
            if (toks.size() < n) fail(lineno, "too few fields", line);
        };
        switch (kind) {
            case 'r': {
                need(4);
                nl.add<Resistor>(devname, nl.node(toks[1]), nl.node(toks[2]),
                                 parse_spice_number(toks[3]));
                break;
            }
            case 'c': {
                need(4);
                nl.add<Capacitor>(devname, nl.node(toks[1]), nl.node(toks[2]),
                                  parse_spice_number(toks[3]));
                break;
            }
            case 'l': {
                need(4);
                KeyVal kv;
                auto pos = split_kv(toks, 3, kv);
                if (pos.empty()) fail(lineno, "inductor needs a value");
                nl.add<Inductor>(devname, nl.node(toks[1]), nl.node(toks[2]),
                                 parse_spice_number(pos[0]), kv.num("rser", 0.0));
                break;
            }
            case 'v':
            case 'i': {
                need(4);
                Waveform w = Waveform::dc(0.0);
                AcSpec ac;
                parse_source_spec(toks, lineno, w, ac);
                if (kind == 'v')
                    nl.add<VSource>(devname, nl.node(toks[1]), nl.node(toks[2]), w, ac);
                else
                    nl.add<ISource>(devname, nl.node(toks[1]), nl.node(toks[2]), w, ac);
                break;
            }
            case 'm': {
                need(6);
                const std::string mname = to_lower(toks[5]);
                tech::MosModelCard card;
                if (defs.mos.count(mname)) {
                    card = defs.mos[mname];
                } else if (tech) {
                    card = tech->mos_model(mname);
                } else {
                    fail(lineno, "unknown MOS model", mname);
                }
                KeyVal kv;
                split_kv(toks, 6, kv);
                MosGeometry g;
                g.w = kv.num("w", g.w * 1e-6) * 1e6; // values carry SI suffixes
                g.l = kv.num("l", g.l * 1e-6) * 1e6;
                // A whole number of parallel devices; checked before the cast,
                // which is undefined for NaN, inf and values out of int range.
                const double mult = kv.num("m", 1);
                if (!(mult >= 1.0 && mult <= std::numeric_limits<int>::max() &&
                      mult == std::floor(mult)))
                    fail(lineno, "MOS multiplier m must be an integer from 1 to 2147483647",
                         kv.kv.at("m"));
                g.m = static_cast<int>(mult);
                g.ad = kv.num("ad", 0.0) * 1e12;
                g.as = kv.num("as", 0.0) * 1e12;
                g.pd = kv.num("pd", 0.0) * 1e6;
                g.ps = kv.num("ps", 0.0) * 1e6;
                nl.add<Mosfet>(devname, nl.node(toks[1]), nl.node(toks[2]),
                               nl.node(toks[3]), nl.node(toks[4]), card, g);
                break;
            }
            case 'd': {
                need(4);
                const std::string mname = to_lower(toks[3]);
                if (!defs.diode.count(mname)) fail(lineno, "unknown diode model", mname);
                const double area = toks.size() > 4 ? parse_spice_number(toks[4]) : 1.0;
                nl.add<Diode>(devname, nl.node(toks[1]), nl.node(toks[2]),
                              defs.diode[mname], area);
                break;
            }
            case 'g': {
                need(6);
                nl.add<Vccs>(devname, nl.node(toks[1]), nl.node(toks[2]),
                             nl.node(toks[3]), nl.node(toks[4]),
                             parse_spice_number(toks[5]));
                break;
            }
            case 'e': {
                need(6);
                nl.add<Vcvs>(devname, nl.node(toks[1]), nl.node(toks[2]),
                             nl.node(toks[3]), nl.node(toks[4]),
                             parse_spice_number(toks[5]));
                break;
            }
            case 'y': {
                need(4);
                const std::string mname = to_lower(toks[3]);
                KeyVal kv;
                split_kv(toks, 4, kv);
                tech::VaractorCard card;
                if (defs.var.count(mname)) {
                    card = defs.var[mname];
                } else if (tech) {
                    card = tech->varactor_model(mname);
                } else {
                    fail(lineno, "unknown varactor model", mname);
                }
                nl.add<Varactor>(devname, nl.node(toks[1]), nl.node(toks[2]), card,
                                 kv.num("area", 100.0));
                break;
            }
            default:
                fail(lineno, "unsupported device card", head);
        }
    }
    return out;
}

} // namespace snim::circuit
