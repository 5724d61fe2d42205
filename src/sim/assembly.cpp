#include "sim/assembly.hpp"

#include <cstring>

#include "circuit/passives.hpp"
#include "obs/registry.hpp"
#include "sim/mna.hpp"
#include "util/error.hpp"

namespace snim::sim {

namespace {

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Counter kFullAssemblies("sim/assemble_full");
const obs::Counter kRelearns("sim/assemble_relearn");
const obs::Counter kCacheHits("sim/assemble_cache_hits");
const obs::Counter kCacheMisses("sim/assemble_cache_misses");
const obs::Counter kIncrementalAssemblies("sim/assemble_incremental");

std::uint64_t dt_key(double dt) {
    // The retry ladder only visits power-of-two fractions of the nominal
    // dt, so keying on the exact bit pattern keeps the cache tiny while
    // never conflating two steps that stamp different companion values.
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(dt));
    std::memcpy(&bits, &dt, sizeof(bits));
    return bits;
}
} // namespace

TranAssembler::TranAssembler(const circuit::Netlist& netlist, circuit::RealStamper& s)
    : netlist_(netlist), s_(s) {
    s_.enable_compiled_assembly();
    s_.enable_rhs_tape();
}

void TranAssembler::full_pass(const std::vector<double>& x,
                              const circuit::TranParams& tp) {
    obs::count(kFullAssemblies);
    s_.reset_compiled();
    s_.set_source_scale(1.0);
    const auto& devices = netlist_.devices();
    spans_.assign(devices.size(), Span{});
    disable_gen_at_learn_ = netlist_.disable_generation();
    for (size_t i = 0; i < devices.size(); ++i) {
        Span& sp = spans_[i];
        sp.mat_begin = static_cast<std::uint32_t>(s_.matrix().rows().size());
        sp.rhs_begin = static_cast<std::uint32_t>(s_.rhs_tape_nodes().size());
        if (!devices[i]->disabled()) devices[i]->stamp_tran(s_, x, tp);
        sp.mat_end = static_cast<std::uint32_t>(s_.matrix().rows().size());
        sp.rhs_end = static_cast<std::uint32_t>(s_.rhs_tape_nodes().size());
    }
    gmin_span_.mat_begin = static_cast<std::uint32_t>(s_.matrix().rows().size());
    gmin_span_.rhs_begin = static_cast<std::uint32_t>(s_.rhs_tape_nodes().size());
    stamp_gmin(netlist_, s_);
    gmin_span_.mat_end = static_cast<std::uint32_t>(s_.matrix().rows().size());
    gmin_span_.rhs_end = static_cast<std::uint32_t>(s_.rhs_tape_nodes().size());
    s_.csc(); // learns the scatter map; the pass above becomes the tape
    compile(tp);
    learned_ = true;
    ++epoch_;
    // Baselines for the remaining iterations of this attempt come straight
    // from the freshly recorded tape.
    image_ = &key_image(tp);
    build_rhs_base();
}

void TranAssembler::compile(const circuit::TranParams& tp) {
    const auto& devices = netlist_.devices();
    const size_t ncalls = s_.tape_rows().size();
    const size_t nrhs = s_.rhs_tape_nodes().size();

    std::vector<char> nl_call(ncalls, 0);
    std::vector<char> nl_rhs(nrhs, 0);
    nonlinear_.clear();
    refresh_.clear();
    for (size_t i = 0; i < devices.size(); ++i) {
        if (devices[i]->disabled()) continue; // full_pass() stamped nothing for it
        const Span& sp = spans_[i];
        switch (devices[i]->partition()) {
            case circuit::Partition::Nonlinear:
                nonlinear_.push_back(static_cast<std::uint32_t>(i));
                for (std::uint32_t k = sp.mat_begin; k < sp.mat_end; ++k)
                    nl_call[k] = 1;
                for (std::uint32_t k = sp.rhs_begin; k < sp.rhs_end; ++k)
                    nl_rhs[k] = 1;
                break;
            case circuit::Partition::LinearDynamic:
                refresh_.push_back(static_cast<std::uint32_t>(i));
                break;
            case circuit::Partition::LinearStatic:
                // Static matrix entries never move, but source waveforms
                // live on the RHS: any static device that made an RHS call
                // must be re-evaluated once per attempt for tp.time.
                if (sp.rhs_end > sp.rhs_begin)
                    refresh_.push_back(static_cast<std::uint32_t>(i));
                break;
        }
    }

    linear_calls_.clear();
    linear_rhs_calls_.clear();
    for (size_t k = 0; k < ncalls; ++k)
        if (!nl_call[k]) linear_calls_.push_back(static_cast<std::int32_t>(k));
    for (size_t k = 0; k < nrhs; ++k)
        if (!nl_rhs[k]) linear_rhs_calls_.push_back(static_cast<std::int32_t>(k));

    // Mixed slots: a linear stamp landing after a nonlinear one in the same
    // CSC slot (the trailing gmin diagonal on a transistor node is the
    // canonical case).  Baseline-then-overlay would reorder the sum there,
    // so those slots are replayed call-by-call instead.
    const size_t nnz = s_.csc_values_mut().size();
    std::vector<std::vector<std::int32_t>> by_slot(nnz);
    const auto& slots = s_.tape_slots();
    for (size_t k = 0; k < ncalls; ++k)
        by_slot[static_cast<size_t>(slots[k])].push_back(static_cast<std::int32_t>(k));
    mixed_slots_.clear();
    for (size_t slot = 0; slot < nnz; ++slot) {
        const auto& calls = by_slot[slot];
        bool seen_nl = false, mixed = false;
        for (const std::int32_t k : calls) {
            if (nl_call[static_cast<size_t>(k)]) seen_nl = true;
            else if (seen_nl) { mixed = true; break; }
        }
        if (mixed)
            mixed_slots_.push_back({static_cast<std::int32_t>(slot), calls});
    }

    // Changed set for partial refactorization: the row and the column of
    // every CSC slot holding at least one nonlinear stamp call, so the
    // overlay moves entries inside changed x changed only.  Mixed slots are
    // covered too — a slot is only "mixed" because a nonlinear call lands
    // in it.  The slot list itself doubles as the sparse-restore dirty set.
    nonlinear_cols_.clear();
    nl_slots_.clear();
    {
        const auto& cp = s_.csc().col_ptr();
        const auto& ri = s_.csc().row_idx();
        std::vector<char> colhit(s_.size(), 0);
        std::vector<char> slothit(nnz, 0);
        std::vector<std::int32_t> col_of(nnz);
        for (size_t j = 0; j < s_.size(); ++j)
            for (int p = cp[j]; p < cp[j + 1]; ++p)
                col_of[static_cast<size_t>(p)] = static_cast<std::int32_t>(j);
        for (size_t k = 0; k < ncalls; ++k)
            if (nl_call[k]) {
                const auto slot = static_cast<size_t>(slots[k]);
                slothit[slot] = 1;
                colhit[static_cast<size_t>(col_of[slot])] = 1;
                colhit[static_cast<size_t>(ri[slot])] = 1;
            }
        for (size_t j = 0; j < s_.size(); ++j)
            if (colhit[j]) nonlinear_cols_.push_back(static_cast<int>(j));
        for (size_t p = 0; p < nnz; ++p)
            if (slothit[p]) nl_slots_.push_back(static_cast<std::int32_t>(p));
    }
    nl_rhs_nodes_.clear();
    {
        std::vector<char> nodehit(s_.size(), 0);
        const auto& rn = s_.rhs_tape_nodes();
        for (size_t k = 0; k < nrhs; ++k)
            if (nl_rhs[k]) nodehit[static_cast<size_t>(rn[k])] = 1;
        for (size_t i = 0; i < s_.size(); ++i)
            if (nodehit[i]) nl_rhs_nodes_.push_back(static_cast<std::int32_t>(i));
    }

    std::vector<std::vector<std::int32_t>> by_node(s_.size());
    const auto& rnodes = s_.rhs_tape_nodes();
    for (size_t k = 0; k < nrhs; ++k)
        by_node[static_cast<size_t>(rnodes[k])].push_back(static_cast<std::int32_t>(k));
    mixed_nodes_.clear();
    for (size_t node = 0; node < by_node.size(); ++node) {
        const auto& calls = by_node[node];
        bool seen_nl = false, mixed = false;
        for (const std::int32_t k : calls) {
            if (nl_rhs[static_cast<size_t>(k)]) seen_nl = true;
            else if (seen_nl) { mixed = true; break; }
        }
        if (mixed)
            mixed_nodes_.push_back({static_cast<std::int32_t>(node), calls});
    }

    // Compiled capacitor refreshes: a capacitor's stamp layout never
    // depends on values, and every recorded call is exactly ±geq (matrix)
    // or ±ieq (RHS), so the per-attempt refresh reduces to direct tape
    // writes.  Signs come from the stamp structure (admittance order
    // (a,a) (b,b) (a,b) (b,a), RHS order -ieq@a +ieq@b, ground dropped)
    // and are cross-checked bitwise against the learned tape; any
    // surprise leaves the device on the slow overlay path.  The learned
    // tape holds tp's conductances, which become the plans' key.
    cap_plans_.clear();
    slow_refresh_.clear();
    plan_dt_bits_ = dt_key(tp.dt);
    plan_order_ = tp.order;
    const double kord = (tp.order == 2 ? 2.0 : 1.0);
    std::vector<char> planned(devices.size(), 0);
    for (const std::uint32_t i : refresh_) {
        auto* cap = dynamic_cast<circuit::Capacitor*>(devices[i].get());
        if (cap == nullptr) {
            slow_refresh_.push_back(i);
            continue;
        }
        const Span& sp = spans_[i];
        const circuit::NodeId a = cap->nodes()[0];
        const circuit::NodeId b = cap->nodes()[1];
        const double geq = kord * cap->capacitance() / tp.dt;
        const double ieq = (tp.order == 2)
                               ? (-geq * cap->tran_v_prev() - cap->tran_i_prev())
                               : (-geq * cap->tran_v_prev());
        CapPlan plan;
        plan.cap = cap;
        plan.geq = geq;
        bool ok = true;
        if (a >= 0 && b >= 0) {
            ok = sp.mat_end - sp.mat_begin == 4;
            for (int j = 0; ok && j < 4; ++j)
                plan.mat.emplace_back(static_cast<std::int32_t>(sp.mat_begin + j),
                                      static_cast<std::int8_t>(j < 2 ? 1 : -1));
        } else if (a >= 0 || b >= 0) {
            ok = sp.mat_end - sp.mat_begin == 1;
            plan.mat.emplace_back(static_cast<std::int32_t>(sp.mat_begin),
                                  static_cast<std::int8_t>(1));
        } else {
            ok = sp.mat_end == sp.mat_begin;
        }
        std::uint32_t r = sp.rhs_begin;
        if (a >= 0)
            plan.rhs.emplace_back(static_cast<std::int32_t>(r++),
                                  static_cast<std::int8_t>(-1));
        if (b >= 0)
            plan.rhs.emplace_back(static_cast<std::int32_t>(r++),
                                  static_cast<std::int8_t>(1));
        ok = ok && r == sp.rhs_end;
        const auto& tvals = s_.tape_values();
        for (const auto& [k, sign] : plan.mat)
            ok = ok && tvals[static_cast<size_t>(k)] == (sign > 0 ? geq : -geq);
        const auto& rvals = s_.rhs_tape_values();
        const auto& rnodes = s_.rhs_tape_nodes();
        for (const auto& [k, sign] : plan.rhs) {
            ok = ok && rvals[static_cast<size_t>(k)] == (sign > 0 ? ieq : -ieq);
            ok = ok && rnodes[static_cast<size_t>(k)] == (sign > 0 ? b : a);
        }
        if (ok) {
            cap_plans_.push_back(std::move(plan));
            planned[i] = 1;
        } else {
            slow_refresh_.push_back(i);
        }
    }
    // Every other device with a real commit_tran commits virtually;
    // disabled devices stay on the list (the reference loop calls
    // commit_tran unconditionally).
    commit_rest_.clear();
    for (size_t i = 0; i < devices.size(); ++i)
        if (devices[i]->partition() != circuit::Partition::LinearStatic && !planned[i])
            commit_rest_.push_back(devices[i].get());

    cache_.clear();
    image_ = nullptr;
    restore_full_ = true;
}

void TranAssembler::relearn(const std::vector<double>& x,
                            const circuit::TranParams& tp) {
    obs::count(kRelearns);
    learned_ = false;
    full_pass(x, tp);
}

bool TranAssembler::refresh_tapes(const std::vector<double>& x,
                                  const circuit::TranParams& tp) {
    // Planned capacitors: write ±geq/±ieq straight into the tape.  The
    // arithmetic is copied from Capacitor::stamp_tran, so the written
    // values are bit-identical to an overlay replay; the CSC/RHS
    // write-through the overlay would also do is skipped because the next
    // assemble restores the full baseline anyway.  geq is a pure function
    // of (dt, order), so its entries are rewritten only when that key
    // moves — before key_image() may build an image from them.  The key
    // moves with no plan too: commit() asserts it.
    const std::uint64_t bits = dt_key(tp.dt);
    if (bits != plan_dt_bits_ || tp.order != plan_order_) {
        auto& tv = s_.tape_values_mut();
        const double kord = (tp.order == 2 ? 2.0 : 1.0);
        for (CapPlan& p : cap_plans_) {
            p.geq = kord * p.cap->capacitance() / tp.dt;
            for (const auto& [k, sign] : p.mat)
                tv[static_cast<size_t>(k)] = sign > 0 ? p.geq : -p.geq;
        }
        plan_dt_bits_ = bits;
        plan_order_ = tp.order;
    }
    auto& rv = s_.rhs_tape_values_mut();
    for (const CapPlan& p : cap_plans_) {
        const double ieq =
            (tp.order == 2)
                ? (-p.geq * p.cap->tran_v_prev() - p.cap->tran_i_prev())
                : (-p.geq * p.cap->tran_v_prev());
        for (const auto& [k, sign] : p.rhs)
            rv[static_cast<size_t>(k)] = sign > 0 ? ieq : -ieq;
    }
    if (slow_refresh_.empty()) return true;
    if (!s_.begin_overlay()) return false;
    const auto& devices = netlist_.devices();
    bool ok = true;
    for (const std::uint32_t i : slow_refresh_) {
        const Span& sp = spans_[i];
        s_.overlay_seek(sp.mat_begin, sp.rhs_begin);
        devices[i]->stamp_tran(s_, x, tp);
        if (s_.overlay_failed() || s_.mat_cursor() != sp.mat_end ||
            s_.rhs_cursor() != sp.rhs_end) {
            ok = false;
            break;
        }
    }
    if (!s_.end_overlay()) ok = false;
    return ok;
}

const std::vector<double>& TranAssembler::key_image(const circuit::TranParams& tp) {
    const std::uint64_t bits = dt_key(tp.dt);
    for (const auto& e : cache_)
        if (e.dt_bits == bits && e.order == tp.order) {
            obs::count(kCacheHits);
            return e.values;
        }
    obs::count(kCacheMisses);
    if (cache_.size() >= 96) cache_.clear(); // ladder keys never get near this
    KeyImage img;
    img.dt_bits = bits;
    img.order = tp.order;
    img.values.assign(s_.csc_values_mut().size(), 0.0);
    const auto& slots = s_.tape_slots();
    const auto& assigns = s_.tape_assigns();
    const auto& vals = s_.tape_values();
    for (const std::int32_t k : linear_calls_) {
        const size_t slot = static_cast<size_t>(slots[static_cast<size_t>(k)]);
        if (assigns[static_cast<size_t>(k)])
            img.values[slot] = vals[static_cast<size_t>(k)];
        else
            img.values[slot] += vals[static_cast<size_t>(k)];
    }
    cache_.push_back(std::move(img));
    return cache_.back().values;
}

void TranAssembler::build_rhs_base() {
    rhs_base_.assign(s_.size(), 0.0);
    const auto& nodes = s_.rhs_tape_nodes();
    const auto& vals = s_.rhs_tape_values();
    for (const std::int32_t k : linear_rhs_calls_)
        rhs_base_[static_cast<size_t>(nodes[static_cast<size_t>(k)])] +=
            vals[static_cast<size_t>(k)];
}

void TranAssembler::begin_attempt(const std::vector<double>& x,
                                  const circuit::TranParams& tp) {
    if (!learned_) return;
    if (netlist_.disable_generation() != disable_gen_at_learn_) {
        // An ablation toggle since the learn invalidates every span; relearn.
        learned_ = false;
        s_.reset_compiled();
        return;
    }
    if (!refresh_tapes(x, tp)) {
        learned_ = false;
        s_.reset_compiled();
        return;
    }
    image_ = &key_image(tp);
    build_rhs_base();
    // The tape refresh above wrote through to the stamper's CSC/RHS at
    // linear positions, so the first assemble of this attempt must restore
    // the whole baseline, not just the nonlinear dirty set.
    restore_full_ = true;
}

void TranAssembler::commit(const std::vector<double>& x,
                           const circuit::TranParams& tp) const {
    // begin_attempt() or the learn in assemble() set the plans' key from
    // the same tp, so the cached conductances are this step's.
    SNIM_ASSERT(dt_key(tp.dt) == plan_dt_bits_ && tp.order == plan_order_,
                "commit at (dt %.17g, order %d) without an attempt under that key",
                tp.dt, tp.order);
    for (const CapPlan& p : cap_plans_) p.cap->commit_companion(x, p.geq, tp.order);
    for (circuit::Device* d : commit_rest_) d->commit_tran(x, tp);
}

void TranAssembler::assemble(const std::vector<double>& x,
                             const circuit::TranParams& tp) {
    if (!learned_ || image_ == nullptr) {
        full_pass(x, tp);
        return;
    }
    if (restore_full_) {
        s_.csc_values_mut() = *image_;
        s_.rhs_mut() = rhs_base_;
        restore_full_ = false;
    } else {
        // Everything outside the nonlinear dirty set still holds its
        // baseline value from the previous iteration's restore.
        auto& vals = s_.csc_values_mut();
        const auto& img = *image_;
        for (const std::int32_t p : nl_slots_)
            vals[static_cast<size_t>(p)] = img[static_cast<size_t>(p)];
        auto& b = s_.rhs_mut();
        for (const std::int32_t i : nl_rhs_nodes_)
            b[static_cast<size_t>(i)] = rhs_base_[static_cast<size_t>(i)];
    }
    bool ok = s_.begin_overlay();
    if (ok) {
        const auto& devices = netlist_.devices();
        for (const std::uint32_t i : nonlinear_) {
            const Span& sp = spans_[i];
            s_.overlay_seek(sp.mat_begin, sp.rhs_begin);
            devices[i]->stamp_tran(s_, x, tp);
            if (s_.overlay_failed() || s_.mat_cursor() != sp.mat_end ||
                s_.rhs_cursor() != sp.rhs_end) {
                ok = false;
                break;
            }
        }
        if (!s_.end_overlay()) ok = false;
    }
    if (!ok) {
        relearn(x, tp);
        return;
    }
    auto& csc_vals = s_.csc_values_mut();
    const auto& tvals = s_.tape_values();
    for (const auto& m : mixed_slots_) {
        double v = 0.0;
        bool first = true;
        for (const std::int32_t k : m.calls) {
            if (first) {
                v = tvals[static_cast<size_t>(k)];
                first = false;
            } else {
                v += tvals[static_cast<size_t>(k)];
            }
        }
        csc_vals[static_cast<size_t>(m.target)] = v;
    }
    auto& b = s_.rhs_mut();
    const auto& rvals = s_.rhs_tape_values();
    for (const auto& m : mixed_nodes_) {
        double v = 0.0;
        for (const std::int32_t k : m.calls) v += rvals[static_cast<size_t>(k)];
        b[static_cast<size_t>(m.target)] = v;
    }
    obs::count(kIncrementalAssemblies);
}

} // namespace snim::sim
