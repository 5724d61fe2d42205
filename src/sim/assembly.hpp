// Incremental transient assembly (DESIGN.md §14).
//
// The transient Newton loop re-stamps every device each iteration even
// though most stamps never change: resistor and controlled-source entries
// are constant for the whole run, and companion (C/L) entries are a pure
// function of the step size and integration order.  TranAssembler splits
// the netlist by circuit::Partition and rebuilds only what moved:
//
//   * one full learning pass records the stamp-call tape and each device's
//     span in it (the Stamper's compiled scatter map supplies the
//     call -> CSC-slot mapping);
//   * linear matrix images are cached per (dt, order) key — the retry
//     ladder only ever visits power-of-two fractions of the nominal dt, so
//     the key set stays tiny;
//   * capacitors run on compiled plans that keep their companion
//     conductance for the current (dt, order) key: its tape entries are
//     rewritten only when the key moves, and accepted steps are committed
//     through the plans with that cached conductance;
//   * per step attempt, the remaining companion and source stamps and the
//     capacitors' history currents are refreshed into the tape and the
//     linear RHS baseline is rebuilt (it depends on time and integration
//     state);
//   * per Newton iteration, the CSC value image and RHS are restored from
//     the baselines (two vector copies) and only nonlinear devices
//     re-stamp, overlaying their recorded tape spans.
//
// Bit-identity with the full pass is a hard invariant, not a tolerance:
// CSC slot values are per-slot left-associated sums over the slot's stamp
// calls in pass order, so a slot whose linear calls all precede its
// nonlinear calls ("clean") gets the exact same sum from
// baseline-then-overlay.  Slots and RHS nodes where a linear call follows
// a nonlinear one ("mixed" — e.g. the trailing gmin diagonal stamp on a
// MOSFET node) are recomputed from the tape call-by-call after the
// overlay.  A device whose stamp sequence turns out to be value-dependent
// breaks the overlay mid-pass; the assembler then discards the compiled
// state and relearns with a full pass, counted in sim/assemble_relearn.
// That is a safety net, not a path the figures take: every device in the
// tree makes the same stamp calls on every pass (the MOSFET channel carries
// its drain/source orientation in its values, not its stamp positions).
// A device enable toggle (Device::set_disabled) changes which devices
// stamp at all; begin_attempt() sees it as a new
// Netlist::disable_generation() and relearns.
//
// Registry counters: sim/assemble_full, sim/assemble_incremental,
// sim/assemble_relearn, sim/assemble_cache_hits, sim/assemble_cache_misses.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"

namespace snim::circuit {
class Capacitor;
} // namespace snim::circuit

namespace snim::sim {

class TranAssembler {
public:
    /// Binds to the netlist/stamper pair for one transient run.  The
    /// stamper must have compiled assembly enabled; the assembler enables
    /// its RHS tape.
    TranAssembler(const circuit::Netlist& netlist, circuit::RealStamper& s);

    /// Called once per step attempt, before the Newton loop: refreshes the
    /// companion/source tape values for `tp`, looks up (or builds) the
    /// (dt, order) linear matrix image and rebuilds the linear RHS
    /// baseline.  A no-op until the first full pass has learned the tape.
    void begin_attempt(const std::vector<double>& x, const circuit::TranParams& tp);

    /// Assembles the Newton system at iterate `x` into the stamper,
    /// equivalent bit-for-bit to `s.clear(); assemble_tran(...)`.  Falls
    /// back to a full learning pass on the first call and whenever an
    /// overlay deviates.
    void assemble(const std::vector<double>& x, const circuit::TranParams& tp);

    /// Bumped by every full pass (learn/relearn).  The transient's partial
    /// refactorization key includes it: factors taken before a relearn
    /// must not be refreshed column by column.
    std::uint64_t epoch() const { return epoch_; }

    bool learned() const { return learned_; }

    /// Unknowns the nonlinear overlay can move: the union of the rows and
    /// columns of every slot a nonlinear stamp call lands in.  Between two
    /// assembles under the same (dt, order, epoch) the matrix is
    /// bit-identical outside nonlinear_cols x nonlinear_cols (everything
    /// else comes from the cached linear image).  This is the changed set
    /// for ReusableLU's partial refactorization.  Valid after the first
    /// learn.
    const std::vector<int>& nonlinear_cols() const { return nonlinear_cols_; }

    /// Commits the accepted step into device state, equivalent to calling
    /// commit_tran on every device: only non-LinearStatic devices override
    /// it (the partition/commit pairing is asserted by the netlist tests),
    /// so the static majority is skipped.  Planned capacitors commit with
    /// their cached conductance.  `tp` must be the one the last
    /// begin_attempt()/assemble() ran under (asserted).
    void commit(const std::vector<double>& x, const circuit::TranParams& tp) const;

private:
    struct Span {
        std::uint32_t mat_begin = 0, mat_end = 0;
        std::uint32_t rhs_begin = 0, rhs_end = 0;
    };
    /// A matrix slot (or RHS node) whose call sequence interleaves linear
    /// and nonlinear stamps; recomputed from the tape after each overlay.
    struct Replay {
        std::int32_t target = 0;          // CSC slot / RHS node
        std::vector<std::int32_t> calls;  // tape indices, in pass order
    };
    struct KeyImage {
        std::uint64_t dt_bits = 0;
        int order = 0;
        std::vector<double> values; // linear CSC baseline for this key
    };

    /// Compiled refresh for a capacitor: its stamp layout is
    /// value-independent and every recorded call value is exactly ±geq or
    /// ±ieq, so the refresh is a handful of direct tape writes instead of a
    /// stamp_tran replay through overlay mode.  Built (and sign-validated
    /// bitwise against the learned tape) in compile(); any mismatch leaves
    /// the device on the slow overlay path.
    struct CapPlan {
        circuit::Capacitor* cap = nullptr;
        double geq = 0.0; // kord * C / dt for the plans' (dt, order) key
        // (tape index, +1/-1) pairs; matrix entries scale geq, RHS ieq.
        std::vector<std::pair<std::int32_t, std::int8_t>> mat;
        std::vector<std::pair<std::int32_t, std::int8_t>> rhs;
    };

    void full_pass(const std::vector<double>& x, const circuit::TranParams& tp);
    void compile(const circuit::TranParams& tp);
    void relearn(const std::vector<double>& x, const circuit::TranParams& tp);
    bool refresh_tapes(const std::vector<double>& x, const circuit::TranParams& tp);
    const std::vector<double>& key_image(const circuit::TranParams& tp);
    void build_rhs_base();

    const circuit::Netlist& netlist_;
    circuit::RealStamper& s_;

    bool learned_ = false;
    std::uint64_t epoch_ = 0;

    std::vector<Span> spans_;          // per device, netlist order
    std::uint64_t disable_gen_at_learn_ = 0;
    Span gmin_span_;                   // trailing gmin diagonal stamps
    std::vector<std::uint32_t> nonlinear_;  // device indices, netlist order
    std::vector<std::uint32_t> refresh_;    // linear devices refreshed per attempt
    std::vector<std::uint32_t> slow_refresh_; // refresh_ minus planned capacitors
    std::vector<CapPlan> cap_plans_;        // compiled capacitor refreshes
    std::uint64_t plan_dt_bits_ = 0;        // (dt, order) the plans' geq hold
    int plan_order_ = 0;
    std::vector<std::int32_t> linear_calls_;     // tape indices of linear mat calls
    std::vector<std::int32_t> linear_rhs_calls_; // tape indices of linear rhs calls
    std::vector<Replay> mixed_slots_;
    std::vector<Replay> mixed_nodes_;

    std::vector<KeyImage> cache_;          // (dt, order) -> linear image
    const std::vector<double>* image_ = nullptr; // baseline for this attempt
    std::vector<double> rhs_base_;         // linear RHS baseline for this attempt

    std::vector<int> nonlinear_cols_;      // unknowns whose rows/columns the overlay moves
    std::vector<circuit::Device*> commit_rest_; // real commit_tran, no capacitor plan

    // Slots / RHS nodes the nonlinear overlay writes.  After the first
    // assemble of an attempt has done a full baseline copy, later
    // iterations only need to restore these (everything else still holds
    // its baseline value), which turns the per-iteration restore from
    // O(nnz) copies into O(|nonlinear stamp|).
    std::vector<std::int32_t> nl_slots_;
    std::vector<std::int32_t> nl_rhs_nodes_;
    bool restore_full_ = true; // begin_attempt/learn invalidate sparse restore
};

} // namespace snim::sim
