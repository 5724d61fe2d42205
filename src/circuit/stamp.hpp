// MNA stamping interfaces.
//
// Analyses build a matrix/RHS pair by asking every device to stamp itself.
// NodeId -1 is ground; stamps touching ground are silently dropped, which
// keeps device code free of special cases.
//
// Repeated assembly (Newton iterations, transient steps, AC points) can run
// in compiled mode: the first pass is recorded as a triplet sequence, the
// Stamper learns a one-time triplet->CSC index map, and every later pass
// scatters values straight into the CSC value array — no triplet rebuild,
// sort, or duplicate merge.  Device stamp sequences are value-independent
// (same entry() calls in the same order every pass), which is what makes the
// fixed map valid; a sequence that deviates anyway demotes the pass back to
// triplet assembly and relearns, so compiled mode is always correct, just
// fast when the precondition holds.  The compiled image is bit-identical to
// the triplet-built CSC: the CSC constructor merges duplicates in insertion
// order (stable sort) and the scatter path assigns the first duplicate and
// accumulates the rest in the same stamp order.
#pragma once

#include <algorithm>
#include <complex>

#include "numeric/sparse.hpp"
#include "obs/registry.hpp"

namespace snim::circuit {

using NodeId = int;
inline constexpr NodeId kGround = -1;

/// Voltage of node `n` in solution vector `x` (ground reads as 0).
inline double volt(const std::vector<double>& x, NodeId n) {
    return n < 0 ? 0.0 : x[static_cast<size_t>(n)];
}

template <class T>
class Stamper {
public:
    explicit Stamper(size_t n_unknowns) : a_(n_unknowns), b_(n_unknowns, T{}) {}

    size_t size() const { return b_.size(); }

    void clear() {
        if (mapped_) {
            // Compiled mode: the CSC values are overwritten in place by the
            // next pass (assign-on-first-write), so only the sequence cursor
            // and RHS reset here.
            cursor_ = 0;
            rhs_cursor_ = 0;
        } else {
            a_.clear();
            if (rhs_tape_) {
                rhs_nodes_seq_.clear();
                rhs_vals_seq_.clear();
            }
        }
        std::fill(b_.begin(), b_.end(), T{});
    }

    /// Opts this stamper into compiled assembly: the next csc() call learns
    /// the triplet->CSC map from the pass assembled so far, and later passes
    /// scatter in place.  Must be called before the first assembly so the
    /// learned pattern keeps structural zeros (a stamp value that happens to
    /// be zero on the learning pass can be nonzero later).
    void enable_compiled_assembly() {
        compile_enabled_ = true;
        a_.set_keep_zeros(true);
    }
    bool compiled_mode() const { return mapped_; }

    /// Additionally records the RHS call sequence (node per rhs_current /
    /// rhs_entry call) alongside the matrix tape, so the incremental
    /// transient assembler can rebuild RHS baselines call-by-call.  Must be
    /// enabled before the first assembly, like compiled mode.
    void enable_rhs_tape() { rhs_tape_ = true; }
    /// False once a pass's RHS call sequence deviated from the learned one
    /// (the recorded values are then stale); reset by the next relearn.
    bool rhs_tape_ok() const { return rhs_tape_ok_; }

    /// Raw matrix entry A(row, col) += v; ground rows/cols dropped.
    void entry(NodeId row, NodeId col, T v) {
        if (row < 0 || col < 0) return;
        if (mapped_) {
            if (overlay_ && overlay_failed_) return;
            if (cursor_ < rows_seq_.size() && rows_seq_[cursor_] == row &&
                cols_seq_[cursor_] == col) {
                seq_vals_[cursor_] = v;
                T& slot = csc_.values_mut()[static_cast<size_t>(map_[cursor_])];
                if (first_[cursor_])
                    slot = v;
                else
                    slot += v;
                ++cursor_;
                return;
            }
            if (overlay_) {
                // A partial re-stamp cannot demote (the rest of the pass is
                // a restored baseline, not replayable triplets): flag the
                // deviation and let the assembler rebuild from scratch.
                overlay_failed_ = true;
                return;
            }
            demote(); // stamp sequence deviated from the learned pattern
        }
        a_.add(static_cast<size_t>(row), static_cast<size_t>(col), v);
    }

    /// Two-terminal admittance stamp between nodes a and b.
    void admittance(NodeId a, NodeId b, T y) {
        entry(a, a, y);
        entry(b, b, y);
        entry(a, b, -y);
        entry(b, a, -y);
    }

    /// Transconductance: current y*(v(cp)-v(cn)) flows from `to` out of `from`
    /// (i.e. a VCCS with output current from -> to through the element).
    void transconductance(NodeId from, NodeId to, NodeId cp, NodeId cn, T y) {
        entry(from, cp, y);
        entry(from, cn, -y);
        entry(to, cp, -y);
        entry(to, cn, y);
    }

    /// RHS: current `i` flowing INTO node `n` from an independent source.
    void rhs_current(NodeId n, T i) {
        if (n < 0) return;
        if (rhs_tape_) {
            if (overlay_) {
                if (overlay_failed_) return;
                if (rhs_cursor_ < rhs_nodes_seq_.size() &&
                    rhs_nodes_seq_[rhs_cursor_] == n) {
                    rhs_vals_seq_[rhs_cursor_] = i;
                    ++rhs_cursor_;
                    b_[static_cast<size_t>(n)] += i;
                } else {
                    overlay_failed_ = true;
                }
                return;
            }
            if (mapped_) {
                if (rhs_cursor_ < rhs_nodes_seq_.size() &&
                    rhs_nodes_seq_[rhs_cursor_] == n) {
                    rhs_vals_seq_[rhs_cursor_] = i;
                    ++rhs_cursor_;
                } else {
                    rhs_tape_ok_ = false; // relearned on the next demote/reset
                }
            } else {
                rhs_nodes_seq_.push_back(n);
                rhs_vals_seq_.push_back(i);
            }
        }
        b_[static_cast<size_t>(n)] += i;
    }

    /// RHS entry for a branch (auxiliary) equation row.
    void rhs_entry(NodeId row, T v) { rhs_current(row, v); }

    const Triplets<T>& matrix() const { return a_; }
    Triplets<T>& matrix() { return a_; }
    const std::vector<T>& rhs() const { return b_; }

    /// CSC image of the pass assembled since the last clear().  With
    /// compiled assembly enabled, the first call (and any call after a
    /// pattern deviation) builds it from the triplets and learns the scatter
    /// map; later passes return the image entry() already filled in place.
    const SparseCSC<T>& csc() {
        if (mapped_) {
            if (cursor_ == rows_seq_.size()) {
                // A pass that made fewer RHS calls than the learned sequence
                // leaves stale values in the tape tail; flag it for the
                // incremental assembler (plain consumers read b_ directly).
                if (rhs_tape_ && rhs_cursor_ != rhs_nodes_seq_.size())
                    rhs_tape_ok_ = false;
                return csc_;
            }
            demote(); // pass ended short of the learned sequence
        }
        csc_ = SparseCSC<T>(a_);
        if (compile_enabled_) learn_map();
        return csc_;
    }

    // --- partitioned incremental assembly ------------------------------
    // The transient assembler restores a precomputed linear baseline into
    // the CSC value array / RHS, then re-stamps only the nonlinear devices
    // ("overlay"): each device's calls are verified against the learned
    // tape from its recorded span position.  A deviation (a value-dependent
    // stamp sequence) sets overlay_failed_ instead of demoting — the rest
    // of the pass is a restored image, not replayable triplets — and the
    // assembler falls back to a full relearn pass.

    /// Enters overlay mode.  Requires a learned map; returns false (and
    /// stays out of overlay mode) otherwise.
    bool begin_overlay() {
        if (!mapped_) return false;
        overlay_ = true;
        overlay_failed_ = false;
        return true;
    }
    /// Positions the matrix/RHS cursors at a recorded device span so the
    /// device's stamp calls overwrite exactly its learned tape positions.
    void overlay_seek(size_t mat_pos, size_t rhs_pos) {
        cursor_ = mat_pos;
        rhs_cursor_ = rhs_pos;
    }
    size_t mat_cursor() const { return cursor_; }
    size_t rhs_cursor() const { return rhs_cursor_; }
    bool overlay_failed() const { return overlay_failed_; }
    /// Leaves overlay mode; on a clean overlay the pass is marked complete
    /// (csc() returns the image without a demotion).  Returns success.
    bool end_overlay() {
        overlay_ = false;
        if (overlay_failed_) return false;
        cursor_ = rows_seq_.size();
        rhs_cursor_ = rhs_nodes_seq_.size();
        return true;
    }

    /// Drops the learned map, tapes and triplets entirely (back to the
    /// pre-learning state); the next full pass relearns everything.  Used
    /// by the incremental assembler when a device's stamp sequence turned
    /// out to be value-dependent.
    void reset_compiled() {
        mapped_ = false;
        overlay_ = false;
        overlay_failed_ = false;
        cursor_ = 0;
        rows_seq_.clear();
        cols_seq_.clear();
        seq_vals_.clear();
        map_.clear();
        first_.clear();
        rhs_nodes_seq_.clear();
        rhs_vals_seq_.clear();
        rhs_cursor_ = 0;
        rhs_tape_ok_ = true;
        a_.clear();
        std::fill(b_.begin(), b_.end(), T{});
    }

    // Tape/scatter introspection for the incremental assembler.  All views
    // are only meaningful in compiled mode with a learned map.
    const std::vector<int>& tape_rows() const { return rows_seq_; }
    const std::vector<int>& tape_cols() const { return cols_seq_; }
    const std::vector<T>& tape_values() const { return seq_vals_; }
    /// Stamp call -> CSC value slot.
    const std::vector<int>& tape_slots() const { return map_; }
    /// Nonzero when the call is the first landing in its slot (assign
    /// instead of accumulate).
    const std::vector<char>& tape_assigns() const { return first_; }
    const std::vector<int>& rhs_tape_nodes() const { return rhs_nodes_seq_; }
    const std::vector<T>& rhs_tape_values() const { return rhs_vals_seq_; }
    /// Mutable per-call tape values, for the assembler's compiled refresh
    /// plans: a device whose stamp layout is value-independent can rewrite
    /// its recorded call values in place instead of replaying the stamp
    /// through overlay mode.  The call sequence itself must not change.
    std::vector<T>& tape_values_mut() { return seq_vals_; }
    std::vector<T>& rhs_tape_values_mut() { return rhs_vals_seq_; }
    /// Direct value-image access for baseline restore (memcpy of a
    /// precomputed linear image); the pattern must not change.
    std::vector<T>& csc_values_mut() { return csc_.values_mut(); }
    std::vector<T>& rhs_mut() { return b_; }

    /// Multiplier independent sources apply to their excitation value.
    /// 1.0 everywhere except during the op solver's source-stepping
    /// homotopy rung, which ramps it from ~0 to 1 (sim::assemble_dc sets
    /// it; nonlinear companion stamps must NOT scale by it).
    void set_source_scale(double scale) { source_scale_ = scale; }
    double source_scale() const { return source_scale_; }

private:
    /// Leaves compiled mode: replays the values scattered so far this pass
    /// back into the triplet accumulator so assembly continues seamlessly.
    /// The next csc() call relearns the map from the new sequence.
    void demote() {
        mapped_ = false;
        static const obs::Counter fallbacks("circuit/stamp_map_fallbacks");
        obs::count(fallbacks);
        a_.clear();
        for (size_t i = 0; i < cursor_; ++i)
            a_.add(static_cast<size_t>(rows_seq_[i]), static_cast<size_t>(cols_seq_[i]),
                   seq_vals_[i]);
        cursor_ = 0;
        if (rhs_tape_) {
            // Keep the RHS calls verified so far this pass; the rest of the
            // pass appends, and the next csc() relearns from the new tape.
            rhs_nodes_seq_.resize(rhs_cursor_);
            rhs_vals_seq_.resize(rhs_cursor_);
        }
    }

    void learn_map() {
        const auto& rows = a_.rows();
        const auto& cols = a_.cols();
        const auto& vals = a_.values();
        const size_t nz = rows.size();
        rows_seq_.assign(rows.begin(), rows.end());
        cols_seq_.assign(cols.begin(), cols.end());
        seq_vals_.assign(vals.begin(), vals.end());
        map_.resize(nz);
        first_.assign(nz, 0);
        std::vector<char> seen(csc_.nnz(), 0);
        const auto& cp = csc_.col_ptr();
        const auto& ri = csc_.row_idx();
        for (size_t k = 0; k < nz; ++k) {
            const size_t c = static_cast<size_t>(cols[k]);
            const int* lo = ri.data() + cp[c];
            const int* hi = ri.data() + cp[c + 1];
            const int* it = std::lower_bound(lo, hi, rows[k]);
            SNIM_ASSERT(it != hi && *it == rows[k], "stamp map: slot (%d,%d) missing",
                        rows[k], cols[k]);
            const size_t slot = static_cast<size_t>(it - ri.data());
            map_[k] = static_cast<int>(slot);
            if (!seen[slot]) {
                seen[slot] = 1;
                first_[k] = 1;
            }
        }
        mapped_ = true;
        cursor_ = nz; // the learning pass itself is complete and consistent
        rhs_cursor_ = rhs_nodes_seq_.size();
        rhs_tape_ok_ = true;
    }

    Triplets<T> a_;
    std::vector<T> b_;
    double source_scale_ = 1.0;

    bool compile_enabled_ = false;
    bool mapped_ = false;
    size_t cursor_ = 0;          // position in the learned stamp sequence
    SparseCSC<T> csc_;           // compiled image (values of the current pass)
    std::vector<int> rows_seq_;  // learned sequence: row per stamp call
    std::vector<int> cols_seq_;  // learned sequence: col per stamp call
    std::vector<T> seq_vals_;    // values of the current pass (for demote)
    std::vector<int> map_;       // stamp call -> CSC value slot
    std::vector<char> first_;    // first stamp landing in its slot -> assign

    bool rhs_tape_ = false;          // record the RHS call sequence
    bool rhs_tape_ok_ = true;        // tape matches the last full pass
    bool overlay_ = false;           // partial re-stamp against the tape
    bool overlay_failed_ = false;    // overlay deviated; image is suspect
    size_t rhs_cursor_ = 0;          // position in the learned RHS sequence
    std::vector<int> rhs_nodes_seq_; // learned sequence: node per rhs call
    std::vector<T> rhs_vals_seq_;    // RHS values of the current pass
};

using RealStamper = Stamper<double>;
using ComplexStamper = Stamper<std::complex<double>>;

/// Transient integration context handed to stamp_tran/commit_tran.
struct TranParams {
    double time = 0.0; // end of the step being solved
    double dt = 0.0;
    /// 1 = backward Euler, 2 = trapezoidal.
    int order = 2;
};

} // namespace snim::circuit
