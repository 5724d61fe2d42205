// Abstract circuit device.  Concrete devices live in passives.hpp,
// sources.hpp, mosfet.hpp, varactor.hpp, diode.hpp and controlled.hpp.
//
// Terminal nodes are stored in the base class so netlist surgery
// (Netlist::absorb, extraction stitching) can remap them uniformly;
// concrete devices access them through named index constants.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuit/stamp.hpp"
#include "util/error.hpp"

namespace snim::circuit {

/// Maps a NodeId to its printable name (provided by the owning Netlist).
using NodeNamer = std::function<std::string(NodeId)>;

/// Assembly partition of a device's transient stamp.  The classification is
/// a contract the incremental transient assembler relies on:
///
///   * LinearStatic  — matrix entries are constant for an entire run
///     (resistors, controlled sources, independent sources).  RHS values may
///     still vary with tp.time (source waveforms), never with the iterate.
///   * LinearDynamic — companion stamps whose matrix entries are a pure
///     function of (dt, order) and whose RHS additionally depends on the
///     committed integration state (capacitors, inductors).
///   * Nonlinear     — the stamp depends on the Newton iterate `x`
///     (MOSFETs, diodes, varactors) and must be re-evaluated per iteration.
enum class Partition { LinearStatic, LinearDynamic, Nonlinear };

/// SPICE card head for a device: prepends the type letter only when the
/// name does not already start with it (so "r1" stays "r1", "load" becomes
/// "Cload" for a capacitor).
std::string spice_head(char kind, const std::string& name);

/// Bounds-checked read used by Device::load_tran_state implementations: a
/// checkpoint whose device-state blob is shorter than the netlist expects
/// must surface as a named error, never an out-of-range read.
inline double take_tran_state(const std::vector<double>& in, size_t& pos,
                              const char* device) {
    if (pos >= in.size())
        raise("checkpoint device-state underrun at device '%s'", device);
    return in[pos++];
}

class Device {
public:
    Device(std::string name, std::vector<NodeId> terminals)
        : name_(std::move(name)), terms_(std::move(terminals)) {}
    virtual ~Device() = default;

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    const std::string& name() const { return name_; }

    /// Terminal nodes (for connectivity checks and net tracing).
    const std::vector<NodeId>& nodes() const { return terms_; }

    /// Rewrites every terminal id; used when merging netlists.
    void remap_nodes(const std::function<NodeId(NodeId)>& f) {
        for (auto& t : terms_) t = f(t);
    }

    /// Disabled devices are skipped by every analysis (open circuit);
    /// used for coupling-path ablation studies.  A change bumps the owning
    /// netlist's Netlist::disable_generation().
    void set_disabled(bool disabled) {
        if (disabled == disabled_) return;
        disabled_ = disabled;
        if (disable_gen_ != nullptr) ++*disable_gen_;
    }
    bool disabled() const { return disabled_; }

    /// Number of auxiliary unknowns (branch currents) this device needs.
    virtual size_t aux_count() const { return 0; }
    /// First auxiliary unknown index, assigned by Netlist::finalize().
    void set_aux_base(NodeId base) { aux_base_ = base; }
    NodeId aux_base() const { return aux_base_; }

    /// Newton stamp for the DC operating point at iterate `x`.
    virtual void stamp_dc(RealStamper& s, const std::vector<double>& x) const = 0;

    /// Newton stamp for a transient step ending at tp.time.  The default
    /// forwards to stamp_dc, correct for memoryless devices.
    virtual void stamp_tran(RealStamper& s, const std::vector<double>& x,
                            const TranParams& tp) {
        (void)tp;
        stamp_dc(s, x);
    }

    /// Initialises integration state from a converged DC solution.
    virtual void init_tran(const std::vector<double>& x) { (void)x; }

    /// Accepts the step: records state used by the next companion model.
    virtual void commit_tran(const std::vector<double>& x, const TranParams& tp) {
        (void)x;
        (void)tp;
    }

    /// Appends this device's transient integration state (the values
    /// init_tran/commit_tran maintain) to `out` as raw doubles, for
    /// checkpointing.  Memoryless devices append nothing.
    virtual void save_tran_state(std::vector<double>& out) const { (void)out; }

    /// Restores state written by save_tran_state, consuming values from
    /// `in` starting at `pos` (advanced past what was read).  Used by
    /// checkpoint resume INSTEAD of init_tran — the restored state must
    /// reproduce the killed run bit-for-bit.
    virtual void load_tran_state(const std::vector<double>& in, size_t& pos) {
        (void)in;
        (void)pos;
    }

    /// Small-signal stamp around operating point `xop` at angular
    /// frequency `omega`.
    virtual void stamp_ac(ComplexStamper& s, const std::vector<double>& xop,
                          double omega) const = 0;

    /// Assembly partition of this device's stamps (see Partition).  The
    /// default suits memoryless linear devices; devices with companion
    /// models or iterate-dependent stamps must override.
    virtual Partition partition() const { return Partition::LinearStatic; }

    /// SPICE-style card describing this device (used by the netlist writer).
    virtual std::string card(const NodeNamer& nn) const = 0;

protected:
    NodeId term(size_t i) const {
        SNIM_ASSERT(i < terms_.size(), "device '%s': bad terminal %zu", name_.c_str(), i);
        return terms_[i];
    }

private:
    friend class Netlist; // binds disable_gen_ in add_device()

    std::string name_;
    std::vector<NodeId> terms_;
    NodeId aux_base_ = -1;
    bool disabled_ = false;
    std::uint64_t* disable_gen_ = nullptr; // owning netlist's counter
};

} // namespace snim::circuit
