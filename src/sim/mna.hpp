// MNA system assembly: loops devices and collects stamps.  Shared by every
// analysis (OP, AC, transient).
#pragma once

#include "circuit/netlist.hpp"

namespace snim::sim {

using circuit::Netlist;
using circuit::NodeId;

/// Node-to-ground conductance [S] every analysis adds at each node (not
/// branch unknowns) to keep its matrices regular: the operating point's
/// final level, every transient step and every AC point.
inline constexpr double kGmin = 1e-12;

/// Stamps kGmin from every node to ground.  Every transient assembler —
/// including the incremental one — must add it through this one function
/// so the stamp order stays identical.
void stamp_gmin(const Netlist& netlist, circuit::RealStamper& s);

/// Assembles the DC Newton system at iterate `x`.  `gmin` is added from
/// every node (not branch unknowns) to ground: kGmin for a plain solve,
/// larger levels on the op solver's gmin-stepping rung.  `source_scale`
/// multiplies every independent source value (1.0 for a plain solve; the
/// op solver's source-stepping rung ramps it 0 -> 1).
void assemble_dc(const Netlist& netlist, circuit::RealStamper& s,
                 const std::vector<double>& x, double gmin,
                 double source_scale = 1.0);

/// Assembles a transient Newton system for the step described by `tp`.
void assemble_tran(const Netlist& netlist, circuit::RealStamper& s,
                   const std::vector<double>& x, const circuit::TranParams& tp);

/// Assembles the small-signal system at angular frequency `omega` around the
/// operating point `xop`.  Devices in `exclude` (may be null) are skipped --
/// used for coupling-path ablation studies.
void assemble_ac(const Netlist& netlist, circuit::ComplexStamper& s,
                 const std::vector<double>& xop, double omega,
                 const std::vector<const circuit::Device*>* exclude = nullptr);

} // namespace snim::sim
