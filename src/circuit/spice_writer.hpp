// Writes a Netlist back out as SPICE-like text (the extracted-model dump the
// paper's flow would hand to Spectre RF).
#pragma once

#include <string>

#include "circuit/netlist.hpp"

namespace snim::circuit {

std::string write_spice(const Netlist& netlist, const std::string& title = "");

} // namespace snim::circuit
