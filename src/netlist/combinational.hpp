// Sequential-to-combinational extraction.
//
// Delay testing of the ISCAS-89 / ITC-99 benchmarks is done on the
// *combinational logic* of the circuit (the paper, Section 4): every DFF
// output becomes a pseudo primary input and every DFF data input becomes a
// pseudo primary output. This module performs that extraction, producing a
// purely combinational netlist.
#pragma once

#include "netlist/netlist.hpp"

namespace pdf {

/// Extracts the combinational core: DFF outputs become inputs (after the
/// real ones) and DFF data fanins become outputs, under their original names.
/// Idempotent for already-combinational netlists (returns a copy). The
/// returned netlist is finalized.
Netlist extract_combinational(const Netlist& nl);

}  // namespace pdf
