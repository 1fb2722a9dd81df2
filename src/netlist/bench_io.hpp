#pragma once
// ISCAS-89 .bench reader/writer.
//
// The classic format is preserved exactly:
//     INPUT(G0)
//     OUTPUT(G17)
//     G5 = DFF(G10)
//     G14 = NOT(G0)
//     G9 = NAND(G16, G15)
// Real-circuit attributes (multiple clock domains, phases, set/reset,
// multi-port latches) are carried in pragma comments so files stay readable
// by other ISCAS-89 tools:
//     #@ seq G5 clock=2 phase=1 sr=reset unconstrained
// A DLATCH with several data arguments is a multiple-port latch.
//
// The reader is streaming: one pass over the input through a fixed-size
// chunk buffer (no whole-file string), names interned flat in the builder,
// so a multi-100k-gate design parses in O(gates) memory. Problems are
// collected as line-numbered Diagnostics rather than aborting at the first
// one; read_bench_diag() is the primary entry point. The throwing
// read_bench()/read_bench_string() wrappers still throw on every error —
// but conditions now classified as warnings (duplicate definitions,
// pragmas naming unknown elements) are accepted where they used to throw;
// use read_bench_diag() to observe them.

#include "netlist/diagnostics.hpp"
#include "netlist/netlist.hpp"

#include <iosfwd>
#include <optional>
#include <string>

namespace seqlearn::netlist {

/// Result of parsing a .bench description: the netlist (present iff no
/// error was recorded) plus every diagnostic collected during the pass.
///
/// Errors: malformed syntax, unknown gate types, undeclared fanins,
/// undeclared OUTPUT signals, arity violations, combinational cycles,
/// malformed pragma keys/values, and stream read failures.
/// Warnings (netlist still produced): duplicate definitions (the first
/// wins), duplicate INPUT/OUTPUT marks, `#@ seq` pragmas naming unknown or
/// non-sequential elements (ignored — mirrors db_io's skip-unknown-gates
/// rule so files survive mild netlist edits), and unknown `#@` pragma tags
/// (ignored). Callers of the throwing wrappers see errors but not
/// warnings; use read_bench_diag to observe both.
struct BenchReadResult {
    std::optional<Netlist> netlist;
    Diagnostics diagnostics;

    bool ok() const noexcept { return netlist.has_value(); }
};

/// Parse a .bench description in one streaming pass, collecting diagnostics.
BenchReadResult read_bench_diag(std::istream& in, std::string circuit_name = "circuit");

/// Parse a .bench description. Throws std::runtime_error with a line number
/// on the first error (warnings are ignored). Legacy wrapper over
/// read_bench_diag().
Netlist read_bench(std::istream& in, std::string circuit_name = "circuit");

/// Parse a .bench description held in a string (throwing wrapper).
Netlist read_bench_string(std::string_view text, std::string circuit_name = "circuit");

/// Write `nl` in .bench format (including attribute pragmas for any
/// sequential element with non-default attributes).
void write_bench(std::ostream& out, const Netlist& nl);

/// write_bench into a string.
std::string write_bench_string(const Netlist& nl);

}  // namespace seqlearn::netlist
