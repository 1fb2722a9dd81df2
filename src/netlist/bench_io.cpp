#include "netlist/bench_io.hpp"

#include "netlist/builder.hpp"
#include "util/strings.hpp"

#include <charconv>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace seqlearn::netlist {

namespace {

using util::iequals;
using util::trim;

/// Chunked line scanner: reads the stream through a fixed 64 KiB buffer and
/// hands out one trimmed-at-'\n' string_view per call. Lines that span a
/// chunk boundary are assembled in a small carry string; everything else is
/// a zero-copy view into the buffer. The input is never materialized whole.
class LineScanner {
public:
    explicit LineScanner(std::istream& in) : in_(in), buf_(kChunk) {}

    /// Next line (without its terminator); false at end of input. The view
    /// is valid until the next call.
    bool next(std::string_view& line) {
        bool have_carry = false;
        carry_.clear();
        while (true) {
            if (pos_ == len_) {
                refill();
                if (len_ == 0) {
                    if (have_carry) {
                        line = carry_;
                        return true;  // final line without trailing newline
                    }
                    return false;
                }
            }
            const char* base = buf_.data();
            const void* nl = std::memchr(base + pos_, '\n', len_ - pos_);
            if (nl == nullptr) {
                carry_.append(base + pos_, len_ - pos_);
                have_carry = true;
                pos_ = len_;
                continue;
            }
            const auto end = static_cast<std::size_t>(static_cast<const char*>(nl) - base);
            if (have_carry) {
                carry_.append(base + pos_, end - pos_);
                line = carry_;
            } else {
                line = std::string_view(base + pos_, end - pos_);
            }
            pos_ = end + 1;
            return true;
        }
    }

    /// True when the underlying stream reported an I/O error (as opposed to
    /// a clean end of input).
    bool bad() const { return in_.bad(); }

private:
    static constexpr std::size_t kChunk = 64 * 1024;

    void refill() {
        pos_ = len_ = 0;
        if (eof_) return;
        in_.read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
        len_ = static_cast<std::size_t>(in_.gcount());
        if (len_ < buf_.size()) eof_ = true;
    }

    std::istream& in_;
    std::vector<char> buf_;
    std::size_t pos_ = 0;
    std::size_t len_ = 0;
    std::string carry_;
    bool eof_ = false;
};

std::optional<unsigned long> parse_num(std::string_view v) {
    if (v.empty()) return std::nullopt;
    unsigned long x = 0;
    const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
    if (ec != std::errc() || p != v.data() + v.size()) return std::nullopt;
    return x;
}

/// Split on any of `seps` into reused `out`, dropping empty tokens and
/// trimming each (allocation-free twin of util::split for the hot loop).
void split_into(std::string_view s, std::string_view seps,
                std::vector<std::string_view>& out) {
    out.clear();
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t end = s.find_first_of(seps, start);
        const std::size_t stop = end == std::string_view::npos ? s.size() : end;
        const std::string_view tok = trim(s.substr(start, stop - start));
        if (!tok.empty()) out.push_back(tok);
        if (end == std::string_view::npos) break;
        start = end + 1;
    }
}

struct PragmaRef {
    NetlistBuilder::Sym sym;
    SeqAttrs attrs;
    std::uint32_t line;
};

/// Parse "#@ seq NAME key[=value] ..." (tokens[0] is "seq").
void parse_seq_pragma(NetlistBuilder& b, std::span<const std::string_view> tokens,
                      std::uint32_t line_no, std::vector<PragmaRef>& pragmas,
                      Diagnostics& diags) {
    if (tokens.size() < 2) {
        diags.error(line_no, "#@ seq pragma without element name");
        return;
    }
    PragmaRef p;
    p.sym = b.intern(tokens[1]);
    p.line = line_no;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
        const std::string_view tok = tokens[i];
        const auto eq = tok.find('=');
        const std::string_view key = eq == std::string_view::npos ? tok : tok.substr(0, eq);
        const std::string_view val = eq == std::string_view::npos ? "" : tok.substr(eq + 1);
        if (iequals(key, "clock")) {
            const auto n = parse_num(val);
            if (!n || *n > 0xFFFF) {
                diags.error(line_no, "bad clock id '" + std::string(val) + "'");
                return;
            }
            p.attrs.clock_id = static_cast<std::uint16_t>(*n);
        } else if (iequals(key, "phase")) {
            const auto n = parse_num(val);
            if (!n || *n > 0xFF) {
                diags.error(line_no, "bad phase '" + std::string(val) + "'");
                return;
            }
            p.attrs.phase = static_cast<std::uint8_t>(*n);
        } else if (iequals(key, "sr")) {
            if (iequals(val, "none")) p.attrs.set_reset = SetReset::None;
            else if (iequals(val, "set")) p.attrs.set_reset = SetReset::SetOnly;
            else if (iequals(val, "reset")) p.attrs.set_reset = SetReset::ResetOnly;
            else if (iequals(val, "both")) p.attrs.set_reset = SetReset::Both;
            else {
                diags.error(line_no, "bad sr value '" + std::string(val) +
                                         "' (none/set/reset/both)");
                return;
            }
        } else if (iequals(key, "unconstrained")) {
            p.attrs.sr_unconstrained = true;
        } else if (iequals(key, "constrained")) {
            p.attrs.sr_unconstrained = false;
        } else {
            // A misspelled key would silently mis-clock the element —
            // that's corruption, not a tolerable edit, so it is an error
            // (as it was for the legacy throwing reader).
            diags.error(line_no, "unknown seq pragma key '" + std::string(key) + "'");
            return;
        }
    }
    pragmas.push_back(p);
}

}  // namespace

BenchReadResult read_bench_diag(std::istream& in, std::string circuit_name) {
    BenchReadResult res;
    Diagnostics& diags = res.diagnostics;
    NetlistBuilder b(std::move(circuit_name));
    std::vector<PragmaRef> pragmas;
    LineScanner scan(in);
    std::string_view raw;
    std::uint32_t line_no = 0;
    std::vector<std::string_view> tokens;          // reused per line
    std::vector<NetlistBuilder::Sym> arg_syms;     // reused per line
    while (scan.next(raw)) {
        ++line_no;
        const std::string_view line = trim(raw);
        if (line.empty()) continue;
        b.at_line(line_no);
        if (line[0] == '#') {
            const std::string_view body = trim(line.substr(1));
            if (!util::starts_with(body, "@")) continue;  // ordinary comment
            split_into(body.substr(1), " \t", tokens);
            if (tokens.empty()) continue;
            if (iequals(tokens[0], "seq")) {
                parse_seq_pragma(b, tokens, line_no, pragmas, diags);
            } else {
                diags.warning(line_no, "unknown #@ pragma '" + std::string(tokens[0]) +
                                           "'; ignored");
            }
            continue;
        }
        // INPUT(x) / OUTPUT(x) / name = TYPE(args)
        const auto lparen = line.find('(');
        const auto rparen = line.rfind(')');
        if (lparen == std::string_view::npos || rparen == std::string_view::npos ||
            rparen < lparen) {
            diags.error(line_no, "expected '(...)' in: " + std::string(line));
            continue;
        }
        const std::string_view head = trim(line.substr(0, lparen));
        const std::string_view args_sv = line.substr(lparen + 1, rparen - lparen - 1);
        split_into(args_sv, ",", tokens);

        if (iequals(head, "INPUT")) {
            if (tokens.size() != 1) {
                diags.error(line_no, "INPUT takes one signal");
                continue;
            }
            b.input(tokens[0]);
            continue;
        }
        if (iequals(head, "OUTPUT")) {
            if (tokens.size() != 1) {
                diags.error(line_no, "OUTPUT takes one signal");
                continue;
            }
            b.output(tokens[0]);
            continue;
        }
        const auto eq = head.find('=');
        if (eq == std::string_view::npos) {
            diags.error(line_no, "expected 'name = TYPE(...)'");
            continue;
        }
        const std::string_view name = trim(head.substr(0, eq));
        const std::string_view type_tok = trim(head.substr(eq + 1));
        if (name.empty() || type_tok.empty()) {
            diags.error(line_no, "malformed assignment");
            continue;
        }
        GateType type{};
        try {
            type = gate_type_from_string(type_tok);
        } catch (const std::invalid_argument& e) {
            diags.error(line_no, e.what());
            continue;
        }
        // Arity is validated by the builder (tagged with this line via
        // at_line), and keeping the declaration means a bad-arity gate's
        // consumers don't cascade into spurious undeclared-fanin errors.
        if (type == GateType::Const0 || type == GateType::Const1) {
            if (!tokens.empty())
                diags.warning(line_no, "constant takes no arguments; ignored");
            b.constant(name, type == GateType::Const1);
            continue;
        }
        arg_syms.clear();
        for (const std::string_view a : tokens) arg_syms.push_back(b.intern(a));
        const NetlistBuilder::Sym name_sym = b.intern(name);
        if (is_sequential(type)) b.declare_seq(type, name_sym, arg_syms);
        else b.declare_gate(type, name_sym, arg_syms);
    }
    if (scan.bad()) diags.error(line_no, "stream read failure (truncated input?)");

    // build() succeeds or fails on its OWN errors only; a netlist is
    // returned to the caller only when the whole pass (scan + build) was
    // error-free.
    std::optional<Netlist> nl = b.build(diags);
    if (!nl || !diags.ok()) return res;

    for (const PragmaRef& p : pragmas) {
        const GateId id = nl->find(b.spelling(p.sym));
        if (id == kNoGate || !is_sequential(nl->type(id))) {
            diags.warning(p.line, "#@ seq pragma for unknown sequential element '" +
                                      std::string(b.spelling(p.sym)) + "'; ignored");
            continue;
        }
        SeqAttrs attrs = p.attrs;
        attrs.num_ports = nl->seq_attrs(id).num_ports;  // ports come from arity
        nl->seq_attrs(id) = attrs;
    }
    res.netlist = std::move(nl);
    return res;
}

Netlist read_bench(std::istream& in, std::string circuit_name) {
    BenchReadResult res = read_bench_diag(in, std::move(circuit_name));
    if (!res.netlist) {
        const Diagnostic* e = res.diagnostics.first_error();
        throw std::runtime_error(e ? "bench:" + std::to_string(e->line) + ": " + e->message
                                   : "bench: parse failed");
    }
    return std::move(*res.netlist);
}

Netlist read_bench_string(std::string_view text, std::string circuit_name) {
    std::istringstream in{std::string(text)};
    return read_bench(in, std::move(circuit_name));
}

void write_bench(std::ostream& out, const Netlist& nl) {
    out << "# " << nl.name() << "\n";
    for (const GateId id : nl.inputs()) out << "INPUT(" << nl.name_of(id) << ")\n";
    for (const GateId id : nl.outputs()) out << "OUTPUT(" << nl.name_of(id) << ")\n";
    for (GateId id = 0; id < nl.size(); ++id) {
        const GateType t = nl.type(id);
        if (t == GateType::Input) continue;
        out << nl.name_of(id) << " = " << to_string(t) << "(";
        bool first = true;
        for (const GateId f : nl.fanins(id)) {
            if (!first) out << ", ";
            out << nl.name_of(f);
            first = false;
        }
        out << ")\n";
    }
    for (const GateId id : nl.seq_elements()) {
        const SeqAttrs& a = nl.seq_attrs(id);
        const SeqAttrs defaults{};
        const bool nondefault = a.clock_id != defaults.clock_id || a.phase != defaults.phase ||
                                a.set_reset != defaults.set_reset ||
                                a.sr_unconstrained != defaults.sr_unconstrained;
        if (!nondefault) continue;
        out << "#@ seq " << nl.name_of(id) << " clock=" << a.clock_id
            << " phase=" << static_cast<int>(a.phase);
        switch (a.set_reset) {
            case SetReset::None: out << " sr=none"; break;
            case SetReset::SetOnly: out << " sr=set"; break;
            case SetReset::ResetOnly: out << " sr=reset"; break;
            case SetReset::Both: out << " sr=both"; break;
        }
        out << (a.sr_unconstrained ? " unconstrained" : " constrained") << "\n";
    }
}

std::string write_bench_string(const Netlist& nl) {
    std::ostringstream out;
    write_bench(out, nl);
    return out.str();
}

}  // namespace seqlearn::netlist
