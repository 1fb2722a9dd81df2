#include "netlist/builder.hpp"

#include "util/bytes.hpp"

#include <stdexcept>

namespace seqlearn::netlist {

namespace {

std::uint64_t hash_bytes(std::string_view s) noexcept {
    return util::Fnv1a{}.mix_bytes(s).value;
}

}  // namespace

NetlistBuilder::Sym NetlistBuilder::intern(std::string_view name) {
    if (table_.empty()) rehash(64);
    const std::size_t mask = table_.size() - 1;
    std::size_t slot = hash_bytes(name) & mask;
    while (true) {
        const std::uint32_t entry = table_[slot];
        if (entry == 0) break;
        const Sym s = entry - 1;
        if (spelling(s) == name) return s;
        slot = (slot + 1) & mask;
    }
    const Sym s = static_cast<Sym>(sym_off_.size() - 1);
    chars_.append(name);
    sym_off_.push_back(static_cast<std::uint32_t>(chars_.size()));
    sym_decl_.push_back(kNoDecl);
    table_[slot] = s + 1;
    // Grow at 70% load so probe chains stay short.
    if ((sym_off_.size() - 1) * 10 >= table_.size() * 7) rehash(table_.size() * 2);
    return s;
}

void NetlistBuilder::rehash(std::size_t buckets) {
    table_.assign(buckets, 0);
    const std::size_t mask = buckets - 1;
    for (Sym s = 0; s + 1 < sym_off_.size(); ++s) {
        std::size_t slot = hash_bytes(spelling(s)) & mask;
        while (table_[slot] != 0) slot = (slot + 1) & mask;
        table_[slot] = s + 1;
    }
}

void NetlistBuilder::add_decl(GateType type, Sym name, std::span<const Sym> fanins,
                              SeqAttrs attrs) {
    if (sym_decl_[name] != kNoDecl) {
        duplicates_.push_back(
            {cur_line_, "duplicate definition of '" + std::string(spelling(name)) + "'"});
        return;
    }
    sym_decl_[name] = static_cast<std::uint32_t>(decls_.size());
    const auto begin = static_cast<std::uint32_t>(fanins_.size());
    fanins_.insert(fanins_.end(), fanins.begin(), fanins.end());
    decls_.push_back(
        {type, name, begin, static_cast<std::uint32_t>(fanins.size()), attrs, cur_line_});
}

NetlistBuilder& NetlistBuilder::declare_source(GateType type, Sym name) {
    add_decl(type, name, {}, {});
    return *this;
}

NetlistBuilder& NetlistBuilder::declare_gate(GateType type, Sym name,
                                             std::span<const Sym> fanins) {
    add_decl(type, name, fanins, {});
    return *this;
}

NetlistBuilder& NetlistBuilder::declare_seq(GateType type, Sym name, std::span<const Sym> data,
                                            SeqAttrs attrs) {
    if (type == GateType::Dlatch) attrs.num_ports = static_cast<std::uint8_t>(data.size());
    add_decl(type, name, data, attrs);
    return *this;
}

NetlistBuilder& NetlistBuilder::declare_output(Sym name) {
    outputs_.push_back({name, cur_line_});
    return *this;
}

NetlistBuilder& NetlistBuilder::input(std::string_view name) {
    return declare_source(GateType::Input, intern(name));
}

NetlistBuilder& NetlistBuilder::constant(std::string_view name, bool value) {
    return declare_source(value ? GateType::Const1 : GateType::Const0, intern(name));
}

NetlistBuilder& NetlistBuilder::gate(GateType type, std::string_view name,
                                     const std::vector<std::string>& fanins) {
    if (type == GateType::Input || is_sequential(type))
        throw std::invalid_argument("NetlistBuilder::gate: use input()/dff()/dlatch()");
    std::vector<Sym> fan;
    fan.reserve(fanins.size());
    for (const std::string& f : fanins) fan.push_back(intern(f));
    return declare_gate(type, intern(name), fan);
}

NetlistBuilder& NetlistBuilder::dff(std::string_view name, std::string_view d, SeqAttrs attrs) {
    const Sym data[] = {intern(d)};
    return declare_seq(GateType::Dff, intern(name), data, attrs);
}

NetlistBuilder& NetlistBuilder::dlatch(std::string_view name,
                                       const std::vector<std::string>& ports, SeqAttrs attrs) {
    std::vector<Sym> data;
    data.reserve(ports.size());
    for (const std::string& p : ports) data.push_back(intern(p));
    return declare_seq(GateType::Dlatch, intern(name), data, attrs);
}

NetlistBuilder& NetlistBuilder::output(std::string_view name) {
    return declare_output(intern(name));
}

Netlist NetlistBuilder::build() const {
    Diagnostics diags;
    std::optional<Netlist> nl = build_impl(diags, /*strict=*/true);
    if (!nl) {
        const Diagnostic* e = diags.first_error();
        throw std::runtime_error("NetlistBuilder: " +
                                 (e ? e->message : std::string("build failed")));
    }
    return std::move(*nl);
}

std::optional<Netlist> NetlistBuilder::build(Diagnostics& diags) const {
    return build_impl(diags, /*strict=*/false);
}

std::optional<Netlist> NetlistBuilder::build_impl(Diagnostics& diags, bool strict) const {
    // Success depends only on errors recorded by THIS build: `diags` may
    // arrive pre-loaded (a caller merging several passes into one report).
    const std::size_t errors_on_entry = diags.error_count();
    // Duplicates were detected at declaration time (the first declaration
    // won). The legacy contract treats them as fatal; the collecting one
    // reports them and keeps going.
    for (const DuplicateNote& d : duplicates_) {
        if (strict) diags.error(d.line, d.message);
        else diags.warning(d.line, d.message + " (first definition wins)");
    }

    // Pre-validate every declaration so all problems are reported in one
    // pass and the emission below cannot fail on references or arity.
    for (const Decl& d : decls_) {
        const std::string_view name = spelling(d.name);
        if (name.empty()) {
            diags.error(d.line, "empty signal name");
            continue;
        }
        const std::size_t arity = d.fanin_count;
        switch (d.type) {
            case GateType::Input:
            case GateType::Const0:
            case GateType::Const1:
                break;
            case GateType::Buf:
            case GateType::Not:
            case GateType::Dff:
                if (arity != 1)
                    diags.error(d.line, to_string(d.type) + " '" + std::string(name) +
                                            "' takes exactly one input");
                break;
            case GateType::Dlatch:
                if (arity == 0)
                    diags.error(d.line,
                                "DLATCH '" + std::string(name) + "' takes >= 1 data input");
                break;
            default:
                if (arity < 2)
                    diags.error(d.line, to_string(d.type) + " '" + std::string(name) +
                                            "' takes >= 2 inputs");
                break;
        }
        for (const Sym f : decl_fanins(d)) {
            if (!declared(f))
                diags.error(d.line, "undeclared fanin '" + std::string(spelling(f)) +
                                        "' of '" + std::string(name) + "'");
        }
    }
    std::vector<bool> output_seen(sym_off_.size() - 1, false);
    for (const OutputRef& o : outputs_) {
        if (!declared(o.sym)) {
            diags.error(o.line,
                        "OUTPUT of undeclared signal '" + std::string(spelling(o.sym)) + "'");
        } else if (output_seen[o.sym]) {
            if (!strict)
                diags.warning(o.line,
                              "duplicate OUTPUT of '" + std::string(spelling(o.sym)) + "'");
        } else {
            output_seen[o.sym] = true;
        }
    }
    if (diags.error_count() != errors_on_entry) return std::nullopt;

    Netlist nl;
    nl.set_name(name_);
    std::vector<GateId> ids(decls_.size(), kNoGate);

    // Pass 1: sources and sequential elements. Sequential elements are
    // created with deferred fanins so that combinational feedback resolves.
    for (std::size_t i = 0; i < decls_.size(); ++i) {
        const Decl& d = decls_[i];
        if (d.type == GateType::Input || d.type == GateType::Const0 ||
            d.type == GateType::Const1) {
            ids[i] = nl.add_gate(d.type, std::string(spelling(d.name)), {});
        } else if (is_sequential(d.type)) {
            ids[i] = nl.add_sequential_deferred(d.type, std::string(spelling(d.name)));
            nl.seq_attrs(ids[i]) = d.attrs;
        }
    }

    // Pass 2: combinational gates in dependency order (iterative DFS over
    // combinational fanin edges; sequential elements and sources are leaves).
    enum class Mark : std::uint8_t { White, Grey, Black };
    std::vector<Mark> mark(decls_.size(), Mark::White);
    for (std::size_t i = 0; i < decls_.size(); ++i) {
        if (ids[i] != kNoGate) mark[i] = Mark::Black;
    }
    // Two-visit DFS: a node is marked Grey when its expansion starts and
    // Black when it is emitted. A Grey fanin seen during expansion is an
    // ancestor on the current dependency path, i.e. a combinational cycle.
    std::vector<std::size_t> stack;
    std::vector<GateId> fan;
    for (std::size_t root = 0; root < decls_.size(); ++root) {
        if (mark[root] != Mark::White) continue;
        stack.push_back(root);
        while (!stack.empty()) {
            const std::size_t i = stack.back();
            if (mark[i] == Mark::Black) {
                stack.pop_back();
                continue;
            }
            if (mark[i] == Mark::White) {
                mark[i] = Mark::Grey;
                for (const Sym f : decl_fanins(decls_[i])) {
                    const std::size_t j = sym_decl_[f];
                    if (mark[j] == Mark::White) {
                        stack.push_back(j);
                    } else if (mark[j] == Mark::Grey) {
                        diags.error(decls_[j].line, "combinational cycle through '" +
                                                        std::string(spelling(decls_[j].name)) +
                                                        "'");
                        return std::nullopt;
                    }
                }
                continue;  // revisit i once the pushed fanins are Black
            }
            // Second visit (Grey): all fanins are emitted.
            fan.clear();
            for (const Sym f : decl_fanins(decls_[i])) fan.push_back(ids[sym_decl_[f]]);
            ids[i] = nl.add_gate(decls_[i].type, std::string(spelling(decls_[i].name)), fan);
            mark[i] = Mark::Black;
            stack.pop_back();
        }
    }

    // Pass 3: attach sequential fanins.
    for (std::size_t i = 0; i < decls_.size(); ++i) {
        if (!is_sequential(decls_[i].type)) continue;
        fan.clear();
        for (const Sym f : decl_fanins(decls_[i])) fan.push_back(ids[sym_decl_[f]]);
        nl.attach_seq_fanins(ids[i], fan);
    }

    for (const OutputRef& o : outputs_) nl.mark_output(ids[sym_decl_[o.sym]]);

    try {
        nl.validate();
    } catch (const std::exception& e) {
        diags.error(0, e.what());  // unreachable if the pre-checks are complete
        return std::nullopt;
    }
    return nl;
}

}  // namespace seqlearn::netlist
