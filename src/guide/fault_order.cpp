#include "guide/fault_order.hpp"

#include "util/rng.hpp"

#include <algorithm>
#include <cassert>

namespace seqlearn::guide {

std::string_view order_name(OrderStrategy s) {
    switch (s) {
        case OrderStrategy::Index: return "index";
        case OrderStrategy::Level: return "level";
        case OrderStrategy::ScoapHardFirst: return "scoap_hard_first";
        case OrderStrategy::Random: return "random";
    }
    return "index";
}

void order_targets(std::vector<std::size_t>& targets, OrderStrategy s,
                   const netlist::Topology& topo, const fault::FaultList& list,
                   const Testability* tst, std::uint64_t seed) {
    switch (s) {
        case OrderStrategy::Index:
            // The canonical schedule is already index-sorted.
            return;
        case OrderStrategy::Level:
            std::stable_sort(targets.begin(), targets.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return topo.level(list.fault(a).gate) <
                                        topo.level(list.fault(b).gate);
                             });
            return;
        case OrderStrategy::ScoapHardFirst: {
            assert(tst != nullptr);
            // Hardest finite-cost fault first; kInf (untestable-looking)
            // last so provers see them after the easy coverage is banked.
            auto key = [&](std::size_t i) {
                const std::uint32_t h = tst->hardness(list.fault(i));
                return h >= Testability::kInf ? 0u : h;
            };
            std::stable_sort(targets.begin(), targets.end(),
                             [&](std::size_t a, std::size_t b) { return key(a) > key(b); });
            return;
        }
        case OrderStrategy::Random: {
            util::Rng rng(seed);
            for (std::size_t i = targets.size(); i > 1; --i)
                std::swap(targets[i - 1], targets[rng.below(i)]);
            return;
        }
    }
}

}  // namespace seqlearn::guide
