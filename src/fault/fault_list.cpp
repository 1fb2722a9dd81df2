#include "fault/fault_list.hpp"

namespace seqlearn::fault {

std::vector<std::size_t> FaultList::undetected() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < faults_.size(); ++i) {
        if (status_[i] == FaultStatus::Undetected) out.push_back(i);
    }
    return out;
}

std::vector<std::size_t> FaultList::aborted() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < faults_.size(); ++i) {
        if (status_[i] == FaultStatus::Aborted) out.push_back(i);
    }
    return out;
}

FaultList::Counts FaultList::counts() const {
    Counts c;
    c.total = faults_.size();
    for (const FaultStatus s : status_) {
        switch (s) {
            case FaultStatus::Undetected: ++c.undetected; break;
            case FaultStatus::Detected: ++c.detected; break;
            case FaultStatus::Untestable: ++c.untestable; break;
            case FaultStatus::UntestableBounded: ++c.untestable_bounded; break;
            case FaultStatus::Aborted: ++c.aborted; break;
        }
    }
    return c;
}

double FaultList::fault_coverage() const {
    const Counts c = counts();
    return c.total == 0 ? 0.0 : static_cast<double>(c.detected) / static_cast<double>(c.total);
}

double FaultList::test_coverage() const {
    const Counts c = counts();
    const std::size_t testable = c.total - c.untestable;
    return testable == 0 ? 0.0
                         : static_cast<double>(c.detected) / static_cast<double>(testable);
}

}  // namespace seqlearn::fault
