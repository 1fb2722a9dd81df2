#pragma once
// Fault bookkeeping for ATPG campaigns.

#include "fault/fault.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace seqlearn::fault {

enum class FaultStatus : std::uint8_t {
    Undetected,  ///< not yet detected nor proven untestable
    Detected,    ///< a test sequence detects it
    Untestable,  ///< proven untestable for every sequence length
    Aborted,     ///< ATPG gave up (backtrack limit)
    /// Proven untestable within a bounded frame window (K-frame CNF
    /// unsatisfiability) only: a longer sequence may still detect it, so
    /// coverage metrics count it apart from Untestable. The frame bound
    /// travels in AtpgOutcome's untestable records.
    UntestableBounded,
};

/// How a fault was proven untestable — the one taxonomy every prover
/// (tie-gate marking, the combinational redundancy prover, the CNF
/// timeframe-expansion backend) reports into.
enum class UntestableProof : std::uint8_t {
    None,           ///< no proof; the fault may be testable
    TieGate,        ///< stuck at the tied value of its own line
    Combinational,  ///< exhausted single-frame free-state search
    Structural,     ///< fanout cone reaches no primary output
    BoundedCnf,     ///< K-frame CNF unsatisfiable (untestable within K)
};

/// Status-tracked list of (usually collapsed) faults.
class FaultList {
public:
    explicit FaultList(std::vector<Fault> faults)
        : faults_(std::move(faults)), status_(faults_.size(), FaultStatus::Undetected) {}

    std::size_t size() const noexcept { return faults_.size(); }
    const Fault& fault(std::size_t i) const noexcept { return faults_[i]; }
    std::span<const Fault> faults() const noexcept { return faults_; }
    FaultStatus status(std::size_t i) const noexcept { return status_[i]; }
    void set_status(std::size_t i, FaultStatus s) noexcept { status_[i] = s; }

    /// Indices still Undetected (the ATPG work queue), in index order.
    std::vector<std::size_t> undetected() const;

    /// Indices with status Aborted (retry queue for a second pass).
    std::vector<std::size_t> aborted() const;

    /// Faults per status; the five counts sum to `total`.
    struct Counts {
        std::size_t total = 0;
        std::size_t detected = 0;
        std::size_t untestable = 0;          ///< proven for every length
        std::size_t untestable_bounded = 0;  ///< within a frame bound only
        std::size_t aborted = 0;
        std::size_t undetected = 0;
    };
    Counts counts() const;

    /// Fault coverage: detected / total.
    double fault_coverage() const;
    /// Test coverage: detected / (total - untestable), the paper's metric.
    /// Only proven untestability leaves the denominator; bounded verdicts
    /// stay in it.
    double test_coverage() const;

private:
    std::vector<Fault> faults_;
    std::vector<FaultStatus> status_;
};

}  // namespace seqlearn::fault
