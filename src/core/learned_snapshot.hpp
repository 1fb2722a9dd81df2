#pragma once
// A frozen, shareable bundle of learned knowledge.
//
// Learning is a pre-processing step (paper Section 2): its output — the
// implication database and the tie set — is computed once and consumed by
// many later ATPG and validation runs. A LearnedSnapshot freezes a
// LearnResult behind a const interface with a stable address. It is the one
// home of learned data in a Session (api::Session::learn / use_learned) and
// is passed around by shared_ptr — to other Sessions over the same Design,
// or into a serving cache — feeding any number of concurrent consumers: the
// underlying result is never mutated after construction.

#include "core/seq_learn.hpp"

#include <memory>
#include <utility>

namespace seqlearn::core {

class LearnedSnapshot {
public:
    /// Freeze `result` (moved in).
    explicit LearnedSnapshot(LearnResult result) : result_(std::move(result)) {}

    /// The frozen result, for consumers wired via `const LearnResult*`
    /// (e.g. atpg::AtpgConfig::learned). Address-stable for the snapshot's
    /// lifetime.
    const LearnResult& result() const noexcept { return result_; }

    /// Heap bytes held by the frozen learned data (implication DB, dense tie
    /// vectors, equivalence links) — the snapshot's share of a serving cache
    /// entry's footprint.
    std::size_t memory_bytes() const noexcept { return result_.memory_bytes(); }

private:
    LearnResult result_;
};

/// Freeze `r` by move (no copy) into a shared snapshot.
inline std::shared_ptr<const LearnedSnapshot> freeze_learned(LearnResult&& r) {
    return std::make_shared<const LearnedSnapshot>(std::move(r));
}

}  // namespace seqlearn::core
