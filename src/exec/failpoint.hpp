#pragma once
// Deterministic fault-injection harness for the governance and I/O chaos
// test suites.
//
// A FailurePoint is armed with (site, nth arrival, kind) and threaded
// through stage configs next to CancelFlag/Budget. Instrumented code calls
// poll(site) at the named sites; the Nth arrival at the armed site throws —
// either an InjectedFault or std::bad_alloc — from inside the work item /
// commit, exercising the same unwind paths a real failure would take.
// Arrival counting is a single atomic fetch_add per poll, so exactly one
// thread observes the armed arrival even when the site runs on a parallel
// worker, and repeated runs with the same seed fail at the same arrival.
//
// I/O sites (filesystem writes, fsyncs, renames, socket sends) use the
// non-throwing twin fire(): the instrumented call site asks "does this
// arrival fail?" and on true simulates the OS-level failure itself — a
// short write, an EIO from fsync, a failed rename — so the degradation
// path under test is the real errno-handling code, not an unwind. The same
// arming (site, nth) drives both flavors.
//
// Disarmed FailurePoints (and null pointers, the production default) cost
// one relaxed atomic load per poll/fire.

#include <array>
#include <atomic>
#include <cstddef>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>

namespace seqlearn::exec {

/// Instrumented sites. Kept deliberately coarse: a site names a class of
/// code location ("inside a work item's compute"), the arrival index picks
/// the concrete occurrence.
enum class FailSite : unsigned char {
    WorkItem = 0,     ///< inside a work item (learning batch, ATPG target, fault-sim pass)
    SpecCommit,       ///< inside an ATPG target commit
    BatchRecompute,   ///< before a learning batch re-simulates units a tie left stale
    FsWrite,          ///< a filesystem write() — armed arrival = short write
    FsFsync,          ///< an fsync()/fdatasync() — armed arrival = EIO
    FsRename,         ///< a rename() into place — armed arrival = EIO
    SockSend,         ///< a socket send() — armed arrival = short send
    kCount,
};

inline const char* fail_site_name(FailSite s) noexcept {
    switch (s) {
        case FailSite::WorkItem: return "work_item";
        case FailSite::SpecCommit: return "spec_commit";
        case FailSite::BatchRecompute: return "batch_recompute";
        case FailSite::FsWrite: return "fs_write";
        case FailSite::FsFsync: return "fs_fsync";
        case FailSite::FsRename: return "fs_rename";
        case FailSite::SockSend: return "sock_send";
        default: return "unknown";
    }
}

/// What the armed poll throws.
enum class FailKind : unsigned char {
    Error = 0,  ///< InjectedFault (runtime_error)
    BadAlloc,   ///< std::bad_alloc, simulating an allocation failure
};

/// Exception thrown by an armed FailurePoint (FailKind::Error).
struct InjectedFault : std::runtime_error {
    explicit InjectedFault(FailSite site)
        : std::runtime_error(std::string("injected fault at ") + fail_site_name(site)),
          site(site) {}
    FailSite site;
};

class FailurePoint {
public:
    FailurePoint() = default;
    FailurePoint(const FailurePoint&) = delete;
    FailurePoint& operator=(const FailurePoint&) = delete;

    /// Arm: the `nth` arrival (1-based) at `site` throws `kind`. Re-arming
    /// resets all arrival counters. Not thread-safe against concurrent
    /// poll() — arm between runs, not during one.
    void arm(FailSite site, std::size_t nth, FailKind kind = FailKind::Error) noexcept {
        for (auto& c : arrivals_) c.store(0, std::memory_order_relaxed);
        site_ = site;
        nth_ = nth;
        kind_ = kind;
        armed_.store(true, std::memory_order_release);
    }

    void disarm() noexcept { armed_.store(false, std::memory_order_release); }

    /// Instrumentation hook. Throws when this arrival is the armed one.
    void poll(FailSite site) {
        if (!armed_.load(std::memory_order_acquire)) return;
        const std::size_t arrival =
            1 + arrivals_[static_cast<std::size_t>(site)].fetch_add(
                    1, std::memory_order_relaxed);
        if (site == site_ && arrival == nth_) {
            if (kind_ == FailKind::BadAlloc) throw std::bad_alloc();
            throw InjectedFault(site);
        }
    }

    /// Non-throwing instrumentation hook for I/O sites: true exactly when
    /// this arrival is the armed one. The caller simulates the OS failure
    /// (short write, EIO, failed rename) so the production errno path runs.
    bool fire(FailSite site) noexcept {
        if (!armed_.load(std::memory_order_acquire)) return false;
        const std::size_t arrival =
            1 + arrivals_[static_cast<std::size_t>(site)].fetch_add(
                    1, std::memory_order_relaxed);
        return site == site_ && arrival == nth_;
    }

    /// Arrivals recorded at `site` since the last arm() (test introspection).
    std::size_t hits(FailSite site) const noexcept {
        return arrivals_[static_cast<std::size_t>(site)].load(std::memory_order_relaxed);
    }

private:
    std::array<std::atomic<std::size_t>, static_cast<std::size_t>(FailSite::kCount)>
        arrivals_{};
    FailSite site_ = FailSite::WorkItem;
    std::size_t nth_ = 0;
    FailKind kind_ = FailKind::Error;
    std::atomic<bool> armed_{false};
};

/// Arm `fp` from a "<site>:<nth>" spec ("fs_rename:1", "sock_send:3") — the
/// deterministic-chaos knob the CLI's `serve --chaos` flag and the CI crash
/// smoke use. Returns false (fp untouched) on an unknown site name or a
/// non-positive arrival count.
inline bool arm_from_spec(FailurePoint& fp, std::string_view spec) {
    const std::size_t colon = spec.find(':');
    if (colon == std::string_view::npos) return false;
    const std::string_view site_s = spec.substr(0, colon);
    const std::string_view nth_s = spec.substr(colon + 1);
    FailSite site = FailSite::kCount;
    for (unsigned char i = 0; i < static_cast<unsigned char>(FailSite::kCount); ++i) {
        if (site_s == fail_site_name(static_cast<FailSite>(i))) {
            site = static_cast<FailSite>(i);
            break;
        }
    }
    if (site == FailSite::kCount || nth_s.empty()) return false;
    std::size_t nth = 0;
    for (const char c : nth_s) {
        if (c < '0' || c > '9') return false;
        nth = nth * 10 + static_cast<std::size_t>(c - '0');
    }
    if (nth == 0) return false;
    fp.arm(site, nth);
    return true;
}

}  // namespace seqlearn::exec
