#pragma once
// One request→config mapping for every front end. A daemon request and a
// command line name the same fields (the request member `rand_warmup` is the
// flag `--rand-warmup`), read through a Fields source, so names, defaults
// and checks cannot drift: a count is a whole number within its field's
// range, a name must be one of its enum's, and anything else throws
// FieldError naming the field — a usage error (exit code / protocol code 2).

#include "atpg/atpg_loop.hpp"
#include "core/seq_learn.hpp"
#include "exec/budget.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace seqlearn::api {

/// A field the mapping refused; what() names the field.
struct FieldError : std::invalid_argument {
    using std::invalid_argument::invalid_argument;
};

/// Named request fields: a JSON request's members or a command line's flags.
class Fields {
public:
    virtual ~Fields() = default;
    /// The field's text; nullopt when absent.
    virtual std::optional<std::string> text(std::string_view key) const = 0;
    /// The field's number; nullopt when absent, NaN when not a number.
    virtual std::optional<double> number(std::string_view key) const = 0;
    /// The field's name in messages: `mode` in a request, `--mode` on a
    /// command line.
    virtual std::string label(std::string_view key) const = 0;
};

/// Fields from command-line flags, each followed by its value. Lookups
/// record the flags they ask about, so unread() can refuse the rest.
class ArgvFields final : public Fields {
public:
    ArgvFields(int argc, const char* const* argv) : args_(argv, argv + argc) {}

    std::optional<std::string> text(std::string_view key) const override;
    std::optional<double> number(std::string_view key) const override;
    std::string label(std::string_view key) const override;
    /// Whether the valueless switch `--key` is present (e.g. --json).
    bool has(std::string_view key) const { return find(key) != args_.end(); }
    /// The first `--flag` no lookup asked about; empty when there is none.
    std::string unread() const;

private:
    /// Records `--key` as asked about and finds it.
    std::vector<std::string_view>::const_iterator find(std::string_view key) const;

    std::vector<std::string_view> args_;
    mutable std::set<std::string, std::less<>> asked_;
};

/// The count validator: field `key` as a whole number in [0, max], or
/// `fallback` when absent.
template <typename T>
T count_from(const Fields& f, std::string_view key, T fallback,
             T max = std::numeric_limits<T>::max()) {
    const std::optional<double> d = f.number(key);
    if (!d) return fallback;
    // Casting a negative, fractional, non-finite or oversized double is
    // undefined behaviour; 2^digits bounds T exactly (T's max may round up).
    if (std::isfinite(*d) && *d >= 0 && *d == std::floor(*d) &&
        *d < std::ldexp(1.0, std::numeric_limits<T>::digits) && static_cast<T>(*d) <= max)
        return static_cast<T>(*d);
    throw FieldError("\"" + f.label(key) + "\" must be a whole number in [0, " +
                     std::to_string(max) + "]");
}

/// Milliseconds, at most half the steady clock's range (deadlines are added
/// to steady_clock::now()).
std::chrono::milliseconds millis_from(const Fields& f, std::string_view key,
                                      std::chrono::milliseconds fallback);

/// Field `key` as an index into `names`, or `fallback` when absent.
std::size_t choice_from(const Fields& f, std::string_view key,
                        std::span<const std::string_view> names, std::size_t fallback);

/// deadline_ms plus the stage's work-item limit `item_key`.
exec::BudgetSpec budget_from(const Fields& f, std::string_view item_key);

/// threads: 0 is one worker per hardware thread, more than that is refused.
unsigned threads_from(const Fields& f, unsigned fallback);

/// frames (0 keeps the default depth), sat_frames, limit_stems, deadline_ms.
core::LearnConfig learn_config_from(const Fields& f);

/// mode (paper Table 5: none, forbidden — the default — or known). Learned
/// modes also count c-cycle-redundant faults untestable, as the paper does.
void mode_from(const Fields& f, atpg::AtpgConfig& cfg);

/// mode, backend, order, guidance, fill (naming one turns on compaction),
/// backtracks, sat_frames, order_seed, rand_warmup, limit_faults,
/// deadline_ms.
atpg::AtpgConfig atpg_config_from(const Fields& f);

}  // namespace seqlearn::api
