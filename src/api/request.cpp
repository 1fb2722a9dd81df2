#include "api/request.hpp"

#include "cnf/dispatch.hpp"
#include "exec/pool.hpp"

#include <algorithm>
#include <array>
#include <charconv>

namespace seqlearn::api {

namespace {

// Each enum's values in the order messages list them; the names come from
// the enum's own name function.
constexpr std::array kModes = {atpg::LearnMode::None, atpg::LearnMode::ForbiddenValue,
                               atpg::LearnMode::KnownValue};
constexpr std::array kBackends = {cnf::Backend::FrameSim, cnf::Backend::Sat, cnf::Backend::Auto};
constexpr std::array kOrders = {guide::OrderStrategy::Index, guide::OrderStrategy::Level,
                                guide::OrderStrategy::ScoapHardFirst, guide::OrderStrategy::Random};
constexpr std::array kGuidance = {guide::Guidance::None, guide::Guidance::Scoap};
constexpr std::array kFills = {guide::FillMode::X, guide::FillMode::Zero, guide::FillMode::One,
                               guide::FillMode::Random};

template <typename E, std::size_t N, typename NameOf>
E enum_from(const Fields& f, std::string_view key, const std::array<E, N>& values, E fallback,
            NameOf name_of) {
    std::array<std::string_view, N> names;
    for (std::size_t i = 0; i < N; ++i) names[i] = name_of(values[i]);
    const auto at = std::find(values.begin(), values.end(), fallback);
    return values[choice_from(f, key, names, static_cast<std::size_t>(at - values.begin()))];
}

}  // namespace

std::vector<std::string_view>::const_iterator ArgvFields::find(std::string_view key) const {
    const std::string flag = label(key);
    asked_.insert(flag);
    return std::find(args_.begin(), args_.end(), flag);
}

std::optional<std::string> ArgvFields::text(std::string_view key) const {
    const auto it = find(key);
    if (it == args_.end()) return std::nullopt;
    if (it + 1 == args_.end()) throw FieldError(label(key) + " needs a value");
    return std::string(it[1]);
}

std::optional<double> ArgvFields::number(std::string_view key) const {
    const std::optional<std::string> s = text(key);
    if (!s) return std::nullopt;
    double v = 0;
    const auto [end, ec] = std::from_chars(s->data(), s->data() + s->size(), v);
    if (ec != std::errc() || end != s->data() + s->size())
        return std::numeric_limits<double>::quiet_NaN();
    return v;
}

std::string ArgvFields::label(std::string_view key) const {
    std::string flag = "--";
    for (const char c : key) flag += c == '_' ? '-' : c;
    return flag;
}

std::string ArgvFields::unread() const {
    for (const std::string_view arg : args_)
        if (arg.starts_with("--") && !asked_.contains(arg)) return std::string(arg);
    return {};
}

std::chrono::milliseconds millis_from(const Fields& f, std::string_view key,
                                      std::chrono::milliseconds fallback) {
    using std::chrono::milliseconds;
    constexpr milliseconds::rep kMax =
        std::chrono::duration_cast<milliseconds>(std::chrono::steady_clock::duration::max())
            .count() /
        2;
    return milliseconds(count_from<milliseconds::rep>(f, key, fallback.count(), kMax));
}

std::size_t choice_from(const Fields& f, std::string_view key,
                        std::span<const std::string_view> names, std::size_t fallback) {
    const std::optional<std::string> s = f.text(key);
    if (!s) return fallback;
    const auto it = std::find(names.begin(), names.end(), *s);
    if (it != names.end()) return static_cast<std::size_t>(it - names.begin());
    // "a or b", "a, b, or c".
    std::string want;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0) want += names.size() > 2 ? ", " : " ";
        if (i > 0 && i + 1 == names.size()) want += "or ";
        want += names[i];
    }
    throw FieldError("unknown " + f.label(key) + " \"" + *s + "\" (want " + want + ")");
}

exec::BudgetSpec budget_from(const Fields& f, std::string_view item_key) {
    exec::BudgetSpec spec;
    spec.deadline = millis_from(f, "deadline_ms", spec.deadline);
    spec.max_items = count_from(f, item_key, spec.max_items);
    return spec;
}

unsigned threads_from(const Fields& f, unsigned fallback) {
    return count_from(f, "threads", fallback, exec::Pool::hardware_threads());
}

core::LearnConfig learn_config_from(const Fields& f) {
    core::LearnConfig cfg;
    if (const auto frames = count_from<std::uint32_t>(f, "frames", 0); frames > 0)
        cfg.max_frames = frames;
    cfg.sat_frames = count_from(f, "sat_frames", cfg.sat_frames);
    cfg.budget = budget_from(f, "limit_stems");
    return cfg;
}

void mode_from(const Fields& f, atpg::AtpgConfig& cfg) {
    cfg.mode = enum_from(f, "mode", kModes, atpg::LearnMode::ForbiddenValue, atpg::mode_name);
    cfg.count_c_cycle_redundant = cfg.mode != atpg::LearnMode::None;
}

atpg::AtpgConfig atpg_config_from(const Fields& f) {
    atpg::AtpgConfig cfg;
    cfg.backtrack_limit = count_from(f, "backtracks", cfg.backtrack_limit);
    cfg.budget = budget_from(f, "limit_faults");
    cfg.sat_frames = count_from(f, "sat_frames", cfg.sat_frames);
    cfg.order_seed = count_from(f, "order_seed", cfg.order_seed);
    cfg.rand_warmup = count_from(f, "rand_warmup", cfg.rand_warmup);
    mode_from(f, cfg);
    cfg.backend = enum_from(f, "backend", kBackends, cfg.backend, cnf::backend_name);
    cfg.order = enum_from(f, "order", kOrders, cfg.order, guide::order_name);
    cfg.guidance = enum_from(f, "guidance", kGuidance, cfg.guidance, guide::guidance_name);
    // Naming a fill turns on static compaction; an empty one leaves it off.
    if (!f.text("fill").value_or("").empty()) {
        cfg.compact = true;
        cfg.fill = enum_from(f, "fill", kFills, cfg.fill, guide::fill_name);
    }
    return cfg;
}

}  // namespace seqlearn::api
