#include "server/service.hpp"

#include "api/session.hpp"
#include "cnf/dispatch.hpp"
#include "core/db_io.hpp"
#include "core/impl_db.hpp"
#include "server/json.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace seqlearn::server {

namespace {

/// The CLI's exit_code_for, as protocol codes.
ProtoCode code_for(const exec::RunOutcome& o) {
    switch (o.status) {
        case exec::RunStatus::Completed: return ProtoCode::Ok;
        case exec::RunStatus::DeadlineExceeded:
        case exec::RunStatus::LimitReached: return ProtoCode::Budget;
        case exec::RunStatus::Cancelled: return ProtoCode::Cancelled;
        case exec::RunStatus::Failed: return ProtoCode::Internal;
    }
    return ProtoCode::Internal;
}

std::string outcome_json(const exec::RunOutcome& o) {
    std::string out = "{\"status\": \"";
    out += o.name();
    out += "\"";
    if (!o.diagnostic.empty())
        out += ", \"diagnostic\": \"" + json_escape(o.diagnostic) + "\"";
    out += "}";
    return out;
}

std::string diagnostics_json(const netlist::Diagnostics& diags) {
    std::string out = "[";
    bool first = true;
    for (const netlist::Diagnostic& d : diags.records()) {
        if (!first) out += ", ";
        first = false;
        out += "{\"severity\": \"";
        out += d.severity == netlist::Severity::Error ? "error" : "warning";
        out += "\", \"line\": " + std::to_string(d.line);
        out += ", \"message\": \"" + json_escape(d.message) + "\"}";
    }
    out += "]";
    return out;
}

/// Common response head: {"ok": ..., "cmd": ..., "id": ..., "code": N
std::string head(bool ok, std::string_view cmd, const std::string& id, ProtoCode code) {
    std::string out = ok ? "{\"ok\": true" : "{\"ok\": false";
    out += ", \"cmd\": \"";
    out += cmd;
    out += "\"";
    if (!id.empty()) out += ", \"id\": \"" + json_escape(id) + "\"";
    out += ", \"code\": " + std::to_string(static_cast<int>(code));
    return out;
}

std::string error_response(std::string_view cmd, const std::string& id, ProtoCode code,
                           const char* cls, const std::string& message,
                           const std::string& extra = {}) {
    std::string out = head(false, cmd, id, code);
    out += ", \"error\": {\"code\": " + std::to_string(static_cast<int>(code));
    out += ", \"class\": \"";
    out += cls;
    out += "\", \"message\": \"" + json_escape(message) + "\"";
    if (!extra.empty()) out += ", " + extra;
    out += "}}";
    return out;
}

std::string fmt_double(double v, const char* fmt = "%.4f") {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    return buf;
}

/// Parse the shared governance fields (deadline_ms / limit knobs) into a
/// BudgetSpec. Absent fields leave the spec unlimited.
exec::BudgetSpec budget_from(const JsonValue& req, const char* item_key) {
    exec::BudgetSpec spec;
    const double deadline = req.get_number("deadline_ms", 0.0);
    if (deadline > 0) spec.deadline = std::chrono::milliseconds(
        static_cast<long long>(deadline));
    const double items = req.get_number(item_key, 0.0);
    if (items > 0) spec.max_items = static_cast<std::size_t>(items);
    return spec;
}

}  // namespace

struct Service::Resolved {
    DesignCache::Entry entry;
    std::string error;  ///< response line; empty on success
};

// RAII over the bounded session pool.
class Service::SlotGuard {
public:
    SlotGuard(Service& svc, bool acquired) : svc_(svc), acquired_(acquired) {
        if (acquired_) svc_.active_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~SlotGuard() {
        if (acquired_) {
            svc_.active_.fetch_sub(1, std::memory_order_acq_rel);
            svc_.release_slot();
        }
    }
    SlotGuard(const SlotGuard&) = delete;
    SlotGuard& operator=(const SlotGuard&) = delete;

private:
    Service& svc_;
    bool acquired_;
};

// RAII over the in-flight cancellation registry.
class Service::InflightGuard {
public:
    InflightGuard(Service& svc, const std::string& id)
        : svc_(svc), id_(id), flag_(svc.register_inflight(id)) {}
    ~InflightGuard() { svc_.unregister_inflight(id_); }
    InflightGuard(const InflightGuard&) = delete;
    InflightGuard& operator=(const InflightGuard&) = delete;

    const std::shared_ptr<std::atomic<bool>>& flag() const noexcept { return flag_; }

private:
    Service& svc_;
    std::string id_;
    std::shared_ptr<std::atomic<bool>> flag_;
};

Service::Service(ServiceConfig cfg) : cfg_(cfg), cache_(cfg.cache) {
    if (cfg_.max_sessions == 0) cfg_.max_sessions = 1;
}

bool Service::acquire_slot() {
    std::unique_lock<std::mutex> lock(slots_mu_);
    if (!slots_cv_.wait_for(lock, cfg_.queue_timeout, [&] {
            return slots_in_use_ < cfg_.max_sessions ||
                   draining_.load(std::memory_order_acquire);
        }))
        return false;
    if (draining_.load(std::memory_order_acquire)) return false;
    ++slots_in_use_;
    return true;
}

void Service::release_slot() {
    {
        std::lock_guard<std::mutex> lock(slots_mu_);
        --slots_in_use_;
    }
    slots_cv_.notify_one();
}

std::shared_ptr<std::atomic<bool>> Service::register_inflight(const std::string& id) {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto& slot = inflight_[id];
    if (!slot) slot = std::make_shared<std::atomic<bool>>(false);
    return slot;
}

void Service::unregister_inflight(const std::string& id) {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    const auto it = inflight_.find(id);
    // Requests sharing an id share one flag; the map entry holds one extra
    // reference, so use_count() == 2 means this was the last request under
    // the id.
    if (it != inflight_.end() && it->second.use_count() <= 2) inflight_.erase(it);
}

void Service::begin_drain() {
    draining_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        for (auto& [id, flag] : inflight_) flag->store(true, std::memory_order_release);
    }
    slots_cv_.notify_all();
}

std::string Service::handle(std::string_view frame) {
    served_.fetch_add(1, std::memory_order_relaxed);
    try {
        return dispatch(frame);
    } catch (const std::exception& e) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return error_response("", "", ProtoCode::Internal, "internal", e.what());
    } catch (...) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return error_response("", "", ProtoCode::Internal, "internal",
                              "unknown exception");
    }
}

std::string Service::dispatch(std::string_view frame) {
    std::string parse_error;
    const std::optional<JsonValue> doc = JsonValue::parse(frame, &parse_error);
    if (!doc || !doc->is_object()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return error_response("", "", ProtoCode::Parse, "frame",
                              doc ? "request frame is not a JSON object"
                                  : "malformed JSON frame: " + parse_error);
    }
    const std::string cmd = doc->get_string("cmd");
    std::string id = doc->get_string("id");

    // Control plane: never queued, never blocked by a full session pool.
    if (cmd == "stats") return cmd_stats(*doc, id);
    if (cmd == "cancel") return cmd_cancel(*doc, id);
    if (cmd == "shutdown") return cmd_shutdown(id);

    const bool heavy =
        cmd == "load" || cmd == "learn" || cmd == "atpg" || cmd == "fault_sim";
    if (!heavy) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return error_response(cmd, id, ProtoCode::Usage, "usage",
                              cmd.empty() ? "request has no \"cmd\" member"
                                          : "unknown command \"" + cmd + "\"");
    }
    if (draining_.load(std::memory_order_acquire)) {
        return error_response(cmd, id, ProtoCode::Cancelled, "shutting_down",
                              "server is draining; request rejected");
    }
    if (!acquire_slot()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return error_response(cmd, id, ProtoCode::Overloaded, "overloaded",
                              "no session slot available within the queue timeout");
    }
    SlotGuard slot(*this, true);
    // Anonymous requests still need a unique registry key so drain can
    // cancel them; clients that want cross-connection cancel send their own.
    if (id.empty())
        id = "r" + std::to_string(
                 next_request_seq_.fetch_add(1, std::memory_order_relaxed));
    if (cmd == "load") return cmd_load(*doc, id);
    if (cmd == "learn") return cmd_learn(*doc, id);
    if (cmd == "atpg") return cmd_atpg(*doc, id);
    return cmd_fault_sim(*doc, id);
}

std::string Service::cmd_load(const JsonValue& req, const std::string& id) {
    std::string bytes;
    std::string name = req.get_string("name", "circuit");
    if (const JsonValue* bench = req.get("bench"); bench && bench->is_string()) {
        bytes = bench->as_string();
    } else if (const JsonValue* path = req.get("path"); path && path->is_string()) {
        std::ifstream in(path->as_string(), std::ios::binary);
        if (!in)
            return error_response("load", id, ProtoCode::Usage, "io",
                                  "cannot read " + path->as_string());
        std::ostringstream buf;
        buf << in.rdbuf();
        bytes = std::move(buf).str();
        if (name == "circuit") name = path->as_string();
    } else {
        return error_response("load", id, ProtoCode::Usage, "usage",
                              "load needs a \"bench\" or \"path\" string member");
    }

    DesignCache::LoadResult loaded = cache_.load(bytes, std::move(name));
    if (!loaded.entry.design) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return error_response(
            "load", id, ProtoCode::Parse, "parse",
            "bench text failed to parse (" +
                std::to_string(loaded.diagnostics.error_count()) + " errors)",
            "\"diagnostics\": " + diagnostics_json(loaded.diagnostics));
    }
    const api::Design& d = *loaded.entry.design;
    std::string out = head(true, "load", id, ProtoCode::Ok);
    out += ", \"design\": \"" + hex_u64(loaded.entry.digest) + "\"";
    out += loaded.was_cached ? ", \"cached\": true" : ", \"cached\": false";
    out += ", \"circuit\": \"" + json_escape(d.name()) + "\"";
    out += ", \"gates\": " + std::to_string(d.netlist().size());
    out += ", \"stems\": " + std::to_string(d.stems().size());
    out += ", \"collapsed_faults\": " + std::to_string(d.collapsed_faults().size());
    out += ", \"memory_bytes\": " + std::to_string(loaded.entry.bytes);
    if (!loaded.diagnostics.empty())
        out += ", \"diagnostics\": " + diagnostics_json(loaded.diagnostics);
    out += "}";
    return out;
}

/// Resolve the request's "design" digest: in-memory cache first, then the
/// durable snapshot store. The store fallback is the warm-restart path — a
/// restarted daemon (or one whose cache evicted the entry) recompiles the
/// stored bench bytes and re-attaches the learned snapshot, so the client
/// never re-learns. A stored blob that fails the deep attach-time checks
/// (netlist digest / contraposition closure, db_io load_snapshot) is
/// quarantined and the design resolves cold instead — corrupt data is never
/// served. The error response for a digest known nowhere tells the client
/// to re-`load` — that is the eviction contract.
Service::Resolved Service::resolve(const JsonValue& req, std::string_view cmd,
                                   const std::string& id) {
    Resolved out;
    const std::string digest_s = req.get_string("design");
    if (digest_s.empty()) {
        out.error = error_response(cmd, id, ProtoCode::Usage, "usage",
                                   "missing \"design\" digest (from a load response)");
        return out;
    }
    const std::optional<std::uint64_t> digest = parse_hex_u64(digest_s);
    if (!digest) {
        out.error = error_response(cmd, id, ProtoCode::Usage, "usage",
                                   "\"design\" is not a hex digest: " + digest_s);
        return out;
    }
    out.entry = cache_.find(*digest);
    SnapshotStore* st = store();
    const bool try_store =
        st != nullptr && (!out.entry.design ||
                          (!out.entry.learned && st->contains(*digest)));
    if (try_store) {
        if (std::optional<StoredSnapshot> stored = st->fetch(*digest)) {
            if (!out.entry.design) {
                // content_digest(stored->bench) == *digest (validated by the
                // store), so this lands on exactly the requested entry.
                cache_.load(stored->bench, "restored-" + digest_s);
                out.entry = cache_.find(*digest);
            }
            if (out.entry.design && !out.entry.learned) {
                try {
                    std::istringstream in(stored->learned);
                    const core::LoadedSnapshot snap =
                        core::load_snapshot(in, out.entry.design->netlist());
                    cache_.attach_learned(*digest, snap.snapshot);
                    out.entry = cache_.find(*digest);
                } catch (const std::exception&) {
                    st->quarantine(*digest);  // deep validation failed
                }
            }
        }
    }
    if (!out.entry.design) {
        out.error = error_response(
            cmd, id, ProtoCode::Usage, "unknown_design",
            "design " + digest_s + " is not cached (never loaded, or evicted); "
            "re-send the load request");
    }
    return out;
}

void Service::store_write_through(const DesignCache::Entry& entry,
                                  const core::LearnedSnapshot& snap) {
    SnapshotStore* st = store();
    if (st == nullptr || entry.bench == nullptr || entry.design == nullptr) return;
    std::ostringstream buf;
    core::save_learned_binary(buf, entry.design->netlist(), snap.result().db,
                              snap.result().ties);
    std::string error;
    // Best effort: a failed put (disk full, injected fault) is counted in
    // the store stats; the in-memory snapshot still serves this process.
    st->put(entry.digest, *entry.bench, std::move(buf).str(), &error);
}

std::string Service::cmd_learn(const JsonValue& req, const std::string& id) {
    Resolved r = resolve(req, "learn", id);
    if (!r.error.empty()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return r.error;
    }
    const bool force = req.get_bool("force", false);
    const double frames = req.get_number("frames", 0.0);
    const double sat_frames = req.get_number("sat_frames", 0.0);

    // Warm path: a previous request's completed learn is attached to the
    // cache entry; with no result-affecting override, serve it directly —
    // no Session, no simulation, microseconds.
    if (!force && frames <= 0 && sat_frames <= 0 && r.entry.learned) {
        const core::LearnResult& res = r.entry.learned->result();
        std::string out = head(true, "learn", id, ProtoCode::Ok);
        out += ", \"design\": \"" + hex_u64(r.entry.digest) + "\"";
        out += ", \"warm\": true";
        out += ", \"relations\": " + std::to_string(res.db.size());
        out += ", \"ties\": " + std::to_string(res.ties.count());
        out += ", \"equiv_classes\": " + std::to_string(res.stats.equiv_classes);
        out += ", \"stems_processed\": " + std::to_string(res.stats.stems_processed);
        out += ", \"cpu_seconds\": " + fmt_double(res.stats.cpu_seconds, "%.3f");
        out += ", \"relation_hash\": \"" + hex_u64(core::relation_hash(res.db)) + "\"";
        out += ", \"outcome\": " + outcome_json(res.outcome);
        out += "}";
        return out;
    }

    InflightGuard inflight(*this, id);
    const std::shared_ptr<std::atomic<bool>> cancel = inflight.flag();
    api::SessionConfig scfg;
    scfg.threads = static_cast<unsigned>(req.get_number("threads", cfg_.threads));
    scfg.progress = [cancel, this](const api::Progress&) {
        return !cancel->load(std::memory_order_acquire) && !draining();
    };
    api::Session session(r.entry.design, std::move(scfg));

    core::LearnConfig lcfg;
    if (frames > 0) lcfg.max_frames = static_cast<std::uint32_t>(frames);
    if (sat_frames > 0) lcfg.sat_frames = static_cast<std::uint32_t>(sat_frames);
    lcfg.budget = budget_from(req, "limit_stems");
    const core::LearnResult& res = session.learn(lcfg);
    if (res.outcome.status == exec::RunStatus::Cancelled)
        cancelled_.fetch_add(1, std::memory_order_relaxed);

    // Promote a complete default-config result to the cache entry (every
    // later learn/atpg/stats on this circuit is served warm) and write it
    // through to the durable store (every later *process* too).
    if (res.outcome.ok() && frames <= 0 && sat_frames <= 0) {
        const std::shared_ptr<const core::LearnedSnapshot> snap =
            session.freeze_learned();
        cache_.attach_learned(r.entry.digest, snap);
        if (snap) store_write_through(r.entry, *snap);
    }

    std::string out = head(true, "learn", id, code_for(res.outcome));
    out += ", \"design\": \"" + hex_u64(r.entry.digest) + "\"";
    out += ", \"warm\": false";
    out += ", \"relations\": " + std::to_string(res.db.size());
    out += ", \"ties\": " + std::to_string(res.ties.count());
    out += ", \"equiv_classes\": " + std::to_string(res.stats.equiv_classes);
    out += ", \"stems_processed\": " + std::to_string(res.stats.stems_processed);
    if (res.stats.sat_probes > 0) {
        out += ", \"sat_probes\": " + std::to_string(res.stats.sat_probes);
        out += ", \"sat_ties\": " + std::to_string(res.stats.sat_ties);
        out += ", \"sat_relations\": " + std::to_string(res.stats.sat_relations);
    }
    out += ", \"cpu_seconds\": " + fmt_double(res.stats.cpu_seconds, "%.3f");
    out += ", \"relation_hash\": \"" + hex_u64(core::relation_hash(res.db)) + "\"";
    out += ", \"outcome\": " + outcome_json(res.outcome);
    out += "}";
    return out;
}

std::string Service::cmd_atpg(const JsonValue& req, const std::string& id) {
    Resolved r = resolve(req, "atpg", id);
    if (!r.error.empty()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return r.error;
    }
    const std::string mode_s = req.get_string("mode", "forbidden");
    atpg::AtpgConfig acfg;
    acfg.backtrack_limit =
        static_cast<std::uint32_t>(req.get_number("backtracks", 30.0));
    acfg.budget = budget_from(req, "limit_faults");
    if (mode_s == "none") {
        acfg.mode = atpg::LearnMode::None;
    } else if (mode_s == "forbidden" || mode_s == "known") {
        acfg.mode = mode_s == "known" ? atpg::LearnMode::KnownValue
                                      : atpg::LearnMode::ForbiddenValue;
        acfg.count_c_cycle_redundant = true;
    } else {
        return error_response("atpg", id, ProtoCode::Usage, "usage",
                              "unknown mode \"" + mode_s +
                                  "\" (want none, forbidden, or known)");
    }
    const std::string backend_s = req.get_string("backend", "framesim");
    if (!cnf::parse_backend(backend_s, acfg.backend)) {
        return error_response("atpg", id, ProtoCode::Usage, "usage",
                              "unknown backend \"" + backend_s +
                                  "\" (want framesim, sat, or auto)");
    }
    acfg.sat_frames = static_cast<std::uint32_t>(req.get_number("sat_frames", 0.0));
    const std::string order_s = req.get_string("order", "index");
    if (const auto parsed = guide::parse_order(order_s)) {
        acfg.order = *parsed;
    } else {
        return error_response("atpg", id, ProtoCode::Usage, "usage",
                              "unknown order \"" + order_s +
                                  "\" (want index, level, scoap_hard_first, or random)");
    }
    acfg.order_seed = static_cast<std::uint64_t>(req.get_number("order_seed", 1.0));
    const std::string guidance_s = req.get_string("guidance", "none");
    if (const auto parsed = guide::parse_guidance(guidance_s)) {
        acfg.guidance = *parsed;
    } else {
        return error_response("atpg", id, ProtoCode::Usage, "usage",
                              "unknown guidance \"" + guidance_s +
                                  "\" (want none or scoap)");
    }
    acfg.rand_warmup =
        static_cast<std::size_t>(req.get_number("rand_warmup", 0.0));
    const std::string fill_s = req.get_string("fill", "");
    if (!fill_s.empty()) {
        // A `fill` key turns on the static-compaction pass, like the CLI's
        // --fill flag.
        const auto parsed = guide::parse_fill(fill_s);
        if (!parsed) {
            return error_response("atpg", id, ProtoCode::Usage, "usage",
                                  "unknown fill \"" + fill_s +
                                      "\" (want x, zero, one, or random)");
        }
        acfg.compact = true;
        acfg.fill = *parsed;
    }

    InflightGuard inflight(*this, id);
    const std::shared_ptr<std::atomic<bool>> cancel = inflight.flag();
    api::SessionConfig scfg;
    scfg.threads = static_cast<unsigned>(req.get_number("threads", cfg_.threads));
    scfg.progress = [cancel, this](const api::Progress&) {
        return !cancel->load(std::memory_order_acquire) && !draining();
    };
    api::Session session(r.entry.design, std::move(scfg));

    // Warm path: reuse the cache entry's learned snapshot (no re-learn).
    // Cold: the Session learns on demand; promote that result for later
    // requests when it completed. The Session always learns with the default
    // LearnConfig, so the ATPG-only strategy keys (order, guidance,
    // rand_warmup, fill) never change the learned data and never bypass the
    // snapshot.
    const bool warm = r.entry.learned != nullptr;
    if (acfg.mode != atpg::LearnMode::None) {
        if (warm) session.use_learned(r.entry.learned);
        else {
            const core::LearnResult& learned = session.learn();
            if (learned.outcome.ok()) {
                const std::shared_ptr<const core::LearnedSnapshot> snap =
                    session.freeze_learned();
                cache_.attach_learned(r.entry.digest, snap);
                if (snap) store_write_through(r.entry, *snap);
            }
        }
    }

    const api::AtpgReport& report = session.atpg(std::move(acfg));
    if (report.outcome.run.status == exec::RunStatus::Cancelled)
        cancelled_.fetch_add(1, std::memory_order_relaxed);
    const auto c = report.list.counts();
    std::string out = head(true, "atpg", id, code_for(report.outcome.run));
    out += ", \"design\": \"" + hex_u64(r.entry.digest) + "\"";
    out += warm ? ", \"warm\": true" : ", \"warm\": false";
    out += ", \"mode\": \"" + mode_s + "\"";
    out += ", \"backend\": \"" + backend_s + "\"";
    out += ", \"total\": " + std::to_string(c.total);
    out += ", \"detected\": " + std::to_string(c.detected);
    out += ", \"untestable\": " + std::to_string(c.untestable);
    out += ", \"aborted\": " + std::to_string(c.aborted);
    out += ", \"undetected\": " + std::to_string(c.undetected);
    out += ", \"test_coverage\": " + fmt_double(report.list.test_coverage());
    out += ", \"tests\": " + std::to_string(report.outcome.tests.size());
    out += ", \"order\": \"" + order_s + "\"";
    out += ", \"guidance\": \"" + guidance_s + "\"";
    out += ", \"patterns\": {\"count\": " + std::to_string(report.outcome.tests.size());
    out += ", \"total_frames\": " + std::to_string(report.outcome.pattern_frames);
    out += ", \"compaction_before\": " +
           std::to_string(report.outcome.compaction_before);
    out += ", \"compaction_after\": " + std::to_string(report.outcome.compaction_after);
    out += "}";
    if (acfg.rand_warmup > 0) {
        out += ", \"warmup_detected\": " +
               std::to_string(report.outcome.detected_by_warmup);
        out += ", \"warmup_sequences\": " +
               std::to_string(report.outcome.warmup_sequences);
    }
    if (report.outcome.sat_targeted > 0) {
        out += ", \"sat_targeted\": " + std::to_string(report.outcome.sat_targeted);
        out += ", \"sat_witnesses\": " + std::to_string(report.outcome.sat_witnesses);
        out += ", \"untestable_by_cnf\": " +
               std::to_string(report.outcome.untestable_by_cnf);
    }
    out += ", \"cpu_seconds\": " + fmt_double(report.outcome.cpu_seconds, "%.3f");
    out += ", \"campaign_digest\": \"" + hex_u64(api::campaign_digest(report)) + "\"";
    out += ", \"outcome\": " + outcome_json(report.outcome.run);
    out += "}";
    return out;
}

std::string Service::cmd_fault_sim(const JsonValue& req, const std::string& id) {
    Resolved r = resolve(req, "fault_sim", id);
    if (!r.error.empty()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return r.error;
    }
    const std::string mode_s = req.get_string("mode", "forbidden");
    if (mode_s != "none" && mode_s != "forbidden" && mode_s != "known")
        return error_response("fault_sim", id, ProtoCode::Usage, "usage",
                              "unknown mode \"" + mode_s +
                                  "\" (want none, forbidden, or known)");
    InflightGuard inflight(*this, id);
    const std::shared_ptr<std::atomic<bool>> cancel = inflight.flag();
    api::SessionConfig scfg;
    scfg.threads = static_cast<unsigned>(req.get_number("threads", cfg_.threads));
    scfg.budget = budget_from(req, "limit_sequences");
    if (mode_s != "none") {
        scfg.atpg.mode = mode_s == "known" ? atpg::LearnMode::KnownValue
                                           : atpg::LearnMode::ForbiddenValue;
        scfg.atpg.count_c_cycle_redundant = true;
    }
    scfg.progress = [cancel, this](const api::Progress&) {
        return !cancel->load(std::memory_order_acquire) && !draining();
    };
    api::Session session(r.entry.design, std::move(scfg));
    if (r.entry.learned) session.use_learned(r.entry.learned);

    // Generate the campaign (warm learned data when cached), then validate
    // its tests with the independent fault simulator — the CLI's atpg +
    // fault_sim flow as one request.
    const api::FaultSimReport report = session.fault_sim();
    if (report.outcome.status == exec::RunStatus::Cancelled)
        cancelled_.fetch_add(1, std::memory_order_relaxed);
    std::string out = head(true, "fault_sim", id, code_for(report.outcome));
    out += ", \"design\": \"" + hex_u64(r.entry.digest) + "\"";
    out += ", \"total\": " + std::to_string(report.total);
    out += ", \"detected\": " + std::to_string(report.detected);
    out += ", \"sequences\": " + std::to_string(report.sequences);
    out += ", \"fault_coverage\": " + fmt_double(report.fault_coverage);
    out += ", \"outcome\": " + outcome_json(report.outcome);
    out += "}";
    return out;
}

std::string Service::cmd_stats(const JsonValue& req, const std::string& id) {
    std::string out = head(true, "stats", id, ProtoCode::Ok);

    const DesignCache::Stats cs = cache_.stats();
    std::size_t slots;
    {
        std::lock_guard<std::mutex> lock(slots_mu_);
        slots = slots_in_use_;
    }
    out += ", \"server\": {";
    out += "\"requests_served\": " + std::to_string(served_.load(std::memory_order_relaxed));
    out += ", \"requests_active\": " + std::to_string(active_.load(std::memory_order_acquire));
    out += ", \"errors\": " + std::to_string(errors_.load(std::memory_order_relaxed));
    out += ", \"cancelled\": " + std::to_string(cancelled_.load(std::memory_order_relaxed));
    out += draining() ? ", \"draining\": true" : ", \"draining\": false";
    out += ", \"sessions\": {\"limit\": " + std::to_string(cfg_.max_sessions);
    out += ", \"active\": " + std::to_string(slots) + "}";
    out += ", \"cache\": {\"entries\": " + std::to_string(cs.entries);
    out += ", \"bytes\": " + std::to_string(cs.bytes);
    out += ", \"max_bytes\": " + std::to_string(cs.max_bytes);
    out += ", \"hits\": " + std::to_string(cs.hits);
    out += ", \"misses\": " + std::to_string(cs.misses);
    out += ", \"evictions\": " + std::to_string(cs.evictions) + "}";
    if (const SnapshotStore* st = cfg_.store.get()) {
        const SnapshotStoreStats ss = st->stats();
        out += ", \"store\": {\"dir\": \"" + json_escape(st->dir()) + "\"";
        out += ", \"entries\": " + std::to_string(ss.entries);
        out += ", \"bytes\": " + std::to_string(ss.bytes);
        out += ", \"max_bytes\": " + std::to_string(ss.max_bytes);
        out += ", \"quarantined\": " + std::to_string(ss.quarantined);
        out += ", \"puts\": " + std::to_string(ss.puts);
        out += ", \"put_failures\": " + std::to_string(ss.put_failures);
        out += ", \"fetch_hits\": " + std::to_string(ss.fetch_hits);
        out += ", \"fetch_misses\": " + std::to_string(ss.fetch_misses);
        out += ", \"evictions\": " + std::to_string(ss.evictions) + "}";
    }
    if (transport_ != nullptr) {
        const TransportCounters& t = *transport_;
        out += ", \"connections\": {\"accepted\": " +
               std::to_string(t.accepted.load(std::memory_order_relaxed));
        out += ", \"active\": " +
               std::to_string(t.active.load(std::memory_order_relaxed));
        out += ", \"rejected_overloaded\": " +
               std::to_string(t.rejected_overloaded.load(std::memory_order_relaxed));
        out += ", \"idle_reaped\": " +
               std::to_string(t.idle_reaped.load(std::memory_order_relaxed));
        out += ", \"write_timeouts\": " +
               std::to_string(t.write_timeouts.load(std::memory_order_relaxed)) + "}";
    }
    out += "}";

    // Per-design section: the warm fast path — a cache lookup, an O(1)
    // Session, and counters; no simulation, no parse.
    if (req.get("design") != nullptr) {
        Resolved r = resolve(req, "stats", id);
        if (!r.error.empty()) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            return r.error;
        }
        api::Session session(r.entry.design);
        if (r.entry.learned) session.use_learned(r.entry.learned);
        const api::SessionStats s = session.stats();
        out += ", \"design\": \"" + hex_u64(r.entry.digest) + "\"";
        out += ", \"circuit\": \"" + json_escape(r.entry.design->name()) + "\"";
        out += ", \"gates\": " + std::to_string(s.gates);
        out += ", \"stems\": " + std::to_string(s.stems);
        out += ", \"levels\": " + std::to_string(s.levels);
        out += ", \"clock_classes\": " + std::to_string(s.clock_classes);
        out += ", \"collapsed_faults\": " + std::to_string(s.collapsed_faults);
        out += ", \"memory\": {\"netlist_bytes\": " +
               std::to_string(s.memory.design.netlist_bytes);
        out += ", \"topology_bytes\": " + std::to_string(s.memory.design.topology_bytes);
        out += ", \"faults_bytes\": " + std::to_string(s.memory.design.faults_bytes);
        out += ", \"learned_bytes\": " +
               std::to_string(s.memory.design.learned_bytes + s.memory.learned_bytes);
        out += ", \"total_bytes\": " + std::to_string(s.memory.total()) + "}";
        if (r.entry.learned) {
            const core::LearnResult& res = r.entry.learned->result();
            out += ", \"learned\": {\"relations\": " + std::to_string(res.db.size());
            out += ", \"ties\": " + std::to_string(res.ties.count());
            out += ", \"relation_hash\": \"" +
                   hex_u64(core::relation_hash(res.db)) + "\"}";
        }
    }
    out += "}";
    return out;
}

std::string Service::cmd_cancel(const JsonValue& req, const std::string& id) {
    const std::string target = req.get_string("target");
    if (target.empty())
        return error_response("cancel", id, ProtoCode::Usage, "usage",
                              "cancel needs a \"target\" request id");
    bool found = false;
    {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        const auto it = inflight_.find(target);
        if (it != inflight_.end()) {
            it->second->store(true, std::memory_order_release);
            found = true;
        }
    }
    std::string out = head(true, "cancel", id, ProtoCode::Ok);
    out += ", \"target\": \"" + json_escape(target) + "\"";
    out += found ? ", \"found\": true" : ", \"found\": false";
    out += "}";
    return out;
}

std::string Service::cmd_shutdown(const std::string& id) {
    shutdown_.store(true, std::memory_order_release);
    begin_drain();
    std::string out = head(true, "shutdown", id, ProtoCode::Ok);
    out += ", \"draining\": true}";
    return out;
}

}  // namespace seqlearn::server
