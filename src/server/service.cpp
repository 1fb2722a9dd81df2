#include "server/service.hpp"

#include "api/request.hpp"
#include "api/session.hpp"
#include "cnf/dispatch.hpp"
#include "core/db_io.hpp"
#include "core/impl_db.hpp"
#include "exec/pool.hpp"
#include "server/json.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

namespace seqlearn::server {

namespace {

/// Request fields from the frame's JSON members.
class JsonFields final : public api::Fields {
public:
    explicit JsonFields(const JsonValue& req) : req_(req) {}

    std::optional<std::string> text(std::string_view key) const override {
        const JsonValue* v = req_.get(key);
        if (v == nullptr) return std::nullopt;
        if (!v->is_string())
            throw api::FieldError("\"" + std::string(key) + "\" must be a string");
        return v->as_string();
    }
    std::optional<double> number(std::string_view key) const override {
        const JsonValue* v = req_.get(key);
        if (v == nullptr) return std::nullopt;
        return v->as_number(std::numeric_limits<double>::quiet_NaN());
    }
    std::string label(std::string_view key) const override { return std::string(key); }

private:
    const JsonValue& req_;
};

/// Common response head: {"ok": ..., "cmd": ..., "id": ..., "code": N, left
/// open for the command's members.
JsonWriter head(bool ok, std::string_view cmd, const std::string& id, ProtoCode code) {
    JsonWriter w;
    w.begin_object().field("ok", ok).field("cmd", cmd);
    if (!id.empty()) w.field("id", id);
    w.field("code", static_cast<int>(code));
    return w;
}

std::string error_response(std::string_view cmd, const std::string& id, ProtoCode code,
                           const char* cls, const std::string& message,
                           const netlist::Diagnostics* diags = nullptr) {
    JsonWriter w = head(false, cmd, id, code);
    w.key("error").begin_object();
    w.field("code", static_cast<int>(code)).field("class", cls).field("message", message);
    if (diags != nullptr) write_diagnostics(w.key("diagnostics"), *diags);
    return w.end_object().end_object().take();
}

/// The learn response, warm or cold.
std::string learn_response(const std::string& id, ProtoCode code, std::uint64_t digest,
                           bool warm, const core::LearnResult& res) {
    JsonWriter w = head(true, "learn", id, code);
    w.field("design", hex_u64(digest)).field("warm", warm);
    w.field("relations", res.db.size()).field("ties", res.ties.count());
    w.field("equiv_classes", res.stats.equiv_classes);
    w.field("stems_processed", res.stats.stems_processed);
    if (res.stats.sat_probes > 0) {
        w.field("sat_probes", res.stats.sat_probes);
        w.field("sat_ties", res.stats.sat_ties);
        w.field("sat_relations", res.stats.sat_relations);
    }
    w.field("cpu_seconds", res.stats.cpu_seconds, 3);
    w.field("relation_hash", hex_u64(core::relation_hash(res.db)));
    write_outcome(w.key("outcome"), res.outcome);
    return w.end_object().take();
}

}  // namespace

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

void write_outcome(JsonWriter& w, const exec::RunOutcome& o) {
    w.begin_object().field("status", o.name());
    if (!o.diagnostic.empty()) w.field("diagnostic", o.diagnostic);
    w.end_object();
}

void write_diagnostics(JsonWriter& w, const netlist::Diagnostics& diags) {
    w.begin_array();
    for (const netlist::Diagnostic& d : diags.records()) {
        w.begin_object();
        w.field("severity", d.severity == netlist::Severity::Error ? "error" : "warning");
        w.field("line", d.line).field("message", d.message);
        w.end_object();
    }
    w.end_array();
}

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
    if (id.empty()) {
        id = "r";
        id += std::to_string(next_request_seq_.fetch_add(1, std::memory_order_relaxed));
    }
    try {
        if (cmd == "load") return cmd_load(*doc, id);
        if (cmd == "learn") return cmd_learn(*doc, id);
        if (cmd == "atpg") return cmd_atpg(*doc, id);
        return cmd_fault_sim(*doc, id);
    } catch (const api::FieldError& e) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return error_response(cmd, id, ProtoCode::Usage, "usage", e.what());
    }
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
            &loaded.diagnostics);
    }
    const api::Design& d = *loaded.entry.design;
    JsonWriter w = head(true, "load", id, ProtoCode::Ok);
    w.field("design", hex_u64(loaded.entry.digest)).field("cached", loaded.was_cached);
    w.field("circuit", d.name()).field("gates", d.netlist().size());
    w.field("stems", d.stems().size()).field("collapsed_faults", d.collapsed_faults().size());
    w.field("memory_bytes", loaded.entry.bytes);
    if (!loaded.diagnostics.empty())
        write_diagnostics(w.key("diagnostics"), loaded.diagnostics);
    return w.end_object().take();
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
                    cache_.attach_learned(
                        *digest, core::load_snapshot(in, out.entry.design->netlist()));
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
    const JsonFields fields(req);
    const bool force = req.get_bool("force", false);
    const core::LearnConfig lcfg = api::learn_config_from(fields);
    const unsigned threads = api::threads_from(fields, cfg_.threads);
    Resolved r = resolve(req, "learn", id);
    if (!r.error.empty()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return r.error;
    }
    // Only a default-depth, SAT-free learn is shared through the cache.
    const bool default_learn = lcfg.max_frames == core::LearnConfig{}.max_frames &&
                               lcfg.sat_frames == 0;

    // Warm path: a previous request's completed learn is attached to the
    // cache entry; with no result-affecting override, serve it directly —
    // no Session, no simulation, microseconds.
    if (!force && default_learn && r.entry.learned)
        return learn_response(id, ProtoCode::Ok, r.entry.digest, true,
                              r.entry.learned->result());

    InflightGuard inflight(*this, id);
    const std::shared_ptr<std::atomic<bool>> cancel = inflight.flag();
    api::SessionConfig scfg;
    scfg.threads = threads;
    scfg.progress = [cancel, this](const api::Progress&) {
        return !cancel->load(std::memory_order_acquire) && !draining();
    };
    api::Session session(r.entry.design, std::move(scfg));

    const core::LearnResult& res = session.learn(lcfg);
    if (res.outcome.status == exec::RunStatus::Cancelled)
        cancelled_.fetch_add(1, std::memory_order_relaxed);

    // Promote a complete default-config result to the cache entry (every
    // later learn/atpg/stats on this circuit is served warm) and write it
    // through to the durable store (every later *process* too).
    if (res.outcome.ok() && default_learn) {
        const std::shared_ptr<const core::LearnedSnapshot> snap =
            session.freeze_learned();
        cache_.attach_learned(r.entry.digest, snap);
        if (snap) store_write_through(r.entry, *snap);
    }
    return learn_response(id, code_for(res.outcome), r.entry.digest, false, res);
}

std::string Service::cmd_atpg(const JsonValue& req, const std::string& id) {
    const JsonFields fields(req);
    const atpg::AtpgConfig acfg = api::atpg_config_from(fields);
    const unsigned threads = api::threads_from(fields, cfg_.threads);
    Resolved r = resolve(req, "atpg", id);
    if (!r.error.empty()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return r.error;
    }

    InflightGuard inflight(*this, id);
    const std::shared_ptr<std::atomic<bool>> cancel = inflight.flag();
    api::SessionConfig scfg;
    scfg.threads = threads;
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

    const api::AtpgReport& report = session.atpg(acfg);
    if (report.outcome.run.status == exec::RunStatus::Cancelled)
        cancelled_.fetch_add(1, std::memory_order_relaxed);
    const auto c = report.list.counts();
    const atpg::AtpgOutcome& out = report.outcome;
    JsonWriter w = head(true, "atpg", id, code_for(out.run));
    w.field("design", hex_u64(r.entry.digest)).field("warm", warm);
    w.field("mode", atpg::mode_name(acfg.mode)).field("backend", cnf::backend_name(acfg.backend));
    w.field("total", c.total).field("detected", c.detected).field("untestable", c.untestable);
    if (c.untestable_bounded > 0) w.field("untestable_bounded", c.untestable_bounded);
    w.field("aborted", c.aborted).field("undetected", c.undetected);
    w.field("test_coverage", report.list.test_coverage(), 4).field("tests", out.tests.size());
    w.field("order", guide::order_name(acfg.order));
    w.field("guidance", guide::guidance_name(acfg.guidance));
    w.key("patterns").begin_object();
    w.field("count", out.tests.size()).field("total_frames", out.pattern_frames);
    w.field("compaction_before", out.compaction_before);
    w.field("compaction_after", out.compaction_after);
    w.end_object();
    if (acfg.rand_warmup > 0) {
        w.field("warmup_detected", out.detected_by_warmup);
        w.field("warmup_sequences", out.warmup_sequences);
    }
    if (out.sat_targeted > 0) {
        w.field("sat_targeted", out.sat_targeted).field("sat_witnesses", out.sat_witnesses);
        w.field("untestable_by_cnf", out.untestable_by_cnf);
    }
    w.field("cpu_seconds", out.cpu_seconds, 3);
    w.field("campaign_digest", hex_u64(api::campaign_digest(report)));
    write_outcome(w.key("outcome"), out.run);
    return w.end_object().take();
}

std::string Service::cmd_fault_sim(const JsonValue& req, const std::string& id) {
    const JsonFields fields(req);
    api::SessionConfig scfg;
    api::mode_from(fields, scfg.atpg);
    scfg.threads = api::threads_from(fields, cfg_.threads);
    scfg.budget = api::budget_from(fields, "limit_sequences");
    Resolved r = resolve(req, "fault_sim", id);
    if (!r.error.empty()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return r.error;
    }
    InflightGuard inflight(*this, id);
    const std::shared_ptr<std::atomic<bool>> cancel = inflight.flag();
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
    JsonWriter w = head(true, "fault_sim", id, code_for(report.outcome));
    w.field("design", hex_u64(r.entry.digest)).field("total", report.total);
    w.field("detected", report.detected).field("sequences", report.sequences);
    w.field("fault_coverage", report.fault_coverage, 4);
    write_outcome(w.key("outcome"), report.outcome);
    return w.end_object().take();
}

std::string Service::cmd_stats(const JsonValue& req, const std::string& id) {
    JsonWriter w = head(true, "stats", id, ProtoCode::Ok);

    const DesignCache::Stats cs = cache_.stats();
    std::size_t slots;
    {
        std::lock_guard<std::mutex> lock(slots_mu_);
        slots = slots_in_use_;
    }
    w.key("server").begin_object();
    w.field("requests_served", served_.load(std::memory_order_relaxed));
    w.field("requests_active", active_.load(std::memory_order_acquire));
    w.field("errors", errors_.load(std::memory_order_relaxed));
    w.field("cancelled", cancelled_.load(std::memory_order_relaxed));
    w.field("draining", draining());
    w.key("sessions").begin_object();
    w.field("limit", cfg_.max_sessions).field("active", slots).end_object();
    w.key("cache").begin_object();
    w.field("entries", cs.entries).field("bytes", cs.bytes).field("max_bytes", cs.max_bytes);
    w.field("hits", cs.hits).field("misses", cs.misses).field("evictions", cs.evictions);
    w.end_object();
    if (const SnapshotStore* st = cfg_.store.get()) {
        const SnapshotStoreStats ss = st->stats();
        w.key("store").begin_object();
        w.field("dir", st->dir()).field("entries", ss.entries).field("bytes", ss.bytes);
        w.field("max_bytes", ss.max_bytes).field("quarantined", ss.quarantined);
        w.field("puts", ss.puts).field("put_failures", ss.put_failures);
        w.field("fetch_hits", ss.fetch_hits).field("fetch_misses", ss.fetch_misses);
        w.field("evictions", ss.evictions);
        w.end_object();
    }
    if (transport_ != nullptr) {
        const TransportCounters& t = *transport_;
        w.key("connections").begin_object();
        w.field("accepted", t.accepted.load(std::memory_order_relaxed));
        w.field("active", t.active.load(std::memory_order_relaxed));
        w.field("rejected_overloaded", t.rejected_overloaded.load(std::memory_order_relaxed));
        w.field("idle_reaped", t.idle_reaped.load(std::memory_order_relaxed));
        w.field("write_timeouts", t.write_timeouts.load(std::memory_order_relaxed));
        w.end_object();
    }
    w.end_object();

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
        w.field("design", hex_u64(r.entry.digest)).field("circuit", r.entry.design->name());
        w.field("gates", s.gates).field("stems", s.stems).field("levels", s.levels);
        w.field("clock_classes", s.clock_classes).field("collapsed_faults", s.collapsed_faults);
        w.key("memory").begin_object();
        w.field("netlist_bytes", s.memory.design.netlist_bytes);
        w.field("topology_bytes", s.memory.design.topology_bytes);
        w.field("faults_bytes", s.memory.design.faults_bytes);
        w.field("learned_bytes", s.memory.learned_bytes);
        w.field("total_bytes", s.memory.total());
        w.end_object();
        if (r.entry.learned) {
            const core::LearnResult& res = r.entry.learned->result();
            w.key("learned").begin_object();
            w.field("relations", res.db.size()).field("ties", res.ties.count());
            w.field("relation_hash", hex_u64(core::relation_hash(res.db)));
            w.end_object();
        }
    }
    return w.end_object().take();
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
    JsonWriter w = head(true, "cancel", id, ProtoCode::Ok);
    w.field("target", target).field("found", found);
    return w.end_object().take();
}

std::string Service::cmd_shutdown(const std::string& id) {
    shutdown_.store(true, std::memory_order_release);
    begin_drain();
    JsonWriter w = head(true, "shutdown", id, ProtoCode::Ok);
    return w.field("draining", true).end_object().take();
}

}  // namespace seqlearn::server
