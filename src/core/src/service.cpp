#include "xbarsec/core/service.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <limits>
#include <list>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "xbarsec/attrib/sketch.hpp"
#include "xbarsec/common/rng.hpp"

namespace xbarsec::core {

std::string to_string(RoutingPolicy policy) {
    switch (policy) {
        case RoutingPolicy::SessionAffine: return "session-affine";
        case RoutingPolicy::RoundRobin: return "round-robin";
        case RoutingPolicy::LeastLoaded: return "least-loaded";
    }
    return "?";
}

RoutingPolicy parse_routing_policy(const std::string& name) {
    // Bench and example CLIs pass user input through verbatim, so accept
    // any trim/case/separator spelling ("RoundRobin", " least-loaded ",
    // "SESSION_AFFINE"): drop whitespace and -/_ separators, case-fold,
    // and match the canonical words.
    std::string key;
    key.reserve(name.size());
    for (const char ch : name) {
        const auto c = static_cast<unsigned char>(ch);
        if (std::isspace(c) != 0 || ch == '-' || ch == '_') continue;
        key.push_back(static_cast<char>(std::tolower(c)));
    }
    if (key == "sessionaffine") return RoutingPolicy::SessionAffine;
    if (key == "roundrobin") return RoutingPolicy::RoundRobin;
    if (key == "leastloaded") return RoutingPolicy::LeastLoaded;
    throw ConfigError("unknown routing policy '" + name +
                      "'; expected session-affine, round-robin, or least-loaded");
}

namespace detail {

enum class QueryKind { Label, Raw, Power };

/// The content-addressed result cache (ServiceConfig::cache). Keys mix
/// (kind, replica index, partition, input-row bit pattern) into one
/// 64-bit hash; a probe verifies the stored entry byte-for-byte before
/// answering, so a hash collision degrades to a miss, never to a wrong
/// answer. Values are the backend's *clean* answers — per-session
/// transforms (power noise) are re-applied by the hit path.
///
/// One mutex guards the LRU list and the index. That is deliberate: a
/// hit is a short critical section on the submitting thread while a miss
/// pays a queue roundtrip plus a backend batch — the latency asymmetry
/// the cache exists for, and exactly the cross-tenant timing signal the
/// service/mnist/cache-timing scenario measures (partitioning removes
/// the cross-tenant information, not the asymmetry).
class ResultCache {
public:
    explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

    /// One cached answer; `kind` (in the key) says which field is live.
    struct Value {
        int label = 0;
        tensor::Vector raw;
        double power = 0.0;
    };

    static std::uint64_t key_hash(QueryKind kind, std::size_t replica, std::uint64_t partition,
                                  std::span<const double> row) {
        // FNV-1a over the key fields and the row's double bit patterns,
        // finished with the counter-rng avalanche so the map sees
        // well-mixed buckets. The content-hash steps are the shared
        // attrib machinery, so the attribution layer's per-row hashes
        // and these cache keys agree on input identity.
        std::uint64_t h = attrib::kContentHashOffset;
        h = attrib::content_hash_mix(h, static_cast<std::uint64_t>(kind));
        h = attrib::content_hash_mix(h, replica);
        h = attrib::content_hash_mix(h, partition);
        h = attrib::content_hash_doubles(h, row);
        return attrib::content_hash_finish(h);
    }

    /// Probes for an exact entry; a hit refreshes its LRU position.
    /// Probing counts nothing: admission calls count() once the probed
    /// submission is answered (hit) or queued (miss), so a submission
    /// refused after its probe leaves hits/misses untouched.
    bool lookup(std::uint64_t hash, QueryKind kind, std::size_t replica, std::uint64_t partition,
                std::span<const double> row, Value& out) {
        std::lock_guard lock(mutex_);
        const auto it = index_.find(hash);
        if (it == index_.end() || !matches(*it->second, kind, replica, partition, row)) {
            return false;
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        out = it->second->value;
        return true;
    }

    void count(bool hit) { (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed); }

    void insert(std::uint64_t hash, QueryKind kind, std::size_t replica, std::uint64_t partition,
                tensor::Vector input, Value value) {
        std::lock_guard lock(mutex_);
        const auto it = index_.find(hash);
        if (it != index_.end()) {
            // Concurrent misses of the same input race to insert (both
            // executed on the backend), or — astronomically rarely — a
            // 64-bit collision lands here; either way the slot keeps the
            // newest answer and its verification fields.
            Entry& e = *it->second;
            e.kind = kind;
            e.replica = replica;
            e.partition = partition;
            e.input = std::move(input);
            e.value = std::move(value);
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        if (index_.size() >= capacity_) {
            index_.erase(lru_.back().hash);
            lru_.pop_back();
            evictions_.fetch_add(1, std::memory_order_relaxed);
        }
        lru_.push_front(Entry{hash, kind, replica, partition, std::move(input), std::move(value)});
        index_.emplace(hash, lru_.begin());
    }

    std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
    std::uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }
    std::size_t entries() const {
        std::lock_guard lock(mutex_);
        return index_.size();
    }

private:
    struct Entry {
        std::uint64_t hash = 0;
        QueryKind kind = QueryKind::Label;
        std::size_t replica = 0;
        std::uint64_t partition = 0;
        tensor::Vector input;
        Value value;
    };

    static bool matches(const Entry& e, QueryKind kind, std::size_t replica,
                        std::uint64_t partition, std::span<const double> row) {
        if (e.kind != kind || e.replica != replica || e.partition != partition) return false;
        if (e.input.size() != row.size()) return false;
        // Bitwise identity, matching the hash: -0.0 != 0.0 here, and a
        // NaN row can still hit its own cached answer.
        return std::memcmp(e.input.data(), row.data(), row.size() * sizeof(double)) == 0;
    }

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::list<Entry> lru_;  ///< front = most recently used
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

/// One submission: 1..N input rows of one kind from one session, with
/// the promise its results are delivered through. Units are never split
/// across backend calls or replicas (an explicitly-submitted batch keeps
/// the backend stack's all-or-nothing semantics); a replica's coalescer
/// only *merges* consecutive same-kind units up to max_batch rows.
struct Unit {
    std::shared_ptr<SessionState> session;
    QueryKind kind = QueryKind::Label;
    bool scalar = false;
    tensor::Matrix inputs;
    std::uint64_t power_ordinal = 0;  ///< session noise-stream base (Power only)
    double power_sigma = 0.0;  ///< effective sensing-noise sigma at admission (Power only)
    std::uint64_t cache_hash = 0;     ///< submit-time key (cache_store only)
    bool cache_store = false;  ///< scalar cache miss: deliver into the cache too
    std::variant<std::promise<int>, std::promise<std::vector<int>>, std::promise<double>,
                 std::promise<tensor::Vector>, std::promise<tensor::Matrix>>
        promise;
};

/// One backend replica's serving state: its private coalescing queue,
/// flush signalling, and telemetry. Replicas never share a queue lock —
/// the only cross-replica contention is the (optional) shared ThreadPool
/// underneath the backend GEMMs.
struct ReplicaState {
    Oracle* backend = nullptr;
    std::size_t index = 0;

    std::mutex mutex;
    std::condition_variable cv;
    /// Producers append; the flusher swaps the whole vector against a
    /// recycled empty one, so steady-state submission never allocates.
    std::vector<Unit> queue;
    bool stopping = false;

    /// Rows enqueued but not yet answered — the lock-free load signal
    /// LeastLoaded routing scans.
    std::atomic<std::size_t> inflight_rows{0};

    /// Per-replica accepted-query counters (fleet aggregate = sum).
    std::atomic<std::uint64_t> inference_count{0};
    std::atomic<std::uint64_t> power_count{0};

    std::atomic<std::uint64_t> flushed_batches{0};
    std::atomic<std::uint64_t> flushed_rows{0};
};

/// Cross-session attribution state (null unless attribution.enabled):
/// the engine (bookkeeping) plus the per-source token buckets the
/// service enforces from it. Buckets live here — not on sessions — so
/// the allowance survives rotation; the map only grows (sources are
/// principals, not sessions) and bucket addresses are stable.
struct AttribState {
    explicit AttribState(const AttributionConfig& config) : engine(config.engine) {}

    attrib::AttributionEngine engine;
    std::mutex bucket_mutex;
    std::unordered_map<attrib::SourceId, std::unique_ptr<TokenBucket>> buckets;
};

struct ServiceState {
    ThreadPool* pool = nullptr;  ///< the pool behind the backends' batched paths (may be null)
    ServiceConfig config;
    std::size_t inputs = 0;
    std::size_t outputs = 0;

    std::vector<std::unique_ptr<ReplicaState>> replicas;
    std::atomic<std::uint64_t> rr_cursor{0};  ///< RoundRobin unit cursor

    /// Content-addressed result cache (null unless config.cache.enabled).
    std::unique_ptr<ResultCache> cache;

    /// Cross-session attribution (null unless config.attribution.enabled).
    std::unique_ptr<AttribState> attrib;

    std::atomic<std::uint64_t> next_session_id{1};
};

struct SessionState {
    std::shared_ptr<ServiceState> service;
    SessionConfig config;
    std::uint64_t id = 0;
    std::size_t home_replica = 0;  ///< SessionAffine target

    BudgetLedger ledger;
    std::unique_ptr<DetectorScreen> screen;  ///< null when the session has no detector
    std::unique_ptr<TokenBucket> bucket;     ///< null when the session has no rate limit

    /// The per-*source* bucket (owned by AttribState, shared by every
    /// session of this source); null when attribution or source_rate is
    /// off. Survives this session: rotation draws from the same bucket.
    TokenBucket* source_bucket = nullptr;

    std::atomic<std::uint64_t> inference_count{0};
    std::atomic<std::uint64_t> power_count{0};
    std::atomic<std::uint64_t> power_ordinal{0};  ///< noise-stream position, never reset
    std::atomic<bool> open{true};

    SessionState(std::shared_ptr<ServiceState> svc, SessionConfig cfg, std::uint64_t sid)
        : service(std::move(svc)), config(cfg), id(sid), ledger(cfg.budget) {
        home_replica = static_cast<std::size_t>((id - 1) % service->replicas.size());
        if (config.detector != nullptr) {
            screen = std::make_unique<DetectorScreen>(*config.detector, config.block_flagged);
        }
        if (!config.rate.unlimited()) {
            bucket = std::make_unique<TokenBucket>(config.rate, config.rate_clock);
        }
        if (AttribState* at = service->attrib.get()) {
            at->engine.note_session_open(id, config.source);
            const AttributionConfig& ac = service->config.attribution;
            if (!ac.source_rate.unlimited()) {
                std::lock_guard lock(at->bucket_mutex);
                std::unique_ptr<TokenBucket>& slot = at->buckets[config.source];
                if (slot == nullptr) {
                    slot = std::make_unique<TokenBucket>(ac.source_rate, ac.source_clock);
                }
                source_bucket = slot.get();
            }
        }
    }
};

namespace {

/// Per-session sensing noise for the session's k-th power reading: a
/// pure function of (seed, sigma, k), so coalescing/batching cannot
/// change it. `sigma` is the effective (possibly suspicion-scaled)
/// sigma captured at admission.
double session_noise(const SessionState& s, double sigma, std::uint64_t ordinal) {
    return sigma * Rng::normal_at(s.config.noise_seed, ordinal, 0);
}

/// The session's active suspicion band — null when the adaptive policy
/// is off, the session has no detector window, or the window is still
/// warming up. Read on the submitting thread at admission: a serial
/// submitter's escalation sequence is therefore deterministic and
/// independent of how its submissions coalesce into backend batches.
///
/// With attribution enabled the band is chosen on the session's whole
/// *campaign* window (same-source siblings and overlap-merged rotations
/// included), and a deployment alert waives the warm-up floor — a
/// rotating attacker inherits its own history instead of opening each
/// session with a clean slate.
const AdaptivePolicy::Band* adaptive_band(const SessionState& s) {
    if (!s.config.adaptive.enabled()) return nullptr;
    AttribState* at = s.service->attrib.get();
    if (s.screen == nullptr && at == nullptr) return nullptr;
    std::uint64_t screened = s.screen != nullptr ? s.screen->screened() : 0;
    double suspicion = s.screen != nullptr ? s.screen->flagged_fraction() : 0.0;
    if (at != nullptr) {
        screened = std::max(screened, at->engine.pooled_screened(s.id));
        // Campaign suspicion is the max of the detector-flagged and
        // probe-shaped row fractions: hard-driven extraction probes are
        // escalated even where the enrolled detector's coverage is
        // partial, while clean tenants stay near zero on both.
        suspicion = std::max(suspicion, at->engine.pooled_suspicion_fraction(s.id));
        if (at->engine.alert()) {
            // The deployment is under active probing: warm-up no longer
            // shields a freshly rotated session. band_for still refuses
            // an entirely empty window (screened == 0).
            screened = std::max<std::uint64_t>(
                screened, std::max<std::uint64_t>(s.config.adaptive.min_screened, 1));
        }
    }
    return s.config.adaptive.band_for(suspicion, screened);
}

/// Effective sensing-noise sigma at admission: the session's static
/// sigma scaled by the active suspicion band (identity when the policy
/// is off — the default service stays bit-identical).
double effective_power_sigma(const SessionState& s) {
    double sigma = s.config.power_noise_sigma;
    if (const AdaptivePolicy::Band* band = adaptive_band(s)) sigma *= band->sigma_multiplier;
    return sigma;
}

/// Sigma for one admitted submission: the band-scaled sigma, raised to
/// the strongest band's multiplier when this submission itself was
/// escalated (deployment alert + its own rows looked like probes). The
/// per-query escalation is what closes the pre-merge window — a forged
/// source's first probes get degraded before clustering catches up.
double escalated_power_sigma(const SessionState& s, bool escalate) {
    double sigma = effective_power_sigma(s);
    if (escalate && s.config.adaptive.enabled()) {
        sigma = std::max(sigma,
                         s.config.power_noise_sigma * s.config.adaptive.bands.back().sigma_multiplier);
    }
    return sigma;
}

/// Picks the replica for one admitted unit. SessionAffine pins the
/// session's home replica; RoundRobin rotates one atomic cursor;
/// LeastLoaded scans the racy inflight-row snapshots (ties take the
/// lowest index, so an idle fleet behaves like a fixed assignment).
ReplicaState& route(ServiceState& svc, const SessionState& s) {
    const std::size_t n = svc.replicas.size();
    if (n == 1) return *svc.replicas.front();
    switch (svc.config.routing) {
        case RoutingPolicy::SessionAffine: return *svc.replicas[s.home_replica];
        case RoutingPolicy::RoundRobin:
            return *svc.replicas[svc.rr_cursor.fetch_add(1, std::memory_order_relaxed) % n];
        case RoutingPolicy::LeastLoaded: {
            std::size_t best = 0;
            std::size_t best_load = std::numeric_limits<std::size_t>::max();
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t load =
                    svc.replicas[i]->inflight_rows.load(std::memory_order_relaxed);
                if (load < best_load) {
                    best = i;
                    best_load = load;
                }
            }
            return *svc.replicas[best];
        }
    }
    return *svc.replicas.front();
}

/// Admission stage 1, on the submitting thread and *before* routing
/// (policy is per-session, not per-replica): exposure checks, detector
/// screening and the attribution observation. It runs for every
/// submission, cache hit or miss, and takes nothing a refusal gives back:
/// screened rows stay in the detector and attribution windows even when
/// a later stage refuses the submission.
///
/// Returns whether this submission is *escalated*: attribution is on,
/// the deployment alert is up, and at least one of these rows was
/// flagged or probe-shaped. Callers degrade an escalated submission
/// per-query (Raw → refused, Power → strongest-band sigma). Always
/// false with attribution off — the legacy path is untouched.
bool screen(SessionState& s, QueryKind kind, const tensor::Matrix& U) {
    XS_EXPECTS(U.rows() > 0);
    XS_EXPECTS(U.cols() == s.service->inputs);
    switch (kind) {
        case QueryKind::Label: break;
        case QueryKind::Raw:
            if (!s.config.expose_raw_outputs) {
                throw AccessDenied("raw outputs are not exposed to this session");
            }
            // Suspicion-scaled cutoff: a tenant whose screened traffic
            // looks adversarial loses raw-output access (labels still
            // work). Decided on the window *before* this submission is
            // screened, so the refusal depends only on past behaviour.
            if (const AdaptivePolicy::Band* band = adaptive_band(s);
                band != nullptr && !band->expose_raw_outputs) {
                throw AccessDenied("raw outputs are withheld at this session's suspicion level");
            }
            break;
        case QueryKind::Power:
            if (!s.config.expose_power) {
                throw AccessDenied("power measurement is not exposed to this session");
            }
            break;
    }
    AttribState* at = s.service->attrib.get();
    if (at == nullptr) {
        if (kind != QueryKind::Power && s.screen != nullptr) s.screen->screen_batch(U);
        return false;
    }
    // Attribution path: screen row by row so every row's detector
    // verdict and content hash reach the engine (power rows are not
    // detector-screened — same as the legacy path — but their shape
    // still feeds the probe-population window and the sketches).
    const attrib::EngineConfig& ec = at->engine.config();
    bool hot = false;
    for (std::size_t r = 0; r < U.rows(); ++r) {
        const auto row = U.row_span(r);
        bool flagged = false;
        if (kind != QueryKind::Power && s.screen != nullptr) flagged = s.screen->screen(U.row(r));
        attrib::Observation obs;
        obs.session = s.id;
        obs.source = s.config.source;
        obs.input_hash = attrib::hash_row(row);
        obs.flagged = flagged;
        obs.suspicious = attrib::AttributionEngine::suspicious_row(row, ec);
        obs.basis_like = attrib::AttributionEngine::basis_like_row(row, ec);
        at->engine.observe(obs);
        hot = hot || flagged || obs.suspicious;
    }
    // Alert read *after* observing: a burst that trips the window
    // escalates from the same submission on.
    return hot && at->engine.alert();
}

/// What one submission has taken so far. It lives on the submitter's
/// stack; submit() notes each debit here as its stages run, and when a
/// stage refuses, unwind() gives the debits back in reverse order — so a
/// refused submission leaves the rate buckets, the budget ledger and the
/// session counters as it found them.
struct Admission {
    SessionState& s;
    QueryKind kind;
    std::uint64_t rows;
    bool session_tokens = false;  ///< s.bucket debited
    bool source_tokens = false;   ///< s.source_bucket debited
    bool budget = false;          ///< s.ledger charged
    bool counted = false;         ///< session counters bumped

    /// Rate admission, all-or-nothing per bucket: the session bucket,
    /// then the per-source bucket (attribution).
    void take_tokens() {
        if (s.bucket != nullptr) {
            s.bucket->acquire(rows);
            session_tokens = true;
        }
        if (s.source_bucket != nullptr) {
            s.source_bucket->acquire(rows);
            source_tokens = true;
        }
    }

    /// Budget then session counters. `charge_budget` is false only for
    /// cache hits under CacheConfig::hits_charge_budget = false — the
    /// session's own counters count every accepted query regardless. An
    /// unlimited budget never refuses, so its mutex is skipped.
    void charge(bool charge_budget) {
        if (charge_budget && !s.config.budget.unlimited()) {
            power() ? s.ledger.charge_power(rows) : s.ledger.charge_inference(rows);
            budget = true;
        }
        counter().fetch_add(rows, std::memory_order_relaxed);
        counted = true;
    }

    void unwind() {
        if (counted) counter().fetch_sub(rows, std::memory_order_relaxed);
        if (budget) power() ? s.ledger.refund_power(rows) : s.ledger.refund_inference(rows);
        if (source_tokens) s.source_bucket->refund(rows);
        if (session_tokens) s.bucket->refund(rows);
    }

    bool power() const { return kind == QueryKind::Power; }
    std::atomic<std::uint64_t>& counter() const {
        return power() ? s.power_count : s.inference_count;
    }
};

/// Enqueues an admitted unit on `replica` and wakes its flusher if it
/// is idle. Per-replica counters are bumped only after the push
/// succeeded, so a SessionClosed thrown here leaves them untouched.
template <typename Promise>
auto enqueue(const std::shared_ptr<SessionState>& session, ReplicaState& replica, QueryKind kind,
             bool scalar, tensor::Matrix inputs, std::uint64_t cache_hash, bool cache_store,
             bool escalate) {
    Unit unit;
    unit.session = session;
    unit.kind = kind;
    unit.scalar = scalar;
    unit.cache_hash = cache_hash;
    unit.cache_store = cache_store;
    if (kind == QueryKind::Power) {
        unit.power_ordinal =
            session->power_ordinal.fetch_add(inputs.rows(), std::memory_order_relaxed);
        // Capture the (possibly suspicion-scaled, possibly escalated)
        // sigma now: the noise a submission gets reflects the session's
        // standing when it was admitted, not when the flusher happens
        // to deliver it.
        unit.power_sigma = escalated_power_sigma(*session, escalate);
    }
    const std::size_t rows = inputs.rows();
    unit.inputs = std::move(inputs);
    Promise promise;
    auto future = promise.get_future();
    unit.promise = std::move(promise);
    // Pre-charge the load signal *before* the queue push: LeastLoaded
    // routing reads inflight_rows lock-free, and charging after the push
    // opened a window where a unit already sitting in the queue counted
    // as zero load, steering the next submission to the busier replica.
    // One combined counter (decremented only after the rows are answered,
    // in flush()) also keeps the queue→flusher migration coherent — the
    // batch never transiently disappears from or double-counts in the
    // load snapshot while the flusher drains the queue.
    replica.inflight_rows.fetch_add(rows, std::memory_order_relaxed);
    bool wake = false;
    {
        std::lock_guard lock(replica.mutex);
        if (replica.stopping) {
            replica.inflight_rows.fetch_sub(rows, std::memory_order_relaxed);
            throw SessionClosed("the service is shut down");
        }
        // The flusher sleeps only on an empty queue, so only the
        // empty → non-empty transition needs a wake. A unit queued behind
        // a running backend call is picked up when that call returns;
        // waking per submission would context-switch once per query.
        wake = replica.queue.empty();
        replica.queue.push_back(std::move(unit));
    }
    if (kind == QueryKind::Power) {
        replica.power_count.fetch_add(rows, std::memory_order_relaxed);
    } else {
        replica.inference_count.fetch_add(rows, std::memory_order_relaxed);
    }
    if (wake) replica.cv.notify_one();  // the flusher is the cv's only waiter
    return future;
}

/// Answers a cache hit on the submitting thread from the stored clean
/// value; a power hit draws the session's next noise ordinal, so a
/// session cannot tell (except by latency) whether its answer was
/// recomputed.
template <typename Promise>
auto answer_from_cache(SessionState& s, ResultCache::Value& value, bool escalate) {
    Promise promise;
    auto future = promise.get_future();
    if constexpr (std::is_same_v<Promise, std::promise<int>>) {
        promise.set_value(value.label);
    } else if constexpr (std::is_same_v<Promise, std::promise<double>>) {
        const std::uint64_t ordinal = s.power_ordinal.fetch_add(1, std::memory_order_relaxed);
        const double sigma = escalated_power_sigma(s, escalate);
        promise.set_value(value.power + (sigma > 0.0 ? session_noise(s, sigma, ordinal) : 0.0));
    } else if constexpr (std::is_same_v<Promise, std::promise<tensor::Vector>>) {
        // Scalar + promise<Vector> is only ever a raw query (a scalar
        // power submission resolves a promise<double>).
        promise.set_value(std::move(value.raw));
    }
    return future;
}

/// Session admission: one ordered list of stages on the submitting
/// thread, then either an inline cache answer or a queued unit.
///
///   1. screen      exposure checks, detector, attribution observe
///   2. escalation  raw outputs refused while the alert marks these rows
///   3. probation   attribution: source first seen during an alert
///   4. quarantine  the campaign's suspicion band refuses service
///   5. rate        session bucket, then 6. the source bucket
///   7. cache       probe (scalar submissions only); a hit is charged
///                  under CacheConfig::hits_charge_budget and answered
///   8. charge      budget ledger, then session counters
///   9. route       pick the replica (the cache probe may have already)
///  10. enqueue     push onto the replica queue (SessionClosed after
///                  shutdown)
///
/// Every debit is noted in an Admission; a refusal at any stage runs its
/// unwind once, so the submission costs the client nothing it was not
/// answered for. Cache hit/miss counts and per-replica counters move only
/// once a submission is answered or queued.
template <typename Promise>
auto submit(const std::shared_ptr<SessionState>& session, QueryKind kind, bool scalar,
            tensor::Matrix inputs) {
    if (session == nullptr || !session->open.load(std::memory_order_acquire)) {
        throw SessionClosed("submit on a closed session");
    }
    SessionState& s = *session;
    ServiceState& svc = *s.service;
    Admission taken{s, kind, inputs.rows()};
    try {
        const bool escalate = screen(s, kind, inputs);
        if (escalate && kind == QueryKind::Raw) {
            // Deployment alert + probe-shaped rows: raw outputs close
            // per-query, before campaign clustering has even merged the
            // session — a forged source gets no pre-attribution window.
            throw AccessDenied("raw outputs are withheld while the deployment alert is active");
        }
        // Attribution-level refusals run *after* screening so the refused
        // rows still feed the engine: the probe-population window stays
        // hot (the alert cannot be waited out by hammering a frozen
        // source) and overlap evidence keeps accruing against the
        // campaign.
        if (svc.attrib != nullptr && svc.attrib->engine.probation(s.config.source)) {
            throw QueryRefused(
                "source is on probation: first seen while the deployment alert was active");
        }
        if (const AdaptivePolicy::Band* band = adaptive_band(s);
            band != nullptr && band->refuse_queries) {
            // Campaign quarantine: label-degraded answers still distill a
            // model; an attributed campaign gets nothing, and rotation
            // lands every fresh session straight back in the pooled window.
            throw QueryRefused("session's campaign is quarantined at this suspicion level");
        }
        // Rate admission after screening (a screened-out submission spends
        // no tokens) and before the cache probe — hits consume rate like
        // any answered query, otherwise replaying popular inputs would be
        // rate-free.
        taken.take_tokens();
        ReplicaState* replica = nullptr;
        std::uint64_t cache_hash = 0;
        const bool cacheable = svc.cache != nullptr && scalar;
        if (cacheable) {
            // Route *before* probing: the replica index is part of the key
            // (replicas have distinct device-variation signatures, so their
            // answers are not interchangeable).
            replica = &route(svc, s);
            const std::uint64_t partition = svc.config.cache.partition_by_session ? s.id : 0;
            cache_hash = ResultCache::key_hash(kind, replica->index, partition, inputs.row_span(0));
            ResultCache::Value value;
            if (svc.cache->lookup(cache_hash, kind, replica->index, partition, inputs.row_span(0),
                                  value)) {
                taken.charge(svc.config.cache.hits_charge_budget);
                svc.cache->count(true);
                return answer_from_cache<Promise>(s, value, escalate);
            }
        }
        taken.charge(true);
        if (replica == nullptr) replica = &route(svc, s);
        auto future = enqueue<Promise>(session, *replica, kind, scalar, std::move(inputs),
                                       cache_hash, cacheable, escalate);
        if (cacheable) svc.cache->count(false);  // miss: the flusher stores the clean answer
        return future;
    } catch (...) {
        taken.unwind();
        throw;
    }
}

/// Concatenates the inputs of `units[first, last)` (one kind) into one
/// backend batch. Returns a pointer into the single unit when no
/// stitching is needed, so the common scenario path (one batch unit per
/// flush) is copy-free.
const tensor::Matrix* gather_inputs(std::vector<Unit>& units, std::size_t first, std::size_t last,
                                    tensor::Matrix& storage) {
    if (last - first == 1) return &units[first].inputs;
    std::size_t rows = 0;
    for (std::size_t i = first; i < last; ++i) rows += units[i].inputs.rows();
    // resize() reuses the scratch matrix's heap capacity (values are
    // unspecified afterwards — every row is overwritten below).
    storage.resize(rows, units[first].inputs.cols());
    std::size_t at = 0;
    for (std::size_t i = first; i < last; ++i) {
        const tensor::Matrix& in = units[i].inputs;
        for (std::size_t r = 0; r < in.rows(); ++r, ++at) {
            const auto src = in.row_span(r);
            auto dst = storage.row_span(at);
            std::copy(src.begin(), src.end(), dst.begin());
        }
    }
    return &storage;
}

/// Stores a scalar miss's *clean* backend answer under the key computed
/// at submit time. Runs on the flusher thread, before the promise is
/// fulfilled — once a future resolves, the entry is probeable.
void store_in_cache(const Unit& u, const ReplicaState& replica, ResultCache::Value value) {
    const SessionState& s = *u.session;
    ServiceState& svc = *s.service;
    const std::uint64_t partition = svc.config.cache.partition_by_session ? s.id : 0;
    svc.cache->insert(u.cache_hash, u.kind, replica.index, partition, u.inputs.row(0),
                      std::move(value));
}

void deliver_labels(std::vector<Unit>& units, std::size_t first, std::size_t last,
                    const ReplicaState& replica, const std::vector<int>& labels) {
    std::size_t at = 0;
    for (std::size_t i = first; i < last; ++i) {
        Unit& u = units[i];
        const std::size_t rows = u.inputs.rows();
        if (u.scalar) {
            if (u.cache_store) {
                ResultCache::Value v;
                v.label = labels[at];
                store_in_cache(u, replica, std::move(v));
            }
            std::get<std::promise<int>>(u.promise).set_value(labels[at]);
        } else {
            std::get<std::promise<std::vector<int>>>(u.promise)
                .set_value(std::vector<int>(labels.begin() + static_cast<std::ptrdiff_t>(at),
                                            labels.begin() + static_cast<std::ptrdiff_t>(at + rows)));
        }
        at += rows;
    }
}

void deliver_raw(std::vector<Unit>& units, std::size_t first, std::size_t last,
                 const ReplicaState& replica, const tensor::Matrix& Y) {
    std::size_t at = 0;
    for (std::size_t i = first; i < last; ++i) {
        Unit& u = units[i];
        const std::size_t rows = u.inputs.rows();
        if (u.scalar) {
            if (u.cache_store) {
                ResultCache::Value v;
                v.raw = Y.row(at);
                store_in_cache(u, replica, std::move(v));
            }
            std::get<std::promise<tensor::Vector>>(u.promise).set_value(Y.row(at));
        } else {
            tensor::Matrix block(rows, Y.cols());
            for (std::size_t r = 0; r < rows; ++r) {
                const auto src = Y.row_span(at + r);
                auto dst = block.row_span(r);
                std::copy(src.begin(), src.end(), dst.begin());
            }
            std::get<std::promise<tensor::Matrix>>(u.promise).set_value(std::move(block));
        }
        at += rows;
    }
}

void deliver_power(std::vector<Unit>& units, std::size_t first, std::size_t last,
                   const ReplicaState& replica, const tensor::Vector& p) {
    std::size_t at = 0;
    for (std::size_t i = first; i < last; ++i) {
        Unit& u = units[i];
        const SessionState& s = *u.session;
        const std::size_t rows = u.inputs.rows();
        const bool noisy = u.power_sigma > 0.0;
        if (u.scalar) {
            if (u.cache_store) {
                // The cache keeps the *clean* reading; each hit re-draws
                // the hitting session's own noise at its own ordinal.
                ResultCache::Value v;
                v.power = p[at];
                store_in_cache(u, replica, std::move(v));
            }
            const double value =
                p[at] + (noisy ? session_noise(s, u.power_sigma, u.power_ordinal) : 0.0);
            std::get<std::promise<double>>(u.promise).set_value(value);
        } else {
            tensor::Vector block(rows, 0.0);
            for (std::size_t r = 0; r < rows; ++r) {
                block[r] = p[at + r] +
                           (noisy ? session_noise(s, u.power_sigma, u.power_ordinal + r) : 0.0);
            }
            std::get<std::promise<tensor::Vector>>(u.promise).set_value(std::move(block));
        }
        at += rows;
    }
}

void fail_units(std::vector<Unit>& units, std::size_t first, std::size_t last,
                const std::exception_ptr& error) {
    for (std::size_t i = first; i < last; ++i) {
        std::visit([&](auto& promise) { promise.set_exception(error); }, units[i].promise);
    }
}

/// Runs one backend call for units[first, last) (already one kind) and
/// delivers results to their promises. Throws what the backend throws.
void execute_group(ReplicaState& replica, std::vector<Unit>& units, std::size_t first,
                   std::size_t last, std::size_t rows, tensor::Matrix& storage) {
    const tensor::Matrix* input = gather_inputs(units, first, last, storage);
    // Stats first: a submitter whose future resolves inside the
    // deliver_* call below may read them immediately.
    replica.flushed_batches.fetch_add(1, std::memory_order_relaxed);
    replica.flushed_rows.fetch_add(rows, std::memory_order_relaxed);
    switch (units[first].kind) {
        case QueryKind::Label:
            deliver_labels(units, first, last, replica, replica.backend->query_labels(*input));
            break;
        case QueryKind::Raw:
            deliver_raw(units, first, last, replica, replica.backend->query_raw_batch(*input));
            break;
        case QueryKind::Power:
            deliver_power(units, first, last, replica, replica.backend->query_power_batch(*input));
            break;
    }
}

/// Executes one drained replica queue: consecutive same-kind units are
/// merged into backend batch calls of up to max_batch rows (a single
/// unit larger than that still goes through whole — explicit batches are
/// never split, preserving the backend stack's all-or-nothing charging
/// and its noise-stream layout).
///
/// Any backend may throw (a faulty device, a custom Oracle that refuses
/// some inputs). An exception from a *merged* group must not take
/// innocent tenants' queries down with the unit that tripped it, so the
/// group falls back to per-unit backend calls — each unit then succeeds
/// or fails exactly as it would have under serial issue. (A backend
/// that keeps state may see the offending rows once more on the retry;
/// isolation of the tenants' answers is the contract that matters.)
void flush(ReplicaState& replica, std::size_t max_batch, std::vector<Unit>& units,
           tensor::Matrix& storage) {
    std::size_t first = 0;
    while (first < units.size()) {
        const QueryKind kind = units[first].kind;
        std::size_t last = first + 1;
        std::size_t rows = units[first].inputs.rows();
        while (last < units.size() && units[last].kind == kind &&
               rows + units[last].inputs.rows() <= max_batch) {
            rows += units[last].inputs.rows();
            ++last;
        }
        try {
            execute_group(replica, units, first, last, rows, storage);
        } catch (...) {
            if (last - first == 1) {
                fail_units(units, first, last, std::current_exception());
            } else {
                for (std::size_t i = first; i < last; ++i) {
                    try {
                        execute_group(replica, units, i, i + 1, units[i].inputs.rows(), storage);
                    } catch (...) {
                        fail_units(units, i, i + 1, std::current_exception());
                    }
                }
            }
        }
        replica.inflight_rows.fetch_sub(rows, std::memory_order_relaxed);
        first = last;
    }
}

/// Work-conserving coalescer (Nagle's rule, RFC 896): an idle flusher
/// takes whatever is queued at once, and rows that arrive while a backend
/// call runs form the next batch. Batches therefore grow only with load,
/// and an idle replica adds no wait to a lone query.
void flusher_loop(const std::shared_ptr<ServiceState>& svc, ReplicaState& replica) {
    const std::size_t max_batch = svc->config.max_batch;
    std::unique_lock lock(replica.mutex);
    std::vector<Unit> batch;  ///< recycled: swaps capacity with the queue
    tensor::Matrix storage;   ///< recycled gather scratch (per replica, never shared)
    for (;;) {
        replica.cv.wait(lock, [&] { return replica.stopping || !replica.queue.empty(); });
        if (replica.queue.empty()) return;  // stopping, fully drained
        batch.swap(replica.queue);  // the queue inherits batch's old capacity
        lock.unlock();  // backend calls run without the queue lock
        flush(replica, max_batch, batch, storage);
        batch.clear();  // destroy units (promises already fulfilled)
        lock.lock();
    }
}

}  // namespace
}  // namespace detail

// ---- SessionOracleView ------------------------------------------------------

namespace {

using detail::QueryKind;

/// Synchronous Oracle adapter over a session: every query submits and
/// waits. This is what lets collect_queries, probe_columns, the attack
/// evaluators, and the figure sweeps run unchanged through a session.
class SessionOracleView : public Oracle {
public:
    explicit SessionOracleView(std::shared_ptr<detail::SessionState> state)
        : state_(std::move(state)) {}

    std::size_t inputs() const override { return state_->service->inputs; }
    std::size_t outputs() const override { return state_->service->outputs; }

    int query_label(const tensor::Vector& u) override {
        return detail::submit<std::promise<int>>(state_, QueryKind::Label, true,
                                                 tensor::Matrix::from_row(u))
            .get();
    }
    tensor::Vector query_raw(const tensor::Vector& u) override {
        return detail::submit<std::promise<tensor::Vector>>(state_, QueryKind::Raw, true,
                                                            tensor::Matrix::from_row(u))
            .get();
    }
    double query_power(const tensor::Vector& u) override {
        return detail::submit<std::promise<double>>(state_, QueryKind::Power, true,
                                                    tensor::Matrix::from_row(u))
            .get();
    }
    std::vector<int> query_labels(const tensor::Matrix& U) override {
        return detail::submit<std::promise<std::vector<int>>>(state_, QueryKind::Label, false, U)
            .get();
    }
    tensor::Matrix query_raw_batch(const tensor::Matrix& U) override {
        return detail::submit<std::promise<tensor::Matrix>>(state_, QueryKind::Raw, false, U).get();
    }
    tensor::Vector query_power_batch(const tensor::Matrix& U) override {
        return detail::submit<std::promise<tensor::Vector>>(state_, QueryKind::Power, false, U)
            .get();
    }

    QueryCounters counters() const override {
        QueryCounters c;
        c.inference = state_->inference_count.load(std::memory_order_relaxed);
        c.power = state_->power_count.load(std::memory_order_relaxed);
        return c;
    }
    void reset_counters() override {
        state_->inference_count.store(0, std::memory_order_relaxed);
        state_->power_count.store(0, std::memory_order_relaxed);
    }

    /// Re-point the view at a different session. Session::operator=(&&)
    /// keeps the view object alive across the move so Oracle& references
    /// handed out by oracle() stay valid and track the new state.
    void rebind(std::shared_ptr<detail::SessionState> state) { state_ = std::move(state); }

private:
    std::shared_ptr<detail::SessionState> state_;
};

}  // namespace

// ---- Session ----------------------------------------------------------------

Session::Session(std::shared_ptr<detail::SessionState> state) : state_(std::move(state)) {}

Session::~Session() { close(); }

Session& Session::operator=(Session&& other) noexcept {
    if (this != &other) {
        // The displaced session is closed (not leaked open on the
        // service), and an existing oracle_view_ is rebound rather than
        // replaced: Oracle& references previously returned by oracle()
        // must keep working against the newly adopted state.
        close();
        state_ = std::move(other.state_);
        if (oracle_view_ != nullptr) {
            if (state_ != nullptr) {
                static_cast<SessionOracleView*>(oracle_view_.get())->rebind(state_);
            } else {
                oracle_view_.reset();
            }
            other.oracle_view_.reset();
        } else {
            oracle_view_ = std::move(other.oracle_view_);
        }
    }
    return *this;
}

std::future<int> Session::submit_label(tensor::Vector u) {
    return detail::submit<std::promise<int>>(state_, QueryKind::Label, true,
                                             tensor::Matrix::from_row(std::move(u)));
}

std::future<tensor::Vector> Session::submit_raw(tensor::Vector u) {
    return detail::submit<std::promise<tensor::Vector>>(state_, QueryKind::Raw, true,
                                                        tensor::Matrix::from_row(std::move(u)));
}

std::future<double> Session::submit_power(tensor::Vector u) {
    return detail::submit<std::promise<double>>(state_, QueryKind::Power, true,
                                                tensor::Matrix::from_row(std::move(u)));
}

std::future<std::vector<int>> Session::submit_labels(tensor::Matrix U) {
    return detail::submit<std::promise<std::vector<int>>>(state_, QueryKind::Label, false,
                                                          std::move(U));
}

std::future<tensor::Matrix> Session::submit_raw_batch(tensor::Matrix U) {
    return detail::submit<std::promise<tensor::Matrix>>(state_, QueryKind::Raw, false,
                                                        std::move(U));
}

std::future<tensor::Vector> Session::submit_power_batch(tensor::Matrix U) {
    return detail::submit<std::promise<tensor::Vector>>(state_, QueryKind::Power, false,
                                                        std::move(U));
}

Oracle& Session::oracle() {
    if (state_ == nullptr) throw SessionClosed("oracle() on a moved-from session");
    if (oracle_view_ == nullptr) oracle_view_ = std::make_unique<SessionOracleView>(state_);
    return *oracle_view_;
}

QueryCounters Session::counters() const {
    QueryCounters c;
    if (state_ != nullptr) {
        c.inference = state_->inference_count.load(std::memory_order_relaxed);
        c.power = state_->power_count.load(std::memory_order_relaxed);
    }
    return c;
}

void Session::reset_counters() {
    if (state_ == nullptr) return;
    state_->inference_count.store(0, std::memory_order_relaxed);
    state_->power_count.store(0, std::memory_order_relaxed);
}

QueryCounters Session::budget_spent() const {
    return state_ != nullptr ? state_->ledger.spent() : QueryCounters{};
}

std::uint64_t Session::screened() const {
    return (state_ != nullptr && state_->screen != nullptr) ? state_->screen->screened() : 0;
}

std::uint64_t Session::flagged() const {
    return (state_ != nullptr && state_->screen != nullptr) ? state_->screen->flagged() : 0;
}

double Session::flagged_fraction() const {
    return (state_ != nullptr && state_->screen != nullptr) ? state_->screen->flagged_fraction()
                                                            : 0.0;
}

double Session::rate_tokens() const {
    return (state_ != nullptr && state_->bucket != nullptr) ? state_->bucket->available() : 0.0;
}

double Session::source_rate_tokens() const {
    return (state_ != nullptr && state_->source_bucket != nullptr)
               ? state_->source_bucket->available()
               : 0.0;
}

std::uint64_t Session::id() const { return state_ != nullptr ? state_->id : 0; }

std::size_t Session::home_replica() const {
    return state_ != nullptr ? state_->home_replica : 0;
}

bool Session::open() const {
    return state_ != nullptr && state_->open.load(std::memory_order_acquire);
}

void Session::close() {
    if (state_ == nullptr) return;
    // exchange(): exactly one closer runs the attribution close hook
    // (destructor after an explicit close() must not run it twice).
    const bool was_open = state_->open.exchange(false, std::memory_order_acq_rel);
    if (was_open && state_->service->attrib != nullptr) {
        // The sketch-similarity merge pass; per-source and campaign
        // windows survive — that is the point of the attribution layer.
        state_->service->attrib->engine.note_session_close(state_->id);
    }
    // In-flight submissions complete normally: the flushers never hold
    // queued work back.
}

// ---- OracleService ----------------------------------------------------------

OracleService::OracleService(Oracle& backend, ServiceConfig config)
    : OracleService(std::vector<Oracle*>{&backend}, config) {}

OracleService::OracleService(const std::vector<Oracle*>& replicas, ServiceConfig config)
    : state_(std::make_shared<detail::ServiceState>()) {
    // Misconfiguration throws ConfigError at construction — a max_batch
    // of 0 would deadlock every flush (no group ever fits).
    if (config.max_batch == 0) {
        throw ConfigError("ServiceConfig::max_batch must be > 0 (0 rows can never flush)");
    }
    if (replicas.empty()) throw ConfigError("OracleService needs at least one backend replica");
    for (Oracle* backend : replicas) {
        if (backend == nullptr) throw ConfigError("OracleService replica must not be null");
    }
    const std::size_t inputs = replicas.front()->inputs();
    const std::size_t outputs = replicas.front()->outputs();
    for (Oracle* backend : replicas) {
        if (backend->inputs() != inputs || backend->outputs() != outputs) {
            throw ConfigError("OracleService replicas must share one input/output shape");
        }
    }
    if (config.pool == nullptr && config.workers > 0) {
        owned_pool_ = std::make_unique<ThreadPool>(config.workers);
    }
    state_->pool = config.pool != nullptr ? config.pool : owned_pool_.get();
    state_->config = config;
    if (config.cache.enabled) {
        if (config.cache.capacity == 0) {
            throw ConfigError("CacheConfig::capacity must be > 0 when the cache is enabled");
        }
        state_->cache = std::make_unique<detail::ResultCache>(config.cache.capacity);
    }
    if (config.attribution.enabled) {
        const attrib::EngineConfig& ec = config.attribution.engine;
        if (ec.window_events == 0 || ec.sketch_k == 0 || ec.repeat_overlap == 0 ||
            ec.index_capacity == 0) {
            throw ConfigError(
                "AttributionConfig::engine window_events, sketch_k, repeat_overlap, and "
                "index_capacity must all be > 0 when attribution is enabled");
        }
        state_->attrib = std::make_unique<detail::AttribState>(config.attribution);
    }
    state_->inputs = inputs;
    state_->outputs = outputs;
    state_->replicas.reserve(replicas.size());
    for (std::size_t i = 0; i < replicas.size(); ++i) {
        auto replica = std::make_unique<detail::ReplicaState>();
        replica->backend = replicas[i];
        replica->index = i;
        state_->replicas.push_back(std::move(replica));
    }
    flushers_.reserve(replicas.size());
    for (auto& replica : state_->replicas) {
        flushers_.emplace_back(
            [state = state_, r = replica.get()] { detail::flusher_loop(state, *r); });
    }
}

OracleService::~OracleService() { shutdown(); }

void OracleService::shutdown() {
    for (auto& replica : state_->replicas) {
        {
            std::lock_guard lock(replica->mutex);
            replica->stopping = true;
        }
        replica->cv.notify_all();
    }
    for (std::thread& flusher : flushers_) {
        if (flusher.joinable()) flusher.join();
    }
}

Session OracleService::open_session(SessionConfig config) {
    const std::uint64_t id = state_->next_session_id.fetch_add(1, std::memory_order_relaxed);
    return Session(std::make_shared<detail::SessionState>(state_, config, id));
}

std::size_t OracleService::inputs() const { return state_->inputs; }
std::size_t OracleService::outputs() const { return state_->outputs; }
std::size_t OracleService::replica_count() const { return state_->replicas.size(); }

QueryCounters OracleService::counters() const {
    // Each per-replica bucket is independently monotone; a plain + across
    // near-max replicas could wrap and break total()'s monotonicity, so
    // the fleet aggregate saturates instead.
    QueryCounters c;
    for (const auto& replica : state_->replicas) {
        QueryCounters r;
        r.inference = replica->inference_count.load(std::memory_order_relaxed);
        r.power = replica->power_count.load(std::memory_order_relaxed);
        c.add_saturating(r);
    }
    return c;
}

namespace {

/// Telemetry accessors take caller-supplied replica indices (bench
/// loops, dashboards); an out-of-range index is a configuration error,
/// not a programming contract, so it throws ConfigError instead of
/// indexing past the fleet vector.
void check_replica_index(std::size_t replica, std::size_t fleet) {
    if (replica >= fleet) {
        throw ConfigError("replica index " + std::to_string(replica) +
                          " is out of range for a fleet of " + std::to_string(fleet) +
                          " replica(s)");
    }
}

}  // namespace

QueryCounters OracleService::replica_counters(std::size_t replica) const {
    check_replica_index(replica, state_->replicas.size());
    QueryCounters c;
    c.inference = state_->replicas[replica]->inference_count.load(std::memory_order_relaxed);
    c.power = state_->replicas[replica]->power_count.load(std::memory_order_relaxed);
    return c;
}

void OracleService::reset_counters() {
    for (auto& replica : state_->replicas) {
        replica->inference_count.store(0, std::memory_order_relaxed);
        replica->power_count.store(0, std::memory_order_relaxed);
    }
}

std::uint64_t OracleService::flushed_batches() const {
    std::uint64_t total = 0;
    for (const auto& replica : state_->replicas) {
        total += replica->flushed_batches.load(std::memory_order_relaxed);
    }
    return total;
}

std::uint64_t OracleService::flushed_rows() const {
    std::uint64_t total = 0;
    for (const auto& replica : state_->replicas) {
        total += replica->flushed_rows.load(std::memory_order_relaxed);
    }
    return total;
}

std::uint64_t OracleService::flushed_batches(std::size_t replica) const {
    check_replica_index(replica, state_->replicas.size());
    return state_->replicas[replica]->flushed_batches.load(std::memory_order_relaxed);
}

std::uint64_t OracleService::flushed_rows(std::size_t replica) const {
    check_replica_index(replica, state_->replicas.size());
    return state_->replicas[replica]->flushed_rows.load(std::memory_order_relaxed);
}

std::size_t OracleService::queue_depth(std::size_t replica) const {
    check_replica_index(replica, state_->replicas.size());
    return state_->replicas[replica]->inflight_rows.load(std::memory_order_relaxed);
}

std::size_t OracleService::sessions_opened() const {
    return state_->next_session_id.load(std::memory_order_relaxed) - 1;
}

std::uint64_t OracleService::cache_hits() const {
    return state_->cache != nullptr ? state_->cache->hits() : 0;
}

std::uint64_t OracleService::cache_misses() const {
    return state_->cache != nullptr ? state_->cache->misses() : 0;
}

std::uint64_t OracleService::cache_evictions() const {
    return state_->cache != nullptr ? state_->cache->evictions() : 0;
}

std::size_t OracleService::cache_entries() const {
    return state_->cache != nullptr ? state_->cache->entries() : 0;
}

double OracleService::cache_hit_rate() const {
    if (state_->cache == nullptr) return 0.0;
    const std::uint64_t hits = state_->cache->hits();
    const std::uint64_t probes = QueryCounters::saturating_add(hits, state_->cache->misses());
    return probes > 0 ? static_cast<double>(hits) / static_cast<double>(probes) : 0.0;
}

bool OracleService::attribution_enabled() const { return state_->attrib != nullptr; }

bool OracleService::attribution_alert() const {
    return state_->attrib != nullptr && state_->attrib->engine.alert();
}

std::size_t OracleService::attribution_source_count() const {
    return state_->attrib != nullptr ? state_->attrib->engine.source_count() : 0;
}

std::vector<attrib::SourceId> OracleService::attribution_sources() const {
    if (state_->attrib == nullptr) return {};
    return state_->attrib->engine.sources();
}

attrib::SourceCounters OracleService::attribution_source_counters(attrib::SourceId source) const {
    // Keyed telemetry follows the per-replica convention: asking a
    // service without the subsystem (or for an unknown key) is a
    // configuration error, not a zero.
    if (state_->attrib == nullptr) {
        throw ConfigError("attribution is not enabled on this service");
    }
    return state_->attrib->engine.source_counters(source);
}

std::size_t OracleService::attribution_campaign_count() const {
    return state_->attrib != nullptr ? state_->attrib->engine.campaign_count() : 0;
}

std::vector<attrib::CampaignCounters> OracleService::attribution_campaigns() const {
    if (state_->attrib == nullptr) return {};
    return state_->attrib->engine.campaigns();
}

attrib::CampaignCounters OracleService::attribution_campaign_of(std::uint64_t session) const {
    if (state_->attrib == nullptr) {
        throw ConfigError("attribution is not enabled on this service");
    }
    return state_->attrib->engine.campaign_of(session);
}

std::string OracleService::attribution_snapshot() const {
    return state_->attrib != nullptr ? state_->attrib->engine.json_snapshot() : "{}";
}

ThreadPool* OracleService::pool() { return state_->pool; }

const ServiceConfig& OracleService::config() const { return state_->config; }

}  // namespace xbarsec::core
