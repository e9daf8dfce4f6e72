// tenants — open loop, multi-tenant serving. One generator thread sends
// Poisson arrivals at a fixed rate, spread over many sessions, to a
// two-replica fleet:
//
//   * each replica is a DecoratorStack with a deterministic physical
//     defense (uniform dummy loads on the power channel);
//   * a shared result cache holds half of a 4096-row input pool that
//     benign tenants draw from by Zipf(1.0) rank, so hits occur beside
//     inserts and evictions;
//   * every session has a finite budget, an enrolled-detector screen and
//     a rate bucket sized never to trip, with attribution on;
//   * a small share of arrivals comes from attacker sessions sending
//     basis-probe rows: their label probes are refused by a blocking
//     detector and their power probes by a small power budget.
//
// This is the only workload that drives every admission stage (refusal
// unwinds included), the cache's read and write paths, routing,
// attribution and the decorators. Latency runs from each request's due
// time to when its future was seen ready. The same thread polls every
// outstanding future between sends, so no answer waits behind another.
// A run whose generator fell behind its schedule is invalid.
#include <algorithm>
#include <cmath>
#include <future>

#include "harness.hpp"
#include "xbarsec/common/rng.hpp"
#include "xbarsec/sidechannel/detector.hpp"

namespace perfbench {

using namespace xbarsec;

namespace {

constexpr std::size_t kReplicas = 2;
constexpr std::size_t kPool = 4096;
constexpr double kZipfSkew = 1.0;
constexpr std::size_t kCacheCapacity = kPool / 2;
constexpr std::size_t kBenignSessions = 56;
constexpr std::size_t kBenignSources = 8;  ///< well under the identity-churn threshold
constexpr std::size_t kAttackerSessions = 8;
constexpr attrib::SourceId kAttackerSource = 1000;
constexpr double kRate = 4000.0;  ///< arrivals per second
constexpr double kAttackerShare = 0.02;
constexpr double kPowerShare = 0.25;
constexpr double kProbeAmplitude = 4.0;
constexpr std::uint64_t kAttackerPowerBudget = 8;
constexpr double kSloLimitUs = 1000.0;
constexpr std::size_t kBlock = 256;  ///< arrivals per block (campaign_s)
// The generator fell behind when most sends were late: it could not keep
// the schedule. Stalls of the host hit a minority of sends and are charged
// to latency, which is timed from the due time.
constexpr double kLateLimitUs = 1000.0;
constexpr double kLateShareLimit = 0.5;
constexpr double kWarmupS = 1.0;  ///< schedule prefix that fills the cache, not recorded

struct Arrival {
    std::int64_t due_ns = 0;  ///< offset from the pass start
    std::uint32_t session = 0;
    std::uint32_t row = 0;  ///< pool row, or probe line for attackers
    bool power = false;
    bool attacker = false;
};

/// A sent request whose future has not been seen ready yet.
struct Pending {
    std::size_t index = 0;
    std::future<int> label;
    std::future<double> power;
};

class Tenants final : public Workload {
public:
    SetupTimes setup(const Args& args) override {
        SetupTimes times;
        victim_ = std::make_unique<Victim>(build_victim(args.seed, kPool, 1024, times));
        pool_ = &victim_->split.train.inputs();
        fleet_ = core::deploy_victim_fleet(victim_->net, victim_->config, kReplicas);

        // Dummy loads at the natural scale: the largest column 1-norm.
        const tensor::Matrix& W = victim_->net.weights();
        double magnitude = 0.0;
        for (std::size_t j = 0; j < W.cols(); ++j) {
            double l1 = 0.0;
            for (std::size_t i = 0; i < W.rows(); ++i) l1 += std::abs(W(i, j));
            magnitude = std::max(magnitude, l1);
        }
        core::ObfuscationConfig dummies;
        dummies.kind = core::ObfuscationConfig::Kind::UniformDummy;
        dummies.magnitude = magnitude;
        stacks_.clear();
        for (auto& replica : fleet_) {
            stacks_.push_back(std::make_unique<core::DecoratorStack>(replica));
            stacks_.back()->push<core::ObfuscatedOracle>(dummies);
        }
        detector_ = std::make_unique<sidechannel::CurrentSignatureDetector>(
            fleet_[0].hardware_for_evaluation(), victim_->split.train.take(256));

        probes_ = tensor::Matrix(pool_->cols(), pool_->cols(), 0.0);
        for (std::size_t j = 0; j < pool_->cols(); ++j) probes_(j, j) = kProbeAmplitude;
        rows_.clear();
        for (std::size_t r = 0; r < kPool; ++r) rows_.push_back(pool_->row(r));
        probe_rows_.clear();
        for (std::size_t j = 0; j < probes_.rows(); ++j) probe_rows_.push_back(probes_.row(j));
        pool_ref_.clear();
        probe_ref_.clear();
        for (auto& stack : stacks_) {
            pool_ref_.push_back(serial_reference(stack->top(), *pool_));
            probe_ref_.push_back(serial_reference(stack->top(), probes_));
        }
        for (const auto& rows : {&rows_, &probe_rows_}) {
            auto& hashes = rows == &rows_ ? pool_hash_ : probe_hash_;
            hashes.clear();
            for (const auto& u : *rows) hashes.push_back(row_hash(u.span()));
        }

        // Zipf(kZipfSkew) over ranks; a seeded permutation maps ranks to rows.
        zipf_cdf_.assign(kPool, 0.0);
        double total = 0.0;
        for (std::size_t k = 0; k < kPool; ++k) {
            total += std::pow(static_cast<double>(k + 1), -kZipfSkew);
            zipf_cdf_[k] = total;
        }
        for (double& c : zipf_cdf_) c /= total;
        rank_to_row_.resize(kPool);
        for (std::size_t k = 0; k < kPool; ++k) rank_to_row_[k] = static_cast<std::uint32_t>(k);
        Rng perm(derive_seed(args.seed, 30));
        for (std::size_t k = kPool - 1; k > 0; --k) {
            std::swap(rank_to_row_[k], rank_to_row_[perm.below(k + 1)]);
        }
        return times;
    }

    PassResult run(double seconds, std::uint64_t pass_seed, bool traced) override {
        const std::vector<Arrival> schedule = make_schedule(kWarmupS + seconds, pass_seed);
        const std::size_t n = schedule.size();
        const auto warm_ns = static_cast<std::int64_t>(kWarmupS * 1e9);
        const auto measured = static_cast<std::size_t>(
            std::find_if(schedule.begin(), schedule.end(),
                         [&](const Arrival& a) { return a.due_ns >= warm_ns; }) -
            schedule.begin());
        std::vector<std::unique_ptr<TimingOracle>> timing;
        std::vector<core::Oracle*> replicas;
        for (auto& stack : stacks_) {
            timing.push_back(std::make_unique<TimingOracle>(stack->top()));
            replicas.push_back(traced ? static_cast<core::Oracle*>(timing.back().get())
                                      : &stack->top());
        }
        core::ServiceConfig config;
        config.cache.enabled = true;
        config.cache.capacity = kCacheCapacity;
        config.attribution.enabled = true;

        std::vector<std::int64_t> sent(n, 0);       // submit call time
        std::vector<std::int64_t> submitted(n, 0);  // submit return time
        std::vector<std::int64_t> done(n, 0);       // ready (or refused) time
        std::vector<std::uint8_t> outcome(n, 0);  // 0 failed, 1 answered, 2 refused as expected
        std::vector<double> submit_hit_us, submit_miss_us;
        std::vector<std::size_t> misses;
        std::map<std::string, double> refused;
        std::vector<std::size_t> home(kBenignSessions + kAttackerSessions);
        PassResult r;
        r.latency = Windowed(seconds, 1.0);
        std::int64_t start = 0;
        {
            core::OracleService service(replicas, config);
            std::vector<core::Session> sessions;
            for (std::size_t s = 0; s < kBenignSessions + kAttackerSessions; ++s) {
                sessions.push_back(service.open_session(session_config(s)));
                home[s] = sessions.back().home_replica();
            }
            std::unique_ptr<DepthSampler> depth;
            if (traced) depth = std::make_unique<DepthSampler>(service);

            std::vector<Pending> pending;
            start = now_ns() + 1'000'000;
            std::size_t next = 0;
            auto check = [&](Pending& p, std::int64_t now) {
                const Arrival& a = schedule[p.index];
                const std::size_t k = home[a.session];
                bool ok = false;
                try {
                    if (a.power) {
                        const double got = p.power.get();
                        ok = got == (a.attacker ? probe_ref_[k].power[a.row]
                                                : pool_ref_[k].power[a.row]);
                    } else {
                        const int got = p.label.get();
                        ok = got == (a.attacker ? probe_ref_[k].label[a.row]
                                                : pool_ref_[k].label[a.row]);
                    }
                } catch (const std::exception&) {
                    ok = false;
                }
                done[p.index] = now;
                outcome[p.index] = ok ? 1 : 0;
            };
            auto ready = [](const Pending& p) {
                using namespace std::chrono_literals;
                return p.label.valid() ? p.label.wait_for(0s) == std::future_status::ready
                                       : p.power.wait_for(0s) == std::future_status::ready;
            };
            while (next < n || !pending.empty()) {
                std::int64_t now = now_ns();
                if (next < n && now >= start + schedule[next].due_ns) {
                    const std::size_t i = next++;
                    const Arrival& a = schedule[i];
                    tensor::Vector u = a.attacker ? probe_rows_[a.row] : rows_[a.row];
                    const std::uint64_t hits = traced ? service.cache_hits() : 0;
                    Pending p;
                    p.index = i;
                    const std::int64_t t0 = now_ns();
                    sent[i] = t0;
                    try {
                        Tracer::Scope span("core.service.submit", i + 1);
                        if (a.power) {
                            p.power = sessions[a.session].submit_power(std::move(u));
                        } else {
                            p.label = sessions[a.session].submit_label(std::move(u));
                        }
                    } catch (const std::exception& e) {
                        const std::string reason = refusal_reason(e);
                        if (i >= measured) refused[reason] += 1.0;
                        // Attackers are refused by design: label probes by the
                        // blocking detector, power probes by their budget.
                        const bool expected =
                            a.attacker && reason == (a.power ? "QueryBudgetExceeded"
                                                             : "QueryRefused");
                        submitted[i] = done[i] = now_ns();
                        outcome[i] = expected ? 2 : 0;
                        continue;
                    }
                    submitted[i] = now_ns();
                    if (traced && i >= measured) {
                        const double us = static_cast<double>(submitted[i] - t0) * 1e-3;
                        if (service.cache_hits() != hits) {
                            submit_hit_us.push_back(us);
                        } else {
                            submit_miss_us.push_back(us);
                            misses.push_back(i);
                        }
                    }
                    if (ready(p)) {
                        check(p, submitted[i]);
                    } else {
                        pending.push_back(std::move(p));
                    }
                    continue;
                }
                now = now_ns();
                for (std::size_t j = 0; j < pending.size();) {
                    if (ready(pending[j])) {
                        check(pending[j], now);
                        pending[j] = std::move(pending.back());
                        pending.pop_back();
                    } else {
                        ++j;
                    }
                }
            }
            r.latency.close(static_cast<double>(now_ns() - start - warm_ns) * 1e-9);
            if (traced) {
                r.layer["core.service.queue_depth"] = depth->stop();
                service_layers(service, r.layer);
            }
        }

        std::size_t late_sends = 0;
        std::vector<double> late_us;
        for (std::size_t i = measured; i < n; ++i) {
            const Arrival& a = schedule[i];
            const std::int64_t due = start + a.due_ns;
            late_us.push_back(static_cast<double>(sent[i] - due) * 1e-3);
            if (late_us.back() > kLateLimitUs) ++late_sends;
            ++r.attempted;
            if (outcome[i] == 0) ++r.failed;
            if (!a.attacker) ++r.slo_eligible;
            if (outcome[i] != 1) continue;
            const double us = static_cast<double>(done[i] - due) * 1e-3;
            r.latency.add(done[i] - start - warm_ns, us);
            if (!a.attacker && us <= kSloLimitUs) ++r.within_slo;
        }
        for (std::size_t b = measured; b + kBlock <= n; b += kBlock) {
            const std::int64_t last =
                *std::max_element(done.begin() + static_cast<std::ptrdiff_t>(b),
                                  done.begin() + static_cast<std::ptrdiff_t>(b + kBlock));
            r.script_s.push_back(static_cast<double>(last - (start + schedule[b].due_ns)) * 1e-9);
        }
        const double late_share =
            static_cast<double>(late_sends) / static_cast<double>(std::max<std::size_t>(n - measured, 1));
        r.detail["generator_late_us_p50"] = quantile(late_us, 0.50);
        r.detail["generator_late_us_p99"] = quantile(late_us, 0.99);
        r.detail["generator_late_share"] = late_share;
        r.detail["arrivals"] = static_cast<double>(n - measured);
        if (late_share > kLateShareLimit) {
            r.valid = false;
            r.invalid_reason = "the generator fell behind its schedule: a share of " +
                               number(late_share) + " of sends were over " +
                               number(kLateLimitUs) + " us late";
        }
        for (const auto& [reason, count] : refused) r.layer["core.service.refused." + reason] = count;

        if (traced) {
            std::vector<double> waits, submits = submit_hit_us;
            submits.insert(submits.end(), submit_miss_us.begin(), submit_miss_us.end());
            for (const std::size_t i : misses) {
                const Arrival& a = schedule[i];
                const std::uint64_t hash = a.attacker ? probe_hash_[a.row] : pool_hash_[a.row];
                const TimingOracle& t = *timing[home[a.session]];
                // Search from the submit call: the flusher may pick the row
                // up before the call has returned.
                if (const BackendCall* call =
                        t.answering_call(a.power ? Kind::Power : Kind::Label, hash, sent[i])) {
                    waits.push_back(
                        std::max(0.0, static_cast<double>(call->start_ns - submitted[i]) * 1e-3));
                }
            }
            r.layer["core.service.submit_us_p50"] = quantile(submits, 0.50);
            r.layer["core.service.submit_us_p99"] = quantile(submits, 0.99);
            r.layer["core.service.submit_hit_us_p50"] = quantile(submit_hit_us, 0.50);
            r.layer["core.service.submit_hit_us_p99"] = quantile(submit_hit_us, 0.99);
            r.layer["core.service.submit_miss_us_p50"] = quantile(submit_miss_us, 0.50);
            r.layer["core.service.submit_miss_us_p99"] = quantile(submit_miss_us, 0.99);
            r.layer["core.service.queue_wait_us_p50"] = quantile(waits, 0.50);
            r.layer["core.service.queue_wait_us_p99"] = quantile(waits, 0.99);
            r.detail["queue_wait_samples"] = static_cast<double>(waits.size());
            r.detail["submit_hit_samples"] = static_cast<double>(submit_hit_us.size());
            r.detail["submit_miss_samples"] = static_cast<double>(submit_miss_us.size());
            for (const auto& t : timing) {
                r.backend_calls.insert(r.backend_calls.end(), t->calls().begin(),
                                       t->calls().end());
            }
        }
        return r;
    }

    ReplayTarget replay_target() override {
        return {&fleet_[0], &stacks_[0]->top(), stacks_[0]->depth(), pool_};
    }

    std::map<std::string, std::string> describe() const override {
        return {{"clients", "1 open-loop generator"},
                {"replicas", std::to_string(kReplicas)},
                {"flushers", std::to_string(kReplicas)},
                {"pool_workers", "0"},
                {"arrival_rate_per_s", number(kRate)},
                {"sessions", std::to_string(kBenignSessions + kAttackerSessions)},
                {"attacker_share", number(kAttackerShare)},
                {"input_pool", std::to_string(kPool)},
                {"zipf_skew", number(kZipfSkew)},
                {"cache_capacity", std::to_string(kCacheCapacity)},
                {"slo_limit_us", number(kSloLimitUs)}};
    }

private:
    core::SessionConfig session_config(std::size_t s) const {
        core::SessionConfig c;
        c.detector = detector_.get();
        c.rate.refill_per_sec = 1e6;
        c.rate.burst = 1e6;
        if (s < kBenignSessions) {
            c.budget.max_total = 1ull << 40;
            c.block_flagged = false;
            c.source = 1 + s % kBenignSources;
        } else {
            c.budget.max_power = kAttackerPowerBudget;
            c.block_flagged = true;
            c.source = kAttackerSource;
        }
        return c;
    }

    std::vector<Arrival> make_schedule(double seconds, std::uint64_t seed) const {
        Rng rng(seed);
        std::vector<Arrival> out;
        std::vector<std::uint32_t> probe_cursor(kAttackerSessions, 0);
        double t = 0.0;
        for (;;) {
            t += -std::log(1.0 - rng.uniform()) / kRate;
            if (t >= seconds) break;
            Arrival a;
            a.due_ns = static_cast<std::int64_t>(t * 1e9);
            a.attacker = rng.uniform() < kAttackerShare;
            if (a.attacker) {
                const auto s = static_cast<std::uint32_t>(rng.below(kAttackerSessions));
                a.session = static_cast<std::uint32_t>(kBenignSessions) + s;
                a.row = probe_cursor[s]++ % static_cast<std::uint32_t>(probes_.rows());
                a.power = rng.uniform() < 0.5;
            } else {
                a.session = static_cast<std::uint32_t>(rng.below(kBenignSessions));
                const double u = rng.uniform();
                const auto rank = static_cast<std::size_t>(
                    std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin());
                a.row = rank_to_row_[std::min(rank, kPool - 1)];
                a.power = rng.uniform() < kPowerShare;
            }
            out.push_back(a);
        }
        return out;
    }

    static std::string refusal_reason(const std::exception& e) {
        if (dynamic_cast<const core::QueryRefused*>(&e) != nullptr) return "QueryRefused";
        if (dynamic_cast<const core::QueryBudgetExceeded*>(&e) != nullptr) {
            return "QueryBudgetExceeded";
        }
        if (dynamic_cast<const core::RateLimited*>(&e) != nullptr) return "RateLimited";
        if (dynamic_cast<const core::AccessDenied*>(&e) != nullptr) return "AccessDenied";
        return "other";
    }

    std::unique_ptr<Victim> victim_;
    const tensor::Matrix* pool_ = nullptr;
    std::vector<core::CrossbarOracle> fleet_;
    std::vector<std::unique_ptr<core::DecoratorStack>> stacks_;
    std::unique_ptr<sidechannel::CurrentSignatureDetector> detector_;
    tensor::Matrix probes_{1, 1};
    std::vector<tensor::Vector> rows_, probe_rows_;
    std::vector<std::uint64_t> pool_hash_, probe_hash_;
    std::vector<Reference> pool_ref_, probe_ref_;
    std::vector<double> zipf_cdf_;
    std::vector<std::uint32_t> rank_to_row_;
};

}  // namespace

std::unique_ptr<Workload> make_tenants() { return std::make_unique<Tenants>(); }

}  // namespace perfbench
