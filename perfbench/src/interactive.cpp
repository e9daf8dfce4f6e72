// interactive — closed loop, request-response: three clients (one core
// is left for the flusher), each in its own default session on a
// single-replica, cache-off service, wait on every answer through
// Session::oracle(). Three quarters of the queries are scalar labels and
// one quarter scalar power readings, over a 4096-row input pool.
//
// Every row pays the fixed per-call cost, so this is where a GEMV
// micro-kernel, pre-packing or allocation fixes show; it bypasses the
// cache, attribution, routing and admission-policy stages. Every answer
// must equal the serial scalar answer of the same backend.
#include <thread>

#include "harness.hpp"
#include "xbarsec/common/rng.hpp"

namespace perfbench {

using namespace xbarsec;

namespace {

constexpr std::size_t kClients = 3;
constexpr std::size_t kPool = 4096;
constexpr std::size_t kScript = 256;  ///< requests per client script (campaign_s)
constexpr double kPowerShare = 0.25;
constexpr double kSloLimitUs = 100.0;
constexpr double kWarmupS = 0.3;

/// One request as a client saw it (kept for queue-wait matching).
struct Sent {
    std::int64_t start_ns = 0;
    std::uint32_t row = 0;
    bool power = false;
};

struct ClientResult {
    Windowed latency;
    std::vector<double> script_s;
    std::vector<Sent> sent;  ///< traced passes only
    std::uint64_t attempted = 0, failed = 0, within_slo = 0;
};

class Interactive final : public Workload {
public:
    SetupTimes setup(const Args& args) override {
        SetupTimes times;
        victim_ = std::make_unique<Victim>(build_victim(args.seed, kPool, 1024, times));
        backend_ = std::make_unique<core::CrossbarOracle>(
            core::deploy_victim(victim_->net, victim_->config));
        pool_ = &victim_->split.train.inputs();
        rows_.clear();
        hashes_.clear();
        for (std::size_t r = 0; r < kPool; ++r) {
            rows_.push_back(pool_->row(r));
            hashes_.push_back(row_hash(pool_->row_span(r)));
        }
        reference_ = serial_reference(*backend_, *pool_);
        return times;
    }

    PassResult run(double seconds, std::uint64_t pass_seed, bool traced) override {
        TimingOracle timing(*backend_);
        core::Oracle& served = traced ? static_cast<core::Oracle&>(timing) : *backend_;
        std::vector<ClientResult> results(kClients);
        for (ClientResult& c : results) c.latency = Windowed(seconds, 1.0);
        PassResult r;
        r.latency = Windowed(seconds, 1.0);
        {
            core::OracleService service(served);
            std::vector<core::Session> sessions;
            for (std::size_t c = 0; c < kClients; ++c) sessions.push_back(service.open_session());
            std::unique_ptr<DepthSampler> depth;
            if (traced) depth = std::make_unique<DepthSampler>(service);
            const std::int64_t start = now_ns() + static_cast<std::int64_t>(kWarmupS * 1e9);
            const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
            std::vector<std::thread> clients;
            for (std::size_t c = 0; c < kClients; ++c) {
                clients.emplace_back([&, c] {
                    client(sessions[c].oracle(), derive_seed(pass_seed, c), start, deadline,
                           traced, c, results[c]);
                });
            }
            for (auto& t : clients) t.join();
            for (const ClientResult& c : results) r.latency.merge(c.latency);
            r.latency.close(static_cast<double>(now_ns() - start) * 1e-9);
            if (traced) {
                r.layer["core.service.queue_depth"] = depth->stop();
                service_layers(service, r.layer);
            }
        }
        std::vector<double> waits;
        for (const ClientResult& c : results) {
            r.script_s.insert(r.script_s.end(), c.script_s.begin(), c.script_s.end());
            r.attempted += c.attempted;
            r.failed += c.failed;
            r.within_slo += c.within_slo;
            // A synchronous caller's submit return is not observable: its
            // queue wait runs from the call to the start of the backend
            // call that answered the row.
            for (const Sent& s : c.sent) {
                const Kind kind = s.power ? Kind::Power : Kind::Label;
                if (const BackendCall* call = timing.answering_call(kind, hashes_[s.row], s.start_ns)) {
                    waits.push_back(static_cast<double>(call->start_ns - s.start_ns) * 1e-3);
                }
            }
        }
        r.slo_eligible = r.attempted;
        if (traced) {
            r.backend_calls = timing.calls();
            r.layer["core.service.queue_wait_us_p50"] = quantile(waits, 0.50);
            r.layer["core.service.queue_wait_us_p99"] = quantile(waits, 0.99);
            r.detail["queue_wait_samples"] = static_cast<double>(waits.size());
        }
        return r;
    }

    ReplayTarget replay_target() override { return {backend_.get(), backend_.get(), 0, pool_}; }

    std::map<std::string, std::string> describe() const override {
        return {{"clients", std::to_string(kClients)},
                {"replicas", "1"},
                {"flushers", "1"},
                {"pool_workers", "0"},
                {"input_pool", std::to_string(kPool)},
                {"power_share", number(kPowerShare)},
                {"script_requests", std::to_string(kScript)},
                {"slo_limit_us", number(kSloLimitUs)}};
    }

private:
    /// Sends requests back to back until `deadline`; those sent before
    /// `start` warm the service up and are not recorded.
    void client(core::Oracle& oracle, std::uint64_t seed, std::int64_t start,
                std::int64_t deadline, bool traced, std::size_t index, ClientResult& out) const {
        Rng rng(seed);
        std::int64_t script_start = start;
        std::uint64_t in_script = 0;
        for (std::int64_t t0 = now_ns(); t0 < deadline;) {
            const auto row = static_cast<std::uint32_t>(rng.below(kPool));
            const bool power = rng.uniform() < kPowerShare;
            bool ok = false;
            {
                Tracer::Scope span("core.service.call", (index + 1) << 40 | out.attempted);
                try {
                    ok = power ? oracle.query_power(rows_[row]) == reference_.power[row]
                               : oracle.query_label(rows_[row]) == reference_.label[row];
                } catch (const std::exception&) {
                    ok = false;
                }
            }
            const std::int64_t t1 = now_ns();
            if (t0 < start) {
                t0 = t1;
                continue;
            }
            const double us = static_cast<double>(t1 - t0) * 1e-3;
            ++out.attempted;
            if (ok) {
                out.latency.add(t1 - start, us);
                if (us <= kSloLimitUs) ++out.within_slo;
            } else {
                ++out.failed;
            }
            if (traced) out.sent.push_back({t0, row, power});
            if (++in_script == kScript) {
                out.script_s.push_back(static_cast<double>(t1 - script_start) * 1e-9);
                script_start = t1;
                in_script = 0;
            }
            t0 = t1;
        }
    }

    std::unique_ptr<Victim> victim_;
    std::unique_ptr<core::CrossbarOracle> backend_;
    const tensor::Matrix* pool_ = nullptr;
    std::vector<tensor::Vector> rows_;
    std::vector<std::uint64_t> hashes_;
    Reference reference_;
};

}  // namespace

std::unique_ptr<Workload> make_interactive() { return std::make_unique<Interactive>(); }

}  // namespace perfbench
