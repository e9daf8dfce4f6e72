// extract — the paper's workload: one attacker runs the black-box
// campaign back to back, closed loop, through one default session on an
// undefended single-replica deployment:
//
//   probe_columns (power side channel) → collect_queries (Q labels +
//   power) → train_surrogate at λ = 0 and λ > 0 (Eq. 9) →
//   fgsm_attack_batch on a held-out set → oracle_accuracy on the session.
//
// Batched tensor/nn work dominates; the serving layers see a few large
// flush-hinted batches per campaign. Every campaign must reproduce the
// probe estimate and both adversarial accuracies of the same campaign run
// directly against the bare CrossbarOracle during setup.
#include "harness.hpp"
#include "xbarsec/attack/evaluate.hpp"
#include "xbarsec/attack/fgsm.hpp"
#include "xbarsec/attack/surrogate.hpp"
#include "xbarsec/core/fig5.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace perfbench {

using namespace xbarsec;

namespace {

constexpr std::size_t kQueries = 1000;  ///< Q
constexpr std::size_t kHeldOut = 1000;
constexpr double kLambda = 0.006;
constexpr double kEpsilon = 0.1;
constexpr double kSloLimitUs = 2.0e6;  ///< one campaign within 2 s

struct Outcome {
    std::uint64_t probe_digest = 0;
    double accuracy_baseline = 0.0;  ///< λ = 0 surrogate's FGSM examples
    double accuracy_power = 0.0;     ///< λ > 0 surrogate's FGSM examples
    std::uint64_t rows = 0;          ///< oracle rows the campaign asked for

    bool operator==(const Outcome&) const = default;
};

/// One campaign against `target` (an Oracle or a Session). Spans share
/// the campaign's request id.
template <typename Target>
Outcome campaign(Target& target, const Victim& victim, const data::Dataset& held_out,
                 std::uint64_t seed, std::uint64_t request) {
    Tracer::Scope root("campaign", request);
    Outcome out;
    sidechannel::ProbeResult probe;
    {
        Tracer::Scope span("sidechannel.probe", request);
        probe = core::probe_columns(target);
    }
    out.probe_digest = row_hash(probe.conductance_sums.span());
    out.rows += probe.queries;

    core::QueryPlan plan;
    plan.count = kQueries;
    plan.raw_outputs = false;
    plan.record_power = true;
    plan.seed = seed;
    attack::QueryDataset queries;
    {
        Tracer::Scope span("core.queries.collect", request);
        queries = core::collect_queries(target, victim.split.train, plan);
    }
    out.rows += 2 * queries.size();

    const double mean_sq_norm = tensor::mean_squared_row_norm(queries.inputs, 512);
    for (const double lambda : {0.0, kLambda}) {
        attack::SurrogateConfig config;
        config.power_loss_weight = lambda;
        config.train = core::surrogate_schedule(kQueries, mean_sq_norm);
        config.train.shuffle_seed = derive_seed(seed, lambda > 0.0 ? 2 : 1);
        config.init_seed = derive_seed(seed, lambda > 0.0 ? 4 : 3);
        attack::SurrogateTrainResult fit;
        {
            Tracer::Scope span("attack.train_surrogate", request);
            fit = attack::train_surrogate(queries, config);
        }
        tensor::Matrix adversarial;
        {
            Tracer::Scope span("attack.fgsm", request);
            adversarial = attack::fgsm_attack_batch(fit.surrogate, held_out.inputs(),
                                                    held_out.labels(), held_out.num_classes(),
                                                    kEpsilon);
        }
        double accuracy = 0.0;
        {
            Tracer::Scope span("attack.evaluate", request);
            accuracy = attack::oracle_accuracy(target, adversarial, held_out.labels());
        }
        (lambda > 0.0 ? out.accuracy_power : out.accuracy_baseline) = accuracy;
        out.rows += held_out.size();
    }
    return out;
}

class Extract final : public Workload {
public:
    SetupTimes setup(const Args& args) override {
        SetupTimes times;
        victim_ = std::make_unique<Victim>(build_victim(args.seed, 4096, kHeldOut, times));
        held_out_ = victim_->split.test.take(kHeldOut);
        backend_ = std::make_unique<core::CrossbarOracle>(
            core::deploy_victim(victim_->net, victim_->config));
        seed_ = derive_seed(args.seed, 20);
        reference_ = campaign(*backend_, *victim_, held_out_, seed_, 0);
        return times;
    }

    PassResult run(double seconds, std::uint64_t /*pass_seed*/, bool traced) override {
        // Every campaign replays the same plan, so one reference checks all.
        TimingOracle timing(*backend_);
        core::Oracle& served = traced ? static_cast<core::Oracle&>(timing) : *backend_;
        PassResult r;
        r.latency = Windowed(seconds, seconds);
        {
            core::OracleService service(served);
            core::Session session = service.open_session();
            std::unique_ptr<DepthSampler> depth;
            if (traced) depth = std::make_unique<DepthSampler>(service);
            // Warm-up: one campaign outside the measurement (request 0,
            // like the reference campaign, so its spans are not counted).
            (void)campaign(session, *victim_, held_out_, seed_, 0);
            const std::int64_t start = now_ns();
            const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
            do {
                const std::int64_t t0 = now_ns();
                bool ok = false;
                std::uint64_t rows = 0;
                try {
                    const Outcome got = campaign(session, *victim_, held_out_, seed_,
                                                 r.attempted + 1);
                    ok = got == reference_;
                    rows = got.rows;
                } catch (const std::exception&) {
                    ok = false;
                }
                const double took = static_cast<double>(now_ns() - t0) * 1e-9;
                ++r.attempted;
                ++r.slo_eligible;
                r.failed += ok ? 0 : 1;
                r.script_s.push_back(took);
                r.latency.add(now_ns() - start, took * 1e6, static_cast<double>(rows));
                if (ok && took * 1e6 <= kSloLimitUs) ++r.within_slo;
            } while (now_ns() < deadline);
            r.latency.close(static_cast<double>(now_ns() - start) * 1e-9);
            if (traced) {
                r.layer["core.service.queue_depth"] = depth->stop();
                service_layers(service, r.layer);
            }
        }
        r.detail["reference_accuracy_baseline"] = reference_.accuracy_baseline;
        r.detail["reference_accuracy_power"] = reference_.accuracy_power;
        r.detail["campaign_rows"] = static_cast<double>(reference_.rows);
        if (traced) {
            r.backend_calls = timing.calls();
            // Median per campaign of each step's self time (request 0 is
            // the setup's reference campaign).
            const auto self = Tracer::instance().self_times();
            const std::pair<const char*, const char*> steps[] = {
                {"sidechannel.probe", "sidechannel.probe_s"},
                {"core.queries.collect", "core.queries.collect_s"},
                {"attack.train_surrogate", "attack.train_surrogate_s"},
                {"attack.fgsm", "attack.fgsm_s"},
                {"attack.evaluate", "attack.evaluate_s"},
            };
            for (const auto& [span, metric] : steps) {
                std::vector<double> per_campaign;
                if (const auto it = self.find(span); it != self.end()) {
                    for (const auto& [request, s] : it->second) {
                        if (request != 0) per_campaign.push_back(s);
                    }
                }
                r.layer[metric] = median(per_campaign);
            }
        }
        return r;
    }

    ReplayTarget replay_target() override {
        return {backend_.get(), backend_.get(), 0, &held_out_.inputs()};
    }

    std::map<std::string, std::string> describe() const override {
        return {{"clients", "1"},
                {"replicas", "1"},
                {"flushers", "1"},
                {"pool_workers", "0"},
                {"queries_Q", std::to_string(kQueries)},
                {"held_out", std::to_string(kHeldOut)},
                {"lambda", number(kLambda)},
                {"epsilon", number(kEpsilon)},
                {"slo_limit_us", number(kSloLimitUs)}};
    }

private:
    std::unique_ptr<Victim> victim_;
    data::Dataset held_out_;
    std::unique_ptr<core::CrossbarOracle> backend_;
    std::uint64_t seed_ = 0;
    Outcome reference_;
};

}  // namespace

std::unique_ptr<Workload> make_extract() { return std::make_unique<Extract>(); }

}  // namespace perfbench
