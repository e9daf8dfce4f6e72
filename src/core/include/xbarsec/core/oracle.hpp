// The attacker-facing query interface (the paper's threat model).
//
// Attack code never touches the victim's weights: it sees only an
// `Oracle`, which exposes (depending on the scenario being modelled)
//   * classification labels        (always — the deployed model's output)
//   * raw output vectors           (Figure 5 rows 2/4)
//   * power readings               (the side channel, Eq. 5)
// and counts every query so experiments can report attacker cost.
//
// The interface is polymorphic so that deployments compose:
//   * `CrossbarOracle`  — the paper's hardware model (batched internally
//     through the crossbar's GEMM fast path);
//   * `SoftwareOracle`  — a float SingleLayerNet backend modelling an
//     ideal deployment (surrogate / FGSM baselines without crossbar cost);
//   * decorator oracles (decorators.hpp) — power obfuscation and
//     sensing noise stack on top of any backend (per-client budgets and
//     detection live in OracleService session admission, service.hpp).
//
// Every query kind has a batched variant (`query_labels`,
// `query_raw_batch`, `query_power_batch`); backends route these through
// dense linear algebra and an optional common::ThreadPool instead of
// per-vector loops, which is what makes heavy-traffic experiments viable.
//
// Power readings are normalised to weight units (i_total / weight_scale
// for a 1 V read), which models an attacker who knows the device family's
// conductance scale — the paper's implicit assumption.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "xbarsec/common/error.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/nn/network.hpp"
#include "xbarsec/sidechannel/probe.hpp"
#include "xbarsec/xbar/xbar_network.hpp"

namespace xbarsec::core {

/// What the deployment exposes to the attacker.
struct OracleOptions {
    bool expose_raw_outputs = true;
    bool expose_power = true;
};

/// Thrown when a query kind is disabled by the deployment's options.
class AccessDenied : public Error {
public:
    explicit AccessDenied(const std::string& what) : Error("oracle access denied: " + what) {}
};

/// Query counters (attacker cost accounting). A snapshot — the live
/// counters inside a backend (or an OracleService session) are atomic,
/// so batched queries may be issued from thread-pool workers and
/// snapshots taken concurrently are always monotone per bucket between
/// resets.
struct QueryCounters {
    std::uint64_t inference = 0;  ///< label or raw-output queries
    std::uint64_t power = 0;      ///< total-current measurements

    /// Saturating sum: the buckets are independently monotone and on a
    /// long-lived multi-tenant service their sum could in principle
    /// exceed 2^64 − 1; saturation keeps total() monotone instead of
    /// wrapping.
    std::uint64_t total() const { return saturating_add(inference, power); }

    /// a + b clamped to 2^64 − 1 instead of wrapping.
    static std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
        const std::uint64_t t = a + b;
        return t < a ? ~std::uint64_t{0} : t;
    }

    /// Accumulates another snapshot bucket-wise with saturation. Fleet
    /// aggregates (sums of per-replica counters) must use this: each
    /// replica bucket saturates independently, so a plain + across
    /// near-max replicas could wrap and break total()'s monotonicity.
    void add_saturating(const QueryCounters& other) {
        inference = saturating_add(inference, other.inference);
        power = saturating_add(power, other.power);
    }
};

/// Abstract attacker-facing query interface. Attack and side-channel code
/// takes `Oracle&` and never a concrete backend; experiment code builds
/// the backend (and any defensive decorator stack) and hands the top of
/// the stack to the attacker.
class Oracle {
public:
    virtual ~Oracle() = default;

    virtual std::size_t inputs() const = 0;
    virtual std::size_t outputs() const = 0;

    /// Predicted class label for input u.
    virtual int query_label(const tensor::Vector& u) = 0;

    /// Raw post-activation output vector. Throws AccessDenied when the
    /// deployment hides raw outputs.
    virtual tensor::Vector query_raw(const tensor::Vector& u) = 0;

    /// Power side channel in weight units: i_total(u) / weight_scale.
    /// Throws AccessDenied when power measurement is not possible.
    virtual double query_power(const tensor::Vector& u) = 0;

    /// Batched queries: one result per row of U, counted per row. The
    /// defaults loop over the scalar queries; backends override them with
    /// GEMM-path implementations (decorators forward to preserve the
    /// backend's fast path).
    virtual std::vector<int> query_labels(const tensor::Matrix& U);
    virtual tensor::Matrix query_raw_batch(const tensor::Matrix& U);
    virtual tensor::Vector query_power_batch(const tensor::Matrix& U);

    /// Attacker cost so far. Decorators delegate to the wrapped oracle,
    /// so each physical query is counted exactly once, at the backend.
    virtual QueryCounters counters() const = 0;
    virtual void reset_counters() = 0;

    /// Adapter for sidechannel::probe_columns and the obfuscation
    /// wrappers; still counted (the lambda routes through query_power on
    /// whichever stack layer it was taken from). Weight units.
    sidechannel::TotalCurrentFn power_measure_fn();
};

/// Base for concrete backends: owns the access policy and the atomic
/// attacker-cost counters. Decorators do NOT derive from this — they
/// forward queries, so the backend counts each physical query once.
class BackendOracle : public Oracle {
public:
    const OracleOptions& options() const { return options_; }

    QueryCounters counters() const override;
    void reset_counters() override;

    /// Pool used by the batched query paths (nullptr = run serially).
    void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
    ThreadPool* thread_pool() const { return pool_; }

protected:
    explicit BackendOracle(OracleOptions options) : options_(options) {}
    BackendOracle(BackendOracle&& other) noexcept;
    BackendOracle& operator=(BackendOracle&& other) noexcept;
    BackendOracle(const BackendOracle&) = delete;
    BackendOracle& operator=(const BackendOracle&) = delete;

    void count_inference(std::uint64_t n = 1) {
        inference_count_.fetch_add(n, std::memory_order_relaxed);
    }
    void count_power(std::uint64_t n = 1) { power_count_.fetch_add(n, std::memory_order_relaxed); }
    void require_raw_access() const;
    void require_power_access() const;

private:
    OracleOptions options_;
    ThreadPool* pool_ = nullptr;
    std::atomic<std::uint64_t> inference_count_{0};
    std::atomic<std::uint64_t> power_count_{0};
};

/// Black-box wrapper over a crossbar-deployed network (the paper's
/// deployment model).
class CrossbarOracle : public BackendOracle {
public:
    /// Takes ownership of the deployed hardware model.
    explicit CrossbarOracle(xbar::CrossbarNetwork hardware, OracleOptions options = {});

    std::size_t inputs() const override { return hardware_.inputs(); }
    std::size_t outputs() const override { return hardware_.outputs(); }

    int query_label(const tensor::Vector& u) override;
    tensor::Vector query_raw(const tensor::Vector& u) override;
    double query_power(const tensor::Vector& u) override;

    std::vector<int> query_labels(const tensor::Matrix& U) override;
    tensor::Matrix query_raw_batch(const tensor::Matrix& U) override;
    tensor::Vector query_power_batch(const tensor::Matrix& U) override;

    /// The underlying hardware — for experiment *evaluation* only (e.g.
    /// scoring adversarial examples); attack code must not call this.
    const xbar::CrossbarNetwork& hardware_for_evaluation() const { return hardware_; }

private:
    xbar::CrossbarNetwork hardware_;
    double weight_scale_ = 1.0;
};

/// Software (float) backend: the same query interface served by a plain
/// SingleLayerNet, modelling an ideal noise-free deployment. Its power
/// channel is the ideal one-sided crossbar's reading in weight units,
/// p(u) = Σ_j u_j·‖W[:,j]‖₁ — the identity Eq. 9's surrogate loss relies
/// on. Useful for surrogate/FGSM baselines without crossbar cost.
class SoftwareOracle : public BackendOracle {
public:
    explicit SoftwareOracle(nn::SingleLayerNet net, OracleOptions options = {});

    std::size_t inputs() const override { return net_.inputs(); }
    std::size_t outputs() const override { return net_.outputs(); }

    int query_label(const tensor::Vector& u) override;
    tensor::Vector query_raw(const tensor::Vector& u) override;
    double query_power(const tensor::Vector& u) override;

    std::vector<int> query_labels(const tensor::Matrix& U) override;
    tensor::Matrix query_raw_batch(const tensor::Matrix& U) override;
    tensor::Vector query_power_batch(const tensor::Matrix& U) override;

    /// The backing network — for experiment evaluation only.
    const nn::SingleLayerNet& network_for_evaluation() const { return net_; }

private:
    nn::SingleLayerNet net_;
    tensor::Vector column_l1_;  ///< cached ‖W[:,j]‖₁ for the power channel
};

}  // namespace xbarsec::core
