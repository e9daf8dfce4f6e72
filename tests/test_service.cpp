// OracleService core contracts: async submission, cross-client query
// coalescing, bit-identity of coalesced vs serial issue for all three
// query kinds (on noisy hardware, where measurement-counter order is
// observable — and re-run per kernel variant via the CMake-registered
// XBARSEC_FORCE_KERNEL environments), per-session policy enforcement at
// submit time, and counter semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "service_test_oracles.hpp"
#include "xbarsec/core/service.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::core {
namespace {

xbar::DeviceSpec ideal_spec() {
    xbar::DeviceSpec s;
    s.g_on_max = 100e-6;
    return s;
}

nn::SingleLayerNet make_net(Rng& rng, std::size_t in = 24, std::size_t out = 5) {
    return nn::SingleLayerNet(rng, in, out, nn::Activation::Linear, nn::Loss::Mse);
}

CrossbarOracle make_oracle(const nn::SingleLayerNet& net, OracleOptions options = {},
                           xbar::NonIdealityConfig nonideal = {}) {
    return CrossbarOracle(xbar::CrossbarNetwork(net, ideal_spec(), nonideal), options);
}

xbar::NonIdealityConfig noisy_device() {
    xbar::NonIdealityConfig c;
    c.read_noise_std = 0.05;
    return c;
}

// ---- async submission -------------------------------------------------------

TEST(Service, FuturesResolveToBackendAnswers) {
    Rng rng(1);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle reference = make_oracle(net);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session session = service.open_session();

    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 8, net.inputs());
    auto labels = session.submit_labels(U);
    auto raw = session.submit_raw_batch(U);
    auto power = session.submit_power_batch(U);

    EXPECT_EQ(labels.get(), reference.query_labels(U));
    const tensor::Matrix want_raw = reference.query_raw_batch(U);
    const tensor::Matrix got_raw = raw.get();
    for (std::size_t r = 0; r < U.rows(); ++r) {
        for (std::size_t c = 0; c < want_raw.cols(); ++c) {
            EXPECT_DOUBLE_EQ(got_raw(r, c), want_raw(r, c));
        }
    }
    const tensor::Vector want_power = reference.query_power_batch(U);
    const tensor::Vector got_power = power.get();
    for (std::size_t r = 0; r < U.rows(); ++r) EXPECT_DOUBLE_EQ(got_power[r], want_power[r]);
}

TEST(Service, ScalarSubmissionsMatchScalarQueries) {
    Rng rng(2);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle reference = make_oracle(net);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session session = service.open_session();
    const tensor::Vector u = tensor::Vector::random_uniform(rng, net.inputs());

    EXPECT_EQ(session.submit_label(u).get(), reference.query_label(u));
    const tensor::Vector want = reference.query_raw(u);
    const tensor::Vector got = session.submit_raw(u).get();
    for (std::size_t c = 0; c < want.size(); ++c) EXPECT_DOUBLE_EQ(got[c], want[c]);
    EXPECT_DOUBLE_EQ(session.submit_power(u).get(), reference.query_power(u));
}

// ---- coalescing & bit-identity ----------------------------------------------

TEST(Service, CoalescedLabelsBitIdenticalToSerialOnNoisyHardware) {
    Rng rng(3);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle serial = make_oracle(net, {}, noisy_device());
    CrossbarOracle backend = make_oracle(net, {}, noisy_device());
    GatedOracle gated(backend);
    OracleService service(gated);
    Session session = service.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 64, net.inputs());

    // Row 0 flushes alone and is held inside the backend; the other 63
    // queue behind it and form the next batch.
    std::vector<std::future<int>> pending;
    pending.reserve(U.rows());
    gated.hold();
    pending.push_back(session.submit_label(U.row(0)));
    ASSERT_TRUE(gated.wait_until_held());
    for (std::size_t r = 1; r < U.rows(); ++r) pending.push_back(session.submit_label(U.row(r)));
    gated.release();
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_EQ(pending[r].get(), serial.query_label(U.row(r))) << "row " << r;
    }
    EXPECT_EQ(service.flushed_rows(), U.rows());
    EXPECT_EQ(service.flushed_batches(), 2u);
    EXPECT_EQ(gated.batch_rows(), (std::vector<std::size_t>{1, 63}));
}

TEST(Service, CoalescedRawAndPowerBitIdenticalToSerialOnNoisyHardware) {
    Rng rng(4);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle serial = make_oracle(net, {}, noisy_device());
    CrossbarOracle backend = make_oracle(net, {}, noisy_device());
    GatedOracle gated(backend);
    OracleService service(gated);
    Session session = service.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 32, net.inputs());

    // All raws first, then all powers — same order serially. Behind the
    // held first raw, each kind's run merges into one batch.
    std::vector<std::future<tensor::Vector>> raws;
    gated.hold();
    raws.push_back(session.submit_raw(U.row(0)));
    ASSERT_TRUE(gated.wait_until_held());
    for (std::size_t r = 1; r < U.rows(); ++r) raws.push_back(session.submit_raw(U.row(r)));
    std::vector<std::future<double>> powers;
    for (std::size_t r = 0; r < U.rows(); ++r) powers.push_back(session.submit_power(U.row(r)));
    gated.release();

    for (std::size_t r = 0; r < U.rows(); ++r) {
        const tensor::Vector got = raws[r].get();
        const tensor::Vector want = serial.query_raw(U.row(r));
        for (std::size_t c = 0; c < want.size(); ++c) {
            EXPECT_DOUBLE_EQ(got[c], want[c]) << "row " << r << " col " << c;
        }
    }
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_DOUBLE_EQ(powers[r].get(), serial.query_power(U.row(r))) << "row " << r;
    }
    EXPECT_EQ(gated.batch_rows(), (std::vector<std::size_t>{1, 31, 32}));
}

TEST(Service, InterleavedKindsPreserveSerialMeasurementOrder) {
    // label, power, raw, label, power, raw, ... — the coalescer may only
    // merge *consecutive* same-kind runs, so the backend's measurement
    // counter advances exactly as under serial issue.
    Rng rng(5);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle serial = make_oracle(net, {}, noisy_device());
    CrossbarOracle backend = make_oracle(net, {}, noisy_device());
    GatedOracle gated(backend);
    OracleService service(gated);
    Session session = service.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 18, net.inputs());

    // Everything after the held first label queues up together, yet no
    // two neighbours share a kind: every unit is its own backend call.
    std::vector<std::future<int>> labels;
    std::vector<std::future<double>> powers;
    std::vector<std::future<tensor::Vector>> raws;
    gated.hold();
    for (std::size_t r = 0; r < U.rows(); r += 3) {
        labels.push_back(session.submit_label(U.row(r)));
        if (r == 0) {
            ASSERT_TRUE(gated.wait_until_held());
        }
        powers.push_back(session.submit_power(U.row(r + 1)));
        raws.push_back(session.submit_raw(U.row(r + 2)));
    }
    gated.release();
    std::size_t i = 0;
    for (std::size_t r = 0; r < U.rows(); r += 3, ++i) {
        EXPECT_EQ(labels[i].get(), serial.query_label(U.row(r)));
        EXPECT_DOUBLE_EQ(powers[i].get(), serial.query_power(U.row(r + 1)));
        const tensor::Vector got = raws[i].get();
        const tensor::Vector want = serial.query_raw(U.row(r + 2));
        for (std::size_t c = 0; c < want.size(); ++c) EXPECT_DOUBLE_EQ(got[c], want[c]);
    }
    EXPECT_EQ(service.flushed_batches(), U.rows());
}

TEST(Service, ExplicitBatchSubmissionsAreNeverSplit) {
    // A single submitted batch larger than max_batch passes through to
    // the backend whole (all-or-nothing stack semantics preserved).
    Rng rng(6);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.max_batch = 16;
    OracleService service(backend, config);
    Session session = service.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 64, net.inputs());
    (void)session.submit_labels(U).get();
    EXPECT_EQ(service.flushed_batches(), 1u);
    EXPECT_EQ(service.flushed_rows(), 64u);
}

TEST(Service, SessionOracleViewRunsExistingOracleCode) {
    Rng rng(7);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle reference = make_oracle(net);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session session = service.open_session();
    Oracle& oracle = session.oracle();

    EXPECT_EQ(oracle.inputs(), net.inputs());
    EXPECT_EQ(oracle.outputs(), net.outputs());
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 10, net.inputs());
    EXPECT_EQ(oracle.query_labels(U), reference.query_labels(U));
    EXPECT_EQ(oracle.counters().inference, 10u);  // the session's counters
    oracle.reset_counters();
    EXPECT_EQ(session.counters().inference, 0u);
}

// ---- per-session policy at submission ---------------------------------------

TEST(Service, SessionBudgetIsChargedAllOrNothingAtSubmit) {
    Rng rng(8);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    SessionConfig config;
    config.budget.max_inference = 10;
    Session session = service.open_session(config);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 8, net.inputs());

    EXPECT_NO_THROW(session.submit_labels(U).get());                  // 8 of 10
    EXPECT_THROW(session.submit_labels(U), QueryBudgetExceeded);      // would cross
    EXPECT_EQ(session.budget_spent().inference, 8u);                  // not charged
    EXPECT_EQ(session.counters().inference, 8u);                      // not counted
    EXPECT_EQ(backend.counters().inference, 8u);                      // never reached backend
}

TEST(Service, SessionBudgetExhaustsPerKindAndRefusalsChargeNothing) {
    Rng rng(14);
    CrossbarOracle backend = make_oracle(make_net(rng));
    OracleService service(backend);
    SessionConfig config;
    config.budget.max_power = 5;
    Session session = service.open_session(config);
    const tensor::Vector u(backend.inputs(), 0.5);

    for (int i = 0; i < 5; ++i) EXPECT_NO_THROW((void)session.submit_power(u).get());
    EXPECT_THROW(session.submit_power(u), QueryBudgetExceeded);
    EXPECT_EQ(session.budget_spent().power, 5u);
    EXPECT_EQ(backend.counters().power, 5u);  // the refused query never ran

    // The inference budget is independent of the power budget.
    EXPECT_NO_THROW((void)session.submit_label(u).get());
}

TEST(Service, SessionTotalBudgetSpansBothKinds) {
    Rng rng(16);
    CrossbarOracle backend = make_oracle(make_net(rng));
    OracleService service(backend);
    SessionConfig config;
    config.budget.max_total = 3;
    Session session = service.open_session(config);
    const tensor::Vector u(backend.inputs(), 0.5);

    EXPECT_NO_THROW((void)session.submit_label(u).get());
    EXPECT_NO_THROW((void)session.submit_power(u).get());
    EXPECT_NO_THROW((void)session.submit_raw(u).get());
    EXPECT_THROW(session.submit_label(u), QueryBudgetExceeded);
    EXPECT_THROW(session.submit_power(u), QueryBudgetExceeded);
    EXPECT_EQ(session.budget_spent().total(), 3u);
}

/// Clean enrolment data for a 16-input, 3-class detector.
data::Dataset make_enrollment(Rng& rng) {
    tensor::Matrix clean = tensor::Matrix::random_uniform(rng, 120, 16);
    std::vector<int> labels(120);
    for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>(i % 3);
    return data::Dataset(std::move(clean), std::move(labels), 3, data::ImageShape{4, 4, 1});
}

TEST(Service, DetectorRefusedSubmissionChargesNoBudget) {
    // Admission always screens before it charges, so a blocking
    // detector's refusal never reaches the budget ledger.
    Rng rng(17);
    const nn::SingleLayerNet net = make_net(rng, 16, 3);
    CrossbarOracle backend = make_oracle(net);
    const data::Dataset enrollment = make_enrollment(rng);
    const sidechannel::CurrentSignatureDetector detector(backend.hardware_for_evaluation(),
                                                         enrollment);
    OracleService service(backend);
    SessionConfig config;
    config.budget.max_inference = 10;
    config.detector = &detector;
    config.block_flagged = true;
    Session session = service.open_session(config);

    tensor::Vector attack(16, 0.2);
    attack[3] = 50.0;  // one pixel at 50x the clean max
    ASSERT_TRUE(detector.is_adversarial(attack));
    EXPECT_THROW(session.submit_label(attack), QueryRefused);
    EXPECT_EQ(session.budget_spent().inference, 0u);
    EXPECT_EQ(session.counters().inference, 0u);
    EXPECT_EQ(backend.counters().inference, 0u);  // the flagged query never ran
}

// ---- refusal conservation ---------------------------------------------------

// Rate buckets on a clock that never advances: token counts are exact.
std::chrono::nanoseconds frozen_clock() { return std::chrono::nanoseconds(0); }

/// Everything admission may take from a client or record for it.
struct AdmissionSnapshot {
    double session_tokens = 0.0;
    double source_tokens = 0.0;
    QueryCounters spent;
    QueryCounters counted;
    QueryCounters replica;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
};

AdmissionSnapshot snapshot(const OracleService& service, const Session& session) {
    AdmissionSnapshot s;
    s.session_tokens = session.rate_tokens();
    s.source_tokens = session.source_rate_tokens();
    s.spent = session.budget_spent();
    s.counted = session.counters();
    s.replica = service.replica_counters(0);
    s.cache_hits = service.cache_hits();
    s.cache_misses = service.cache_misses();
    return s;
}

TEST(Service, RefusedSubmissionGivesBackEverythingAdmissionTook) {
    // One case per refusing stage. Every case starts from the same policy
    // (rate buckets, budget, log-only detector, cache, attribution with a
    // source bucket), primes the session with one answered query, adjusts
    // one knob so the next submission is refused at the stage under test,
    // and checks that the refusal moved nothing.
    Rng rng(21);
    const nn::SingleLayerNet net = make_net(rng, 16, 3);
    const data::Dataset enrollment = make_enrollment(rng);
    const tensor::Vector primed(16, 0.2);
    const tensor::Vector fresh(16, 0.3);
    tensor::Vector attack(16, 0.2);
    attack[3] = 50.0;

    enum class Refusal { Denied, Refused, Limited, OverBudget, Closed };
    struct Case {
        const char* stage;
        void (*adjust)(ServiceConfig&, SessionConfig&);
        bool shut_down;
        const tensor::Vector* input;
        bool power;
        Refusal expect;
    };
    const Case cases[] = {
        {"exposure", [](ServiceConfig&, SessionConfig& c) { c.expose_power = false; }, false,
         &fresh, true, Refusal::Denied},
        {"blocking detector", [](ServiceConfig&, SessionConfig& c) { c.block_flagged = true; },
         false, &attack, false, Refusal::Refused},
        {"quarantine",
         [](ServiceConfig&, SessionConfig& c) {
             c.adaptive.bands = {AdaptivePolicy::Band{0.25, 1.0, true, true}};
             c.adaptive.min_screened = 1;
         },
         false, &attack, false, Refusal::Refused},
        {"session rate", [](ServiceConfig&, SessionConfig& c) { c.rate.burst = 1.0; }, false,
         &fresh, false, Refusal::Limited},
        {"source rate",
         [](ServiceConfig& s, SessionConfig&) { s.attribution.source_rate.burst = 1.0; }, false,
         &fresh, false, Refusal::Limited},
        {"budget on a miss", [](ServiceConfig&, SessionConfig& c) { c.budget.max_inference = 1; },
         false, &fresh, false, Refusal::OverBudget},
        {"budget on a cache hit",
         [](ServiceConfig&, SessionConfig& c) { c.budget.max_inference = 1; }, false, &primed,
         false, Refusal::OverBudget},
        {"shutdown", [](ServiceConfig&, SessionConfig&) {}, true, &fresh, false, Refusal::Closed},
    };

    for (const Case& c : cases) {
        SCOPED_TRACE(c.stage);
        CrossbarOracle backend = make_oracle(net);
        const sidechannel::CurrentSignatureDetector detector(backend.hardware_for_evaluation(),
                                                             enrollment);
        ServiceConfig service_config;
        service_config.cache.enabled = true;
        service_config.attribution.enabled = true;
        service_config.attribution.source_rate = RateLimit{1.0, 8.0};
        service_config.attribution.source_clock = frozen_clock;
        SessionConfig session_config;
        session_config.budget.max_inference = 4;
        session_config.budget.max_power = 4;
        session_config.rate = RateLimit{1.0, 8.0};
        session_config.rate_clock = frozen_clock;
        session_config.detector = &detector;
        session_config.source = 7;
        c.adjust(service_config, session_config);

        OracleService service(backend, service_config);
        Session session = service.open_session(session_config);
        (void)session.submit_label(primed).get();  // a miss, now cached
        if (c.shut_down) service.shutdown();

        const AdmissionSnapshot before = snapshot(service, session);
        ASSERT_EQ(before.counted.inference, 1u);
        ASSERT_EQ(before.cache_misses, 1u);
        try {
            if (c.power) {
                (void)session.submit_power(*c.input);
            } else {
                (void)session.submit_label(*c.input);
            }
            ADD_FAILURE() << "submission was admitted";
        } catch (const AccessDenied&) {
            EXPECT_EQ(c.expect, Refusal::Denied);
        } catch (const QueryRefused&) {
            EXPECT_EQ(c.expect, Refusal::Refused);
        } catch (const RateLimited&) {
            EXPECT_EQ(c.expect, Refusal::Limited);
        } catch (const QueryBudgetExceeded&) {
            EXPECT_EQ(c.expect, Refusal::OverBudget);
        } catch (const SessionClosed&) {
            EXPECT_EQ(c.expect, Refusal::Closed);
        }
        const AdmissionSnapshot after = snapshot(service, session);
        EXPECT_EQ(after.session_tokens, before.session_tokens);
        EXPECT_EQ(after.source_tokens, before.source_tokens);
        EXPECT_EQ(after.spent.inference, before.spent.inference);
        EXPECT_EQ(after.spent.power, before.spent.power);
        EXPECT_EQ(after.counted.inference, before.counted.inference);
        EXPECT_EQ(after.counted.power, before.counted.power);
        EXPECT_EQ(after.replica.inference, before.replica.inference);
        EXPECT_EQ(after.replica.power, before.replica.power);
        EXPECT_EQ(after.cache_hits, before.cache_hits);
        EXPECT_EQ(after.cache_misses, before.cache_misses);
    }
}

TEST(Service, SessionExposureOptionsDenyAtSubmit) {
    Rng rng(9);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    SessionConfig config;
    config.expose_raw_outputs = false;
    config.expose_power = false;
    Session session = service.open_session(config);
    const tensor::Vector u(net.inputs(), 0.5);

    EXPECT_THROW(session.submit_raw(u), AccessDenied);
    EXPECT_THROW(session.submit_power(u), AccessDenied);
    EXPECT_NO_THROW(session.submit_label(u).get());
    EXPECT_EQ(backend.counters().power, 0u);
}

TEST(Service, SessionNoiseIsDeterministicInTheSessionOrdinal) {
    Rng rng(10);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    SessionConfig config;
    config.power_noise_sigma = 0.25;
    config.noise_seed = 77;
    Session session = service.open_session(config);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 6, net.inputs());

    const tensor::Vector clean = backend.query_power_batch(U);
    const tensor::Vector noisy = session.submit_power_batch(U).get();
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_DOUBLE_EQ(noisy[r], clean[r] + 0.25 * Rng::normal_at(77, r, 0)) << "row " << r;
    }
    // Scalar follow-up continues the same ordinal stream.
    const double p = session.submit_power(U.row(0)).get();
    EXPECT_DOUBLE_EQ(p, clean[0] + 0.25 * Rng::normal_at(77, U.rows(), 0));
}

// ---- counters ---------------------------------------------------------------

TEST(Service, CountersAggregateAcrossSessionsAndReset) {
    Rng rng(11);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session a = service.open_session();
    Session b = service.open_session();
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 5, net.inputs());

    (void)a.submit_labels(U).get();
    (void)b.submit_power_batch(U).get();
    EXPECT_EQ(a.counters().inference, 5u);
    EXPECT_EQ(a.counters().power, 0u);
    EXPECT_EQ(b.counters().power, 5u);
    EXPECT_EQ(service.counters().inference, 5u);
    EXPECT_EQ(service.counters().power, 5u);
    EXPECT_EQ(service.counters().total(), 10u);

    service.reset_counters();
    EXPECT_EQ(service.counters().total(), 0u);
    EXPECT_EQ(a.counters().inference, 5u);  // per-tenant state survives service reset
    a.reset_counters();
    EXPECT_EQ(a.counters().inference, 0u);
    // An unlimited session has no ledger to keep (the fast path skips
    // it); counters() is the telemetry for such sessions.
    EXPECT_EQ(a.budget_spent().inference, 0u);
}

TEST(QueryCountersTotal, SaturatesInsteadOfWrapping) {
    QueryCounters c;
    c.inference = ~std::uint64_t{0} - 3;
    c.power = 10;
    EXPECT_EQ(c.total(), ~std::uint64_t{0});
    c.power = 3;
    EXPECT_EQ(c.total(), ~std::uint64_t{0});
    c.inference = 7;
    EXPECT_EQ(c.total(), 10u);
}

TEST(QueryCountersTotal, FleetAggregateSaturatesNearMax) {
    // The fleet aggregate (OracleService::counters()) accumulates
    // per-replica buckets with add_saturating: near-max replicas must
    // clamp, not wrap — a wrapped aggregate would break total()'s
    // monotonicity contract.
    const std::uint64_t max = ~std::uint64_t{0};
    QueryCounters fleet;
    QueryCounters replica;
    replica.inference = max - 5;
    replica.power = max - 2;
    fleet.add_saturating(replica);
    EXPECT_EQ(fleet.inference, max - 5);
    EXPECT_EQ(fleet.power, max - 2);
    QueryCounters more;
    more.inference = 3;  // fits: no clamp
    more.power = 7;      // would wrap: clamps to max
    fleet.add_saturating(more);
    EXPECT_EQ(fleet.inference, max - 2);
    EXPECT_EQ(fleet.power, max);
    EXPECT_EQ(fleet.total(), max);
    // Saturated buckets stay pinned under further accumulation.
    fleet.add_saturating(more);
    EXPECT_EQ(fleet.inference, max);
    EXPECT_EQ(fleet.power, max);
    EXPECT_EQ(QueryCounters::saturating_add(max, max), max);
}

// ---- lifecycle --------------------------------------------------------------

TEST(Service, ClosedSessionRejectsNewSubmissions) {
    Rng rng(12);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session session = service.open_session();
    const tensor::Vector u(net.inputs(), 0.5);
    (void)session.submit_label(u).get();
    session.close();
    EXPECT_FALSE(session.open());
    EXPECT_THROW(session.submit_label(u), SessionClosed);
    EXPECT_EQ(session.counters().inference, 1u);  // state survives close
}

TEST(Service, DestructionDrainsPendingSubmissions) {
    Rng rng(13);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle inner = make_oracle(net);
    GatedOracle backend(inner);
    const tensor::Vector u(net.inputs(), 0.5);
    tensor::Matrix U = tensor::Matrix::random_uniform(rng, 12, net.inputs());
    std::future<int> first;
    std::future<std::vector<int>> pending;
    Session probe;
    std::vector<std::future<int>> probes;
    std::thread releaser;
    {
        OracleService service(backend);
        Session session = service.open_session();
        probe = service.open_session();
        backend.hold();
        first = session.submit_label(u);
        ASSERT_TRUE(backend.wait_until_held());
        pending = session.submit_labels(U);  // queued behind the held call
        // Open the gate only once shutdown is visible (a submission is
        // refused), so U is still queued when the destructor stops the
        // replica: the flusher must drain it before it returns.
        releaser = std::thread([&] {
            for (;;) {
                try {
                    probes.push_back(probe.submit_label(u));
                } catch (const SessionClosed&) {
                    break;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            backend.release();
        });
    }
    releaser.join();
    // An undrained unit would leave its future pending for good.
    ASSERT_EQ(pending.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    (void)first.get();
    EXPECT_EQ(pending.get().size(), 12u);
    for (auto& f : probes) (void)f.get();  // queued before the stop: drained too
    const std::vector<std::size_t> rows = backend.batch_rows();
    ASSERT_GE(rows.size(), 2u);
    EXPECT_EQ(rows.front(), 1u);
    EXPECT_EQ(std::accumulate(rows.begin() + 1, rows.end(), std::size_t{0}),
              12u + probes.size());
    EXPECT_EQ(inner.counters().inference, 13u + probes.size());
}

TEST(Service, MoveAssignClosesDisplacedSessionAndRebindsOracleView) {
    Rng rng(14);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    const tensor::Vector u(net.inputs(), 0.5);

    Session session = service.open_session();
    Oracle& view = session.oracle();  // reference taken BEFORE the move
    (void)view.query_label(u);
    const std::uint64_t displaced_id = session.id();

    session = service.open_session();
    EXPECT_NE(session.id(), displaced_id);
    EXPECT_TRUE(session.open());

    // Both the handle and the pre-move Oracle& must drive the NEW
    // session: the old view state is gone, not dangling.
    (void)session.submit_label(u).get();
    (void)view.query_label(u);
    EXPECT_EQ(session.counters().inference, 2u);

    // Move-assigning an empty session over an open one closes it and
    // invalidates the view path cleanly.
    session = Session();
    EXPECT_FALSE(session.open());
    EXPECT_THROW(session.oracle(), SessionClosed);
}

TEST(Service, MoveAssignedOverSessionIsClosedOnTheService) {
    Rng rng(15);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);

    Session a = service.open_session();
    Session b = service.open_session();
    const std::uint64_t open_before = service.sessions_opened();
    a = std::move(b);  // the session a held must be closed, not leaked open
    EXPECT_TRUE(a.open());
    EXPECT_EQ(service.sessions_opened(), open_before);
    (void)a.submit_label(tensor::Vector(net.inputs(), 0.5)).get();
}

TEST(Service, ConfigValidationThrowsConfigErrorAtConstruction) {
    Rng rng(16);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    {
        ServiceConfig config;
        config.max_batch = 0;
        EXPECT_THROW(OracleService(backend, config), ConfigError);
    }
    {
        ServiceConfig config;
        config.cache.enabled = true;
        config.cache.capacity = 0;
        EXPECT_THROW(OracleService(backend, config), ConfigError);
    }
}

TEST(Service, IdleReplicaFlushesImmediately) {
    // The default service is work-conserving: an idle replica flushes a
    // lone submission at once instead of waiting for partners (and the
    // flusher must not spin hot while idle — the submissions below would
    // hang or starve if it did).
    Rng rng(17);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session session = service.open_session();
    const tensor::Vector u(net.inputs(), 0.5);
    for (int i = 0; i < 32; ++i) EXPECT_EQ(session.submit_label(u).get(), backend.query_label(u));
    EXPECT_EQ(service.flushed_batches(), 32u);
}

TEST(Service, ReplicaTelemetryAccessorsBoundsCheck) {
    Rng rng(18);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle r0 = make_oracle(net);
    CrossbarOracle r1 = make_oracle(net);
    OracleService service(std::vector<Oracle*>{&r0, &r1});
    (void)service.replica_counters(1);
    (void)service.flushed_batches(1);
    (void)service.flushed_rows(1);
    (void)service.queue_depth(1);
    EXPECT_THROW(service.replica_counters(2), ConfigError);
    EXPECT_THROW(service.flushed_batches(2), ConfigError);
    EXPECT_THROW(service.flushed_rows(2), ConfigError);
    EXPECT_THROW(service.queue_depth(2), ConfigError);
}

}  // namespace
}  // namespace xbarsec::core
