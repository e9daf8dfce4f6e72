// Session isolation over one shared backend: budgets, detector windows,
// and per-session noise streams must not bleed between tenants, and a
// session's own stream must be bit-identical whether its submissions
// coalesced with other tenants' traffic or ran alone.
#include <gtest/gtest.h>

#include <future>

#include "service_test_oracles.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/core/service.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::core {
namespace {

xbar::DeviceSpec ideal_spec() {
    xbar::DeviceSpec s;
    s.g_on_max = 100e-6;
    return s;
}

nn::SingleLayerNet make_net(Rng& rng, std::size_t in = 16, std::size_t out = 3) {
    return nn::SingleLayerNet(rng, in, out, nn::Activation::Linear, nn::Loss::Mse);
}

CrossbarOracle make_oracle(const nn::SingleLayerNet& net) {
    return CrossbarOracle(xbar::CrossbarNetwork(net, ideal_spec()), {});
}

data::Dataset make_enrollment(Rng& rng, std::size_t n = 120, std::size_t dim = 16) {
    tensor::Matrix clean = tensor::Matrix::random_uniform(rng, n, dim);
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 3);
    return data::Dataset(std::move(clean), std::move(labels), 3, data::ImageShape{4, 4, 1});
}

TEST(SessionIsolation, BudgetsDoNotBleedBetweenSessions) {
    Rng rng(1);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    SessionConfig capped;
    capped.budget.max_power = 3;
    Session a = service.open_session(capped);
    Session b = service.open_session();  // unlimited
    const tensor::Vector u(net.inputs(), 0.5);

    for (int i = 0; i < 3; ++i) (void)a.submit_power(u).get();
    EXPECT_THROW(a.submit_power(u), QueryBudgetExceeded);
    // B's service is unaffected by A's exhaustion, in both directions.
    for (int i = 0; i < 10; ++i) EXPECT_NO_THROW((void)b.submit_power(u).get());
    EXPECT_THROW(a.submit_power(u), QueryBudgetExceeded);
    EXPECT_EQ(a.budget_spent().power, 3u);
    EXPECT_EQ(b.counters().power, 10u);  // unlimited sessions keep no ledger
    EXPECT_EQ(backend.counters().power, 13u);
}

TEST(SessionIsolation, DetectorWindowsDoNotBleedBetweenSessions) {
    Rng rng(2);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    const data::Dataset enrollment = make_enrollment(rng);
    const sidechannel::CurrentSignatureDetector detector(backend.hardware_for_evaluation(),
                                                         enrollment);
    OracleService service(backend);
    SessionConfig guarded;
    guarded.detector = &detector;
    guarded.block_flagged = false;
    Session attacker = service.open_session(guarded);
    Session benign = service.open_session(guarded);

    tensor::Vector attack(net.inputs(), 0.2);
    attack[3] = 50.0;
    ASSERT_TRUE(detector.is_adversarial(attack));
    const tensor::Vector clean(net.inputs(), 0.2);

    for (int i = 0; i < 4; ++i) (void)attacker.submit_label(attack).get();
    for (int i = 0; i < 8; ++i) (void)benign.submit_label(clean).get();

    EXPECT_EQ(attacker.screened(), 4u);
    EXPECT_EQ(attacker.flagged(), 4u);
    EXPECT_DOUBLE_EQ(attacker.flagged_fraction(), 1.0);
    EXPECT_EQ(benign.screened(), 8u);   // only its own traffic
    EXPECT_EQ(benign.flagged(), 0u);    // the attacker's flags stayed put
}

TEST(SessionIsolation, BlockingDetectorRefusesOnlyTheOffendingSession) {
    Rng rng(3);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    const data::Dataset enrollment = make_enrollment(rng);
    const sidechannel::CurrentSignatureDetector detector(backend.hardware_for_evaluation(),
                                                         enrollment);
    OracleService service(backend);
    SessionConfig blocking;
    blocking.detector = &detector;
    blocking.block_flagged = true;
    Session attacker = service.open_session(blocking);
    Session benign = service.open_session(blocking);

    tensor::Vector attack(net.inputs(), 0.2);
    attack[3] = 50.0;
    EXPECT_THROW(attacker.submit_label(attack), QueryRefused);
    EXPECT_NO_THROW((void)benign.submit_label(tensor::Vector(net.inputs(), 0.2)).get());
    // The refused query never reached the backend and was never counted
    // or charged for the attacker.
    EXPECT_EQ(backend.counters().inference, 1u);
    EXPECT_EQ(attacker.counters().inference, 0u);
}

TEST(SessionIsolation, SharedBlockingDefenseFailsOnlyTheOffendingSubmission) {
    // A shared backend below the service that refuses one input: when the
    // coalescer merges tenants' submissions into one backend batch and
    // the backend refuses it, the group falls back to per-unit calls —
    // innocent tenants' queries still get answers, as they would under
    // serial issue. A held first query makes the three submissions behind
    // it merge.
    Rng rng(6);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    tensor::Vector attack(net.inputs(), 0.2);
    attack[3] = 50.0;
    const tensor::Vector clean(net.inputs(), 0.2);
    RefusingOracle guard(backend, attack);
    GatedOracle gated(guard);
    OracleService service(gated);
    Session a = service.open_session();
    Session b = service.open_session();

    gated.hold();
    auto first = a.submit_label(clean);
    ASSERT_TRUE(gated.wait_until_held());
    auto before = a.submit_label(clean);
    auto refused = b.submit_label(attack);
    auto after = a.submit_label(clean);
    gated.release();

    EXPECT_NO_THROW((void)first.get());
    EXPECT_NO_THROW((void)before.get());
    EXPECT_THROW((void)refused.get(), QueryRefused);
    EXPECT_NO_THROW((void)after.get());
    // The held query, then the merged group of three (refused whole by
    // the shared backend), then its per-unit fallback.
    EXPECT_EQ(gated.batch_rows(), (std::vector<std::size_t>{1, 3, 1, 1, 1}));
    // Only the clean queries reached the backend.
    EXPECT_EQ(backend.counters().inference, 3u);
}

TEST(SessionIsolation, NoiseStreamsAreSessionPrivateAndInterleavingInvariant) {
    Rng rng(4);
    const nn::SingleLayerNet net = make_net(rng);
    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 12, net.inputs());

    SessionConfig noisy_a;
    noisy_a.power_noise_sigma = 0.5;
    noisy_a.noise_seed = 11;
    SessionConfig noisy_b = noisy_a;
    noisy_b.noise_seed = 22;

    // Reference: A alone on its own service, issued serially.
    CrossbarOracle ref_backend = make_oracle(net);
    OracleService ref_service(ref_backend);
    Session ref_a = ref_service.open_session(noisy_a);
    std::vector<double> alone;
    for (std::size_t r = 0; r < U.rows(); ++r) {
        alone.push_back(ref_a.submit_power(U.row(r)).get());
    }

    // Same stream with B's traffic interleaved between every A query.
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session a = service.open_session(noisy_a);
    Session b = service.open_session(noisy_b);
    for (std::size_t r = 0; r < U.rows(); ++r) {
        const double pa = a.submit_power(U.row(r)).get();
        const double pb = b.submit_power(U.row(r)).get();
        EXPECT_DOUBLE_EQ(pa, alone[r]) << "row " << r;
        EXPECT_NE(pa, pb);  // different seeds, same clean reading
    }
}

TEST(SessionIsolation, SessionEntryPointsApplySessionPolicy) {
    // probe_columns(Session&) rides the session's budget.
    Rng rng(5);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    SessionConfig capped;
    capped.budget.max_power = net.inputs() * 2;
    Session session = service.open_session(capped);

    const auto probe = probe_columns(session);  // one basis sweep fits
    EXPECT_EQ(probe.queries, net.inputs());
    EXPECT_EQ(session.budget_spent().power, net.inputs());
    sidechannel::ProbeOptions big;
    big.repeats = 4;  // 4 sweeps would cross the remaining budget
    EXPECT_THROW(probe_columns(session, big), QueryBudgetExceeded);
}

}  // namespace
}  // namespace xbarsec::core
