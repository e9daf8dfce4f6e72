// Tests for the polymorphic Oracle API: batched-vs-scalar equivalence,
// SoftwareOracle/CrossbarOracle agreement, thread-pool batching, atomic
// counter accounting, and the composable physical-defense decorators.
#include <gtest/gtest.h>

#include <cmath>

#include "xbarsec/core/decorators.hpp"
#include "xbarsec/core/oracle.hpp"
#include "xbarsec/core/queries.hpp"
#include "xbarsec/data/synthetic_mnist.hpp"
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

tensor::Matrix random_batch(Rng& rng, std::size_t rows, std::size_t cols) {
    return tensor::Matrix::random_uniform(rng, rows, cols);
}

// ---- batched vs scalar equivalence ------------------------------------------

TEST(OracleBatch, LabelsMatchScalarQueries) {
    Rng rng(1);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle batched = make_oracle(net);
    CrossbarOracle scalar = make_oracle(net);
    const tensor::Matrix U = random_batch(rng, 50, net.inputs());

    const std::vector<int> batch_labels = batched.query_labels(U);
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_EQ(batch_labels[r], scalar.query_label(U.row(r)));
    }
}

TEST(OracleBatch, RawAndPowerMatchScalarWithin1e12) {
    Rng rng(2);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    const tensor::Matrix U = random_batch(rng, 40, net.inputs());

    const tensor::Matrix raw = oracle.query_raw_batch(U);
    const tensor::Vector power = oracle.query_power_batch(U);
    for (std::size_t r = 0; r < U.rows(); ++r) {
        const tensor::Vector y = oracle.query_raw(U.row(r));
        for (std::size_t c = 0; c < y.size(); ++c) EXPECT_NEAR(raw(r, c), y[c], 1e-12);
        EXPECT_NEAR(power[r], oracle.query_power(U.row(r)), 1e-12);
    }
}

TEST(OracleBatch, NoisyHardwareConsumesTheSameStreamBatchedOrScalar) {
    Rng rng(3);
    const nn::SingleLayerNet net = make_net(rng);
    xbar::NonIdealityConfig noisy;
    noisy.read_noise_std = 0.05;
    CrossbarOracle batched = make_oracle(net, {}, noisy);
    CrossbarOracle scalar = make_oracle(net, {}, noisy);
    const tensor::Matrix U = random_batch(rng, 16, net.inputs());

    const tensor::Vector batch_power = batched.query_power_batch(U);
    for (std::size_t r = 0; r < U.rows(); ++r) {
        // Same seed, same draw order: readings agree to FP re-association.
        const double rel = std::abs(batch_power[r] - scalar.query_power(U.row(r))) /
                           std::abs(batch_power[r]);
        EXPECT_LT(rel, 1e-10);
    }
}

TEST(OracleBatch, ThreadPoolBatchingIsDeterministic) {
    Rng rng(4);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle serial = make_oracle(net);
    CrossbarOracle pooled = make_oracle(net);
    ThreadPool pool(2);
    pooled.set_thread_pool(&pool);
    const tensor::Matrix U = random_batch(rng, 300, net.inputs());

    EXPECT_EQ(serial.query_labels(U), pooled.query_labels(U));
    const tensor::Vector a = serial.query_power_batch(U);
    const tensor::Vector b = pooled.query_power_batch(U);
    for (std::size_t r = 0; r < a.size(); ++r) EXPECT_DOUBLE_EQ(a[r], b[r]);
}

TEST(OracleBatch, IrDropFallbackMatchesScalarPath) {
    Rng rng(5);
    const nn::SingleLayerNet net = make_net(rng);
    xbar::NonIdealityConfig nonideal;
    nonideal.line_resistance = 10.0;
    CrossbarOracle batched = make_oracle(net, {}, nonideal);
    CrossbarOracle scalar = make_oracle(net, {}, nonideal);
    const tensor::Matrix U = random_batch(rng, 8, net.inputs());

    const std::vector<int> labels = batched.query_labels(U);
    const tensor::Vector power = batched.query_power_batch(U);
    for (std::size_t r = 0; r < U.rows(); ++r) {
        EXPECT_EQ(labels[r], scalar.query_label(U.row(r)));
        EXPECT_NEAR(power[r], scalar.query_power(U.row(r)), 1e-12);
    }
}

// ---- SoftwareOracle ---------------------------------------------------------

TEST(SoftwareOracle, AgreesWithIdealCrossbarOracle) {
    Rng rng(6);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle hw = make_oracle(net);
    SoftwareOracle sw(net);
    const tensor::Matrix U = random_batch(rng, 30, net.inputs());

    EXPECT_EQ(sw.query_labels(U), hw.query_labels(U));
    const tensor::Vector hw_power = hw.query_power_batch(U);
    const tensor::Vector sw_power = sw.query_power_batch(U);
    for (std::size_t r = 0; r < U.rows(); ++r) EXPECT_NEAR(sw_power[r], hw_power[r], 1e-9);
}

TEST(SoftwareOracle, CountsAndEnforcesAccess) {
    Rng rng(7);
    OracleOptions closed;
    closed.expose_power = false;
    SoftwareOracle oracle(make_net(rng), closed);
    const tensor::Matrix U = random_batch(rng, 4, oracle.inputs());
    EXPECT_EQ(oracle.query_labels(U).size(), 4u);
    EXPECT_THROW(oracle.query_power_batch(U), AccessDenied);
    EXPECT_EQ(oracle.counters().inference, 4u);
    EXPECT_EQ(oracle.counters().power, 0u);
}

// ---- counters ---------------------------------------------------------------

TEST(OracleCounters, BatchedQueriesCountPerRow) {
    Rng rng(8);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle oracle = make_oracle(net);
    const tensor::Matrix U = random_batch(rng, 17, net.inputs());
    oracle.query_labels(U);
    oracle.query_raw_batch(U);
    oracle.query_power_batch(U);
    EXPECT_EQ(oracle.counters().inference, 34u);
    EXPECT_EQ(oracle.counters().power, 17u);
    EXPECT_EQ(oracle.counters().total(), 51u);
}

TEST(OracleCounters, ConcurrentQueriesAreCountedExactly) {
    Rng rng(9);
    SoftwareOracle software(make_net(rng));
    const tensor::Vector u(software.inputs(), 0.25);
    ThreadPool pool(4);
    parallel_for(pool, 200, [&](std::size_t i) {
        // SoftwareOracle inference is stateless, so concurrent label
        // queries are safe; the counter must still be exact.
        (void)software.query_label(u);
        if (i % 2 == 0) (void)software.query_power(u);
    });
    EXPECT_EQ(software.counters().inference, 200u);
    EXPECT_EQ(software.counters().power, 100u);
}

TEST(OracleCounters, DecoratedPowerReadsCountExactlyOnce) {
    Rng rng(10);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);

    ObfuscationConfig dummies;
    dummies.kind = ObfuscationConfig::Kind::UniformDummy;
    dummies.magnitude = 1e-6;
    ObfuscatedOracle obfuscated(backend, dummies);
    NoisyPowerOracle noisy(obfuscated, 0.0);

    // A probe through a two-layer stack's power_measure_fn: one physical
    // measurement per column, counted once at the backend.
    const auto probe = probe_columns(noisy);
    EXPECT_EQ(probe.queries, backend.inputs());
    EXPECT_EQ(backend.counters().power, backend.inputs());
    EXPECT_EQ(noisy.counters().power, backend.inputs());  // delegates inward
}

// ---- decorators -------------------------------------------------------------

TEST(Decorators, UniformDummyShiftsPowerByLoadTimesInputSum) {
    Rng rng(11);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ObfuscationConfig config;
    config.kind = ObfuscationConfig::Kind::UniformDummy;
    config.magnitude = 0.125;
    ObfuscatedOracle defended(backend, config);

    const tensor::Vector u = tensor::Vector::random_uniform(rng, net.inputs());
    const double clean = backend.query_power(u);
    EXPECT_NEAR(defended.query_power(u), clean + 0.125 * tensor::sum(u), 1e-9);
}

TEST(Decorators, NoisyPowerWithZeroSigmaIsTransparent) {
    Rng rng(12);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    NoisyPowerOracle defended(backend, 0.0);
    const tensor::Vector u(net.inputs(), 0.5);
    EXPECT_DOUBLE_EQ(defended.query_power(u), backend.query_power(u));
    EXPECT_EQ(defended.query_label(u), backend.query_label(u));
    EXPECT_EQ(defended.inputs(), backend.inputs());
    EXPECT_EQ(defended.outputs(), backend.outputs());
}

TEST(Decorators, AccessControlPropagatesThroughTheStack) {
    Rng rng(13);
    OracleOptions closed;
    closed.expose_raw_outputs = false;
    CrossbarOracle backend = make_oracle(make_net(rng), closed);
    NoisyPowerOracle defended(backend, 0.0);
    EXPECT_THROW(defended.query_raw(tensor::Vector(backend.inputs(), 0.1)), AccessDenied);
}

TEST(DecoratorStack, BuildsOwnedChains) {
    Rng rng(19);
    CrossbarOracle backend = make_oracle(make_net(rng));
    DecoratorStack stack(backend);
    EXPECT_EQ(&stack.top(), &backend);

    stack.push<NoisyPowerOracle>(0.0);
    ObfuscationConfig dither;
    dither.kind = ObfuscationConfig::Kind::Dither;
    stack.push<ObfuscatedOracle>(dither);
    EXPECT_EQ(stack.depth(), 2u);
    EXPECT_NE(&stack.top(), static_cast<Oracle*>(&backend));

    // Each query through the chain is counted once, at the backend.
    const tensor::Vector u(backend.inputs(), 0.5);
    EXPECT_NO_THROW(stack.top().query_power(u));
    EXPECT_NO_THROW(stack.top().query_power(u));
    EXPECT_EQ(backend.counters().power, 2u);
    EXPECT_EQ(stack.top().counters().power, 2u);
}

// ---- oracle-driven sidechannel entry points ---------------------------------

TEST(OracleBridges, FindArgmaxLocatesTheTopColumnThroughTheOracle) {
    Rng rng(20);
    const nn::SingleLayerNet net = make_net(rng, 16, 3);
    CrossbarOracle oracle = make_oracle(net);
    const tensor::Vector l1 = tensor::column_abs_sums(net.weights());
    const auto result = find_argmax(oracle, data::ImageShape{4, 4, 1},
                                    sidechannel::SearchStrategy::FullScan);
    EXPECT_EQ(result.best_index, tensor::argmax(l1));
    EXPECT_EQ(oracle.counters().power, 16u);
}

}  // namespace
}  // namespace xbarsec::core
