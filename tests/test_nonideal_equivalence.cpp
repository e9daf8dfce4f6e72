// Equivalence suite for the vectorized non-ideal crossbar paths (PR 3).
//
// The batched kernels fold line-resistance attenuation and stuck-cell
// faults into the programmed-conductance caches and draw read noise from
// the counter-based stream. These tests pin them to the retained per-cell
// reference simulation (output_currents_reference & friends): exact — up
// to floating-point summation reordering — for the line-resistance and
// stuck-cell paths, and exact at fixed seed for read noise too, because
// reference and fast paths consume identical (seed, measurement, element)
// noise coordinates. A separate statistical check bounds the realised
// noise spread. Runs across all four paper array shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "xbarsec/core/oracle.hpp"
#include "xbarsec/stats/descriptive.hpp"
#include "xbarsec/tensor/ops.hpp"
#include "xbarsec/xbar/crossbar.hpp"
#include "xbarsec/xbar/xbar_network.hpp"

namespace xbarsec::xbar {
namespace {

struct Shape {
    std::size_t rows;
    std::size_t cols;
};

/// The four deployed-array shapes of the paper's experiments: the MNIST
/// and CIFAR heads, a ragged small array, and a many-output array (which
/// exercises the row-stable GEMM where plain gemm() would send small
/// batches down its wide-flat route).
const Shape kPaperShapes[] = {{10, 784}, {10, 3072}, {7, 33}, {64, 8}};

DeviceSpec spec() {
    DeviceSpec s;
    s.g_on_max = 100e-6;
    return s;
}

tensor::Matrix weights(const Shape& shape, std::uint64_t seed) {
    Rng rng(seed);
    return tensor::Matrix::random_normal(rng, shape.rows, shape.cols);
}

/// Query batch with awkward structure: a zero row, zeroed entries, and
/// otherwise random voltages — the reference loop's v==0 skips must not
/// matter.
tensor::Matrix query_batch(std::size_t batch, std::size_t cols, std::uint64_t seed) {
    Rng rng(seed);
    tensor::Matrix V = tensor::Matrix::random_uniform(rng, batch, cols);
    for (std::size_t j = 0; j < cols; ++j) V(0, j) = 0.0;
    for (std::size_t r = 0; r < batch; ++r) V(r, r % cols) = 0.0;
    return V;
}

void expect_close(double actual, double expected, const char* what) {
    EXPECT_NEAR(actual, expected, 1e-9 * std::abs(expected) + 1e-16) << what;
}

/// Drives a fresh crossbar through the batched paths and an identically
/// configured fresh crossbar through the per-vector reference paths, and
/// requires matching outputs. Both sides consume identical measurement
/// counters, so this is exact under read noise too.
void check_equivalence(const Shape& shape, const NonIdealityConfig& nonideal,
                       std::uint64_t seed) {
    const tensor::Matrix W = weights(shape, seed);
    const Crossbar fast(map_weights(W, spec()), nonideal);
    const Crossbar reference(map_weights(W, spec()), nonideal);
    const tensor::Matrix V = query_batch(9, shape.cols, seed + 1);

    const tensor::Matrix batched = fast.output_currents_batch(V);
    for (std::size_t r = 0; r < V.rows(); ++r) {
        const tensor::Vector ref = reference.output_currents_reference(V.row(r));
        for (std::size_t i = 0; i < shape.rows; ++i) {
            expect_close(batched(r, i), ref[i], "output_currents_batch");
        }
    }

    const tensor::Vector totals = fast.total_current_batch(V);
    for (std::size_t r = 0; r < V.rows(); ++r) {
        expect_close(totals[r], reference.total_current_reference(V.row(r)),
                     "total_current_batch");
    }

    for (std::size_t r = 0; r < 3; ++r) {
        expect_close(fast.static_power(V.row(r)), reference.static_power_reference(V.row(r)),
                     "static_power");
    }
}

NonIdealityConfig with_line_resistance(double r) {
    NonIdealityConfig c;
    c.line_resistance = r;
    return c;
}

TEST(NonIdealEquivalence, LineResistanceMatchesReference) {
    std::uint64_t seed = 100;
    for (const Shape& shape : kPaperShapes) {
        for (const double r_line : {10.0, 50.0, 500.0}) {
            check_equivalence(shape, with_line_resistance(r_line), seed++);
        }
    }
}

TEST(NonIdealEquivalence, StuckCellsMatchReference) {
    std::uint64_t seed = 200;
    for (const Shape& shape : kPaperShapes) {
        NonIdealityConfig c;
        c.stuck_on_fraction = 0.03;
        c.stuck_off_fraction = 0.05;
        c.seed = 77 + seed;
        check_equivalence(shape, c, seed++);
    }
}

TEST(NonIdealEquivalence, LineResistancePlusStuckCellsMatchReference) {
    std::uint64_t seed = 300;
    for (const Shape& shape : kPaperShapes) {
        NonIdealityConfig c;
        c.line_resistance = 50.0;
        c.stuck_on_fraction = 0.02;
        c.stuck_off_fraction = 0.02;
        c.seed = 9 + seed;
        check_equivalence(shape, c, seed++);
    }
}

TEST(NonIdealEquivalence, ReadNoiseAtFixedSeedIsExact) {
    // Same (seed, measurement, element) coordinates on both sides ⇒ the
    // noise factors cancel and the comparison stays exact.
    std::uint64_t seed = 400;
    for (const Shape& shape : kPaperShapes) {
        NonIdealityConfig c;
        c.read_noise_std = 0.05;
        c.seed = 1234 + seed;
        check_equivalence(shape, c, seed++);
    }
}

TEST(NonIdealEquivalence, AllNonIdealitiesCombinedMatchReference) {
    std::uint64_t seed = 500;
    for (const Shape& shape : kPaperShapes) {
        NonIdealityConfig c;
        c.read_noise_std = 0.1;
        c.line_resistance = 100.0;
        c.stuck_on_fraction = 0.02;
        c.stuck_off_fraction = 0.03;
        c.seed = 4321 + seed;
        check_equivalence(shape, c, seed++);
    }
}

TEST(NonIdealEquivalence, BatchedReadNoiseSpreadIsStatisticallyBounded) {
    // The counter stream must still realise the configured relative
    // spread: 4096 batched readings of one input behave like independent
    // N(1, std) scalings.
    const tensor::Matrix W = weights({10, 64}, 42);
    NonIdealityConfig c;
    c.read_noise_std = 0.05;
    c.seed = 99;
    const Crossbar xbar(map_weights(W, spec()), c);
    const Crossbar clean(map_weights(W, spec()));

    const std::size_t reps = 4096;
    tensor::Matrix V(reps, 64);
    Rng rng(5);
    const tensor::Vector u = tensor::Vector::random_uniform(rng, 64);
    for (std::size_t r = 0; r < reps; ++r) {
        auto row = V.row_span(r);
        for (std::size_t j = 0; j < 64; ++j) row[j] = u[j];
    }
    const tensor::Vector readings = xbar.total_current_batch(V);
    const double truth = clean.total_current(u);
    std::vector<double> values(readings.begin(), readings.end());
    const stats::Summary s = stats::summarize(values);
    EXPECT_NEAR(s.mean, truth, 0.01 * std::abs(truth));
    EXPECT_NEAR(s.stddev / std::abs(truth), c.read_noise_std, 0.2 * c.read_noise_std);
}

TEST(NonIdealEquivalence, OraclePowerBatchMatchesReferenceUnderLineResistance) {
    // End-to-end through the attacker-facing API: query_power_batch on a
    // non-ideal deployment equals the per-cell reference divided by the
    // weight scale.
    Rng rng(7);
    nn::SingleLayerNet net(rng, 33, 7, nn::Activation::Linear, nn::Loss::Mse);
    NonIdealityConfig c;
    c.line_resistance = 50.0;
    c.stuck_off_fraction = 0.01;
    core::CrossbarOracle oracle(CrossbarNetwork(net, spec(), c));
    const CrossbarNetwork reference_hw(net, spec(), c);

    const tensor::Matrix U = query_batch(9, 33, 11);
    const tensor::Vector p = oracle.query_power_batch(U);
    const double scale = reference_hw.crossbar().program().weight_scale;
    for (std::size_t r = 0; r < U.rows(); ++r) {
        const double ref = reference_hw.crossbar().total_current_reference(U.row(r)) / scale;
        expect_close(p[r], ref, "query_power_batch");
    }
}

TEST(NonIdealEquivalence, OracleRawBatchMatchesReferenceUnderLineResistance) {
    Rng rng(8);
    nn::SingleLayerNet net(rng, 33, 7, nn::Activation::Linear, nn::Loss::Mse);
    NonIdealityConfig c;
    c.line_resistance = 25.0;
    core::CrossbarOracle oracle(CrossbarNetwork(net, spec(), c));
    const CrossbarNetwork reference_hw(net, spec(), c);

    const tensor::Matrix U = query_batch(6, 33, 12);
    const tensor::Matrix Y = oracle.query_raw_batch(U);
    const double scale = reference_hw.crossbar().program().weight_scale;
    for (std::size_t r = 0; r < U.rows(); ++r) {
        tensor::Vector ref = reference_hw.crossbar().output_currents_reference(U.row(r));
        ref /= scale;  // linear activation: prediction == scaled currents
        for (std::size_t i = 0; i < ref.size(); ++i) {
            expect_close(Y(r, i), ref[i], "query_raw_batch");
        }
    }
}

}  // namespace
}  // namespace xbarsec::xbar
