// Single-pixel (Figure 4) and multi-pixel (Section III remark) attack
// tests.
#include <gtest/gtest.h>

#include <cmath>

#include "xbarsec/attack/multi_pixel.hpp"
#include "xbarsec/attack/single_pixel.hpp"
#include "xbarsec/common/error.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::attack {
namespace {

nn::SingleLayerNet diag_net() {
    // Transparent 3-input/2-output network for exact expectations.
    nn::DenseLayer layer(2, 3);
    layer.weights() = tensor::Matrix{{1.0, 0.0, 0.2}, {0.0, -3.0, 0.1}};
    return nn::SingleLayerNet(std::move(layer), nn::Activation::Linear, nn::Loss::Mse);
}

TEST(SinglePixel, MethodLabelsMatchThePaperLegend) {
    EXPECT_EQ(to_string(SinglePixelMethod::RandomPixel), "RP");
    EXPECT_EQ(to_string(SinglePixelMethod::PowerAdd), "+");
    EXPECT_EQ(to_string(SinglePixelMethod::PowerSub), "-");
    EXPECT_EQ(to_string(SinglePixelMethod::PowerRandomDir), "RD");
    EXPECT_EQ(to_string(SinglePixelMethod::WorstCase), "Worst");
    EXPECT_EQ(all_single_pixel_methods().size(), 5u);
}

TEST(SinglePixel, PowerMethodsHitTheLargestL1Column) {
    const nn::SingleLayerNet net = diag_net();
    // Column 1-norms: {1.0, 3.0, 0.3} → pixel 1 is the target.
    const tensor::Vector l1 = tensor::column_abs_sums(net.weights());
    const tensor::Vector u{0.5, 0.5, 0.5};
    const tensor::Vector t{1.0, 0.0};
    Rng rng(1);

    const tensor::Vector add =
        attack_single_pixel(SinglePixelMethod::PowerAdd, u, t, 2.0, &l1, nullptr, rng);
    EXPECT_DOUBLE_EQ(add[1], 2.5);
    EXPECT_DOUBLE_EQ(add[0], 0.5);

    const tensor::Vector sub =
        attack_single_pixel(SinglePixelMethod::PowerSub, u, t, 2.0, &l1, nullptr, rng);
    EXPECT_DOUBLE_EQ(sub[1], -1.5);

    const tensor::Vector rd =
        attack_single_pixel(SinglePixelMethod::PowerRandomDir, u, t, 2.0, &l1, nullptr, rng);
    EXPECT_DOUBLE_EQ(std::abs(rd[1] - 0.5), 2.0);
}

TEST(SinglePixel, WorstCaseFollowsTheGradient) {
    const nn::SingleLayerNet net = diag_net();
    const tensor::Vector u{0.5, 0.5, 0.5};
    const tensor::Vector t{1.0, 0.0};
    Rng rng(2);
    const tensor::Vector adv =
        attack_single_pixel(SinglePixelMethod::WorstCase, u, t, 1.0, nullptr, &net, rng);
    // The most sensitive pixel is argmax |∂L/∂u| and it moves along the
    // gradient sign.
    const tensor::Vector g = net.input_gradient(u, t);
    const std::size_t j = tensor::argmax(tensor::abs(g));
    EXPECT_NE(adv[j], u[j]);
    EXPECT_EQ(adv[j] > u[j], g[j] > 0.0);
    // Other pixels untouched.
    for (std::size_t k = 0; k < 3; ++k) {
        if (k != j) {
            EXPECT_DOUBLE_EQ(adv[k], u[k]);
        }
    }
}

TEST(SinglePixel, RandomPixelTouchesExactlyOnePixel) {
    const nn::SingleLayerNet net = diag_net();
    const tensor::Vector u{0.1, 0.2, 0.3};
    const tensor::Vector t{1.0, 0.0};
    Rng rng(3);
    for (int trial = 0; trial < 10; ++trial) {
        const tensor::Vector adv =
            attack_single_pixel(SinglePixelMethod::RandomPixel, u, t, 0.7, nullptr, nullptr, rng);
        int changed = 0;
        for (std::size_t j = 0; j < 3; ++j) {
            if (adv[j] != u[j]) {
                ++changed;
                EXPECT_NEAR(std::abs(adv[j] - u[j]), 0.7, 1e-12);
            }
        }
        EXPECT_EQ(changed, 1);
    }
}

TEST(SinglePixel, MissingSideInformationThrows) {
    const nn::SingleLayerNet net = diag_net();
    const tensor::Vector u{0, 0, 0};
    const tensor::Vector t{1, 0};
    Rng rng(4);
    EXPECT_THROW(attack_single_pixel(SinglePixelMethod::PowerAdd, u, t, 1.0, nullptr, &net, rng),
                 ConfigError);
    EXPECT_THROW(attack_single_pixel(SinglePixelMethod::WorstCase, u, t, 1.0, nullptr, nullptr, rng),
                 ConfigError);
}

TEST(SinglePixel, ZeroStrengthLeavesAccuracyUnchanged) {
    const nn::SingleLayerNet net = diag_net();
    tensor::Matrix inputs{{0.9, 0.0, 0.0}, {0.0, -0.9, 0.0}};
    const data::Dataset d(std::move(inputs), {0, 1}, 2, data::ImageShape{1, 3, 1});
    const tensor::Vector l1 = tensor::column_abs_sums(net.weights());
    Rng rng(5);
    const double clean = evaluate_single_pixel_attack(net, d, SinglePixelMethod::PowerAdd, 0.0,
                                                      &l1, rng);
    EXPECT_DOUBLE_EQ(clean, 1.0);
}

TEST(SinglePixel, WorstCaseMaximisesLossIncreaseAmongMethods) {
    // The "Worst" method's defining property is greedily ascending the
    // LOSS (Eq. 1-2), not directly flipping labels — with MSE it can even
    // reinforce a classification while raising the loss. Assert the loss
    // invariant: per sample, its loss increase beats the random-pixel
    // method's on average.
    Rng data_rng(6);
    const std::size_t n = 200;
    tensor::Matrix inputs(n, 3);
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int c = static_cast<int>(i % 2);
        inputs(i, 0) = c == 0 ? 0.8 + 0.1 * data_rng.uniform() : 0.1;
        inputs(i, 1) = c == 1 ? -0.8 - 0.1 * data_rng.uniform() : 0.1;
        inputs(i, 2) = data_rng.uniform();
        labels[i] = c;
    }
    const data::Dataset d(std::move(inputs), std::move(labels), 2, data::ImageShape{1, 3, 1});
    const nn::SingleLayerNet net = diag_net();
    Rng rng(7);
    double worst_gain = 0.0, rp_gain = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) {
        const tensor::Vector u = d.input(i);
        const tensor::Vector t = d.target(i);
        const double base = net.loss(u, t);
        const tensor::Vector adv_worst =
            attack_single_pixel(SinglePixelMethod::WorstCase, u, t, 2.0, nullptr, &net, rng);
        const tensor::Vector adv_rp =
            attack_single_pixel(SinglePixelMethod::RandomPixel, u, t, 2.0, nullptr, &net, rng);
        worst_gain += net.loss(adv_worst, t) - base;
        rp_gain += net.loss(adv_rp, t) - base;
    }
    EXPECT_GT(worst_gain, rp_gain);
    EXPECT_GT(worst_gain, 0.0);
}

TEST(MultiPixel, TopNIndicesAreSortedByRanking) {
    const tensor::Vector ranking{0.1, 0.9, 0.5, 0.7};
    const auto top = top_n_indices(ranking, 3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0], 1u);
    EXPECT_EQ(top[1], 3u);
    EXPECT_EQ(top[2], 2u);
    EXPECT_THROW(top_n_indices(ranking, 0), ContractViolation);
    EXPECT_THROW(top_n_indices(ranking, 5), ContractViolation);
}

TEST(MultiPixel, AllAddPerturbsEverySelectedPixel) {
    const nn::SingleLayerNet net = diag_net();
    const tensor::Vector u{0, 0, 0};
    const tensor::Vector t{1, 0};
    Rng rng(8);
    const tensor::Vector adv =
        attack_pixels(u, t, {0, 2}, 0.5, MultiPixelDirection::AllAdd, nullptr, rng);
    EXPECT_DOUBLE_EQ(adv[0], 0.5);
    EXPECT_DOUBLE_EQ(adv[1], 0.0);
    EXPECT_DOUBLE_EQ(adv[2], 0.5);
}

TEST(MultiPixel, OracleDirectionNeedsWhiteBox) {
    const tensor::Vector u{0, 0, 0};
    const tensor::Vector t{1, 0};
    Rng rng(9);
    EXPECT_THROW(attack_pixels(u, t, {0}, 0.5, MultiPixelDirection::Oracle, nullptr, rng),
                 ConfigError);
}

TEST(MultiPixel, RandomDirectionsTouchAllSelectedPixels) {
    const nn::SingleLayerNet net = diag_net();
    const tensor::Vector u{0, 0, 0};
    const tensor::Vector t{1, 0};
    Rng rng(10);
    const tensor::Vector adv =
        attack_pixels(u, t, {0, 1, 2}, 1.0, MultiPixelDirection::RandomPerPixel, &net, rng);
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(std::abs(adv[j]), 1.0, 1e-12);
}

TEST(MultiPixel, EvaluateRunsOverDataset) {
    const nn::SingleLayerNet net = diag_net();
    tensor::Matrix inputs{{0.9, 0.0, 0.0}, {0.0, -0.9, 0.0}};
    const data::Dataset d(std::move(inputs), {0, 1}, 2, data::ImageShape{1, 3, 1});
    const tensor::Vector l1 = tensor::column_abs_sums(net.weights());
    Rng rng(11);
    const double acc = evaluate_multi_pixel_attack(net, d, l1, 2, 0.0,
                                                   MultiPixelDirection::RandomPerPixel, rng);
    EXPECT_DOUBLE_EQ(acc, 1.0);  // zero strength cannot change labels
}

}  // namespace
}  // namespace xbarsec::attack
