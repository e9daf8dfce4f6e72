// Microbenchmarks: throughput of the simulator's hot paths at the paper's
// array sizes (10×784 MNIST, 10×3072 CIFAR). Hand-rolled harness (no
// external benchmark dependency) emitting BENCH_micro.json through the
// shared recorder.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>

#include "record.hpp"
#include "xbarsec/common/cli.hpp"
#include "xbarsec/common/rng.hpp"
#include "xbarsec/common/table.hpp"
#include "xbarsec/common/timer.hpp"
#include "xbarsec/nn/trainer.hpp"
#include "xbarsec/sidechannel/probe.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/ops.hpp"
#include "xbarsec/xbar/crossbar.hpp"

using namespace xbarsec;

namespace {

xbar::Crossbar make_crossbar(std::size_t rows, std::size_t cols) {
    Rng rng(1);
    xbar::DeviceSpec spec;
    spec.g_on_max = 100e-6;
    const tensor::Matrix W = tensor::Matrix::random_normal(rng, rows, cols);
    return xbar::Crossbar(map_weights(W, spec));
}

struct Harness {
    Table table{{"Benchmark", "ns/op", "Mitems/s"}};
    bench::BenchRecorder rec;
    double min_seconds;
    std::size_t reps;

    Harness(std::string setup, double min_secs, std::size_t reps_)
        : rec("micro", std::move(setup)), min_seconds(min_secs), reps(reps_) {}

    /// Times `body` until it has run for min_seconds, `reps` times, and
    /// records the best repetition (noise-robust on a shared container).
    void run(const std::string& label, std::size_t items_per_op,
             const std::function<void()>& body) {
        body();  // warm
        // Calibrate the inner loop count to the target wall time.
        std::size_t inner = 1;
        for (;;) {
            WallTimer timer;
            for (std::size_t i = 0; i < inner; ++i) body();
            if (timer.seconds() >= min_seconds || inner >= (1u << 24)) break;
            inner *= 4;
        }
        double best_ns = 1e30;
        for (std::size_t r = 0; r < reps; ++r) {
            WallTimer timer;
            for (std::size_t i = 0; i < inner; ++i) body();
            best_ns = std::min(best_ns, timer.seconds() * 1e9 / static_cast<double>(inner));
        }
        const double mitems = static_cast<double>(items_per_op) / best_ns * 1e3;
        table.begin_row();
        table.add(label);
        table.add(best_ns, 0);
        table.add(mitems, 1);
        rec.begin(label);
        rec.add("ns_per_op", best_ns);
        rec.add("items_per_op", static_cast<long long>(items_per_op));
        rec.add("mitems_per_s", mitems);
    }
};

}  // namespace

int main(int argc, char** argv) {
    Cli cli("bench_micro — hot-path microbenchmarks at the paper's array sizes");
    cli.flag("min-time", "0.05", "seconds each measurement must accumulate");
    cli.flag("reps", "3", "repetitions per measurement (best-of)");
    cli.flag("out", "BENCH_micro.json", "JSON results path");
    cli.flag("smoke", "false", "tiny configuration for CI smoke runs");
    try {
        if (!cli.parse(argc, argv)) return 0;
        double min_time = std::stod(cli.str("min-time"));
        std::size_t reps = static_cast<std::size_t>(cli.integer("reps"));
        if (cli.boolean("smoke")) {
            min_time = 0.01;
            reps = 1;
        }

        Harness h("paper-size arrays, best-of-" + std::to_string(reps), min_time, reps);
        Rng rng(2);

        for (const std::size_t cols : {std::size_t{784}, std::size_t{3072}}) {
            const xbar::Crossbar xbar = make_crossbar(10, cols);
            const tensor::Vector u = tensor::Vector::random_uniform(rng, cols);
            const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 64, cols);
            const std::string suffix = "/" + std::to_string(cols);

            h.run("crossbar_mvm" + suffix, 10 * cols, [&] {
                volatile double sink = xbar.mvm(u)[0];
                (void)sink;
            });
            h.run("crossbar_mvm_batch64" + suffix, 64 * 10 * cols, [&] {
                volatile double sink = xbar.mvm_batch(U)(0, 0);
                (void)sink;
            });
            // Items are MACs: 10·cols for an output read, cols for the
            // supply-current dot (one cols-long row).
            h.run("crossbar_total_current" + suffix, cols, [&] {
                volatile double sink = xbar.total_current(u);
                (void)sink;
            });
            h.run("crossbar_total_current_batch64" + suffix, 64 * cols, [&] {
                volatile double sink = xbar.total_current_batch(U)[0];
                (void)sink;
            });
            h.run("full_power_probe" + suffix, cols, [&] {
                volatile double sink = sidechannel::probe_columns(xbar).conductance_sums[0];
                (void)sink;
            });
        }

        for (const std::size_t n : {std::size_t{64}, std::size_t{256}}) {
            const tensor::Matrix A = tensor::Matrix::random_normal(rng, n, n);
            const tensor::Matrix B = tensor::Matrix::random_normal(rng, n, n);
            tensor::Matrix C(n, n, 0.0);
            h.run("gemm_square/" + std::to_string(n), 2 * n * n * n, [&] {
                tensor::gemm(1.0, A, tensor::Op::None, B, tensor::Op::None, 0.0, C);
            });
        }

        {
            // One minibatch forward pass of the MNIST-scale single layer —
            // the inner loop of every Figure-5 surrogate fit.
            Rng net_rng(5);
            nn::SingleLayerNet net(net_rng, 784, 10, nn::Activation::Linear, nn::Loss::Mse);
            const tensor::Matrix X = tensor::Matrix::random_uniform(rng, 32, 784);
            h.run("batch_forward_32x784", 32 * 784 * 10, [&] {
                volatile double sink = net.layer().forward_batch(X)(0, 0);
                (void)sink;
            });

            // The surrogate's power model (Eq. 9's p̂) reduces to this kernel.
            const tensor::Matrix W = tensor::Matrix::random_normal(rng, 10, 3072);
            h.run("column_abs_sums_10x3072", 10 * 3072, [&] {
                volatile double sink = tensor::column_abs_sums(W)[0];
                (void)sink;
            });
        }

        std::cout << "\n## Microbenchmarks\n\n" << h.table;
        const std::string out_path = cli.str("out");
        if (!h.rec.write(out_path)) {
            std::fprintf(stderr, "bench_micro: cannot write %s\n", out_path.c_str());
            return 1;
        }
        std::cout << "\nResults written to " << out_path << "\n";
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_micro: %s\n", e.what());
        return 1;
    }
}
