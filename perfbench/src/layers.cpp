// Shape replays: prices the layers the service calls internally, on the
// call shapes the traced pass recorded at the backend.
//
// Each recorded (kind, rows) shape is replayed through four nested entry
// points of the same deployment — tensor::gemm_rowstable on the
// crossbar's operand shape, the CrossbarNetwork, the CrossbarOracle and
// the physical-defense stack top — and each layer's self cost is the
// difference to the layer below, weighted by how often the shape
// occurred.
#include <algorithm>
#include <map>

#include "harness.hpp"
#include "xbarsec/tensor/gemm.hpp"

namespace perfbench {

using namespace xbarsec;

namespace {

constexpr std::size_t kMaxShapes = 16;

/// Wall time of one call of fn, ns.
template <typename Fn>
double time_ns(Fn&& fn) {
    const std::int64_t a = now_ns();
    fn();
    return static_cast<double>(now_ns() - a);
}

/// Median wall time of `reps` calls of fn, ns.
template <typename Fn>
double median_ns(std::size_t reps, Fn&& fn) {
    std::vector<double> t(reps);
    for (double& x : t) x = time_ns(fn);
    return median(std::move(t));
}

tensor::Matrix replay_rows(const tensor::Matrix& pool, std::size_t m) {
    tensor::Matrix U(m, pool.cols());
    for (std::size_t r = 0; r < m; ++r) {
        const auto src = pool.row_span(r % pool.rows());
        std::copy(src.begin(), src.end(), U.row_span(r).begin());
    }
    return U;
}

}  // namespace

std::map<std::string, double> replay_layers(const ReplayTarget& target,
                                            const std::vector<BackendCall>& calls) {
    const xbar::CrossbarNetwork& hw = target.backend->hardware_for_evaluation();
    // The crossbar's batched inference is V·(G⁺−G⁻)ᵀ: an (m×N)·(N×M) product.
    const tensor::Matrix operand = hw.crossbar().effective_weights().transposed();
    const double flops_per_row = 2.0 * static_cast<double>(operand.rows() * operand.cols());

    std::map<std::pair<Kind, std::uint32_t>, std::uint64_t> shapes;
    for (const BackendCall& c : calls) ++shapes[{c.kind, c.rows}];
    if (shapes.empty()) shapes[{Kind::Label, 1}] = 1;
    std::vector<std::pair<std::pair<Kind, std::uint32_t>, std::uint64_t>> ranked(shapes.begin(),
                                                                                 shapes.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    if (ranked.size() > kMaxShapes) ranked.resize(kMaxShapes);

    double gemm = 0.0, xbar = 0.0, oracle = 0.0, top = 0.0, rows = 0.0;
    double batch_ns = 0.0, batch_flops = 0.0;
    for (const auto& [shape, count] : ranked) {
        const auto [kind, m] = shape;
        const tensor::Matrix U = replay_rows(*target.rows, m);
        tensor::Matrix C(m, operand.cols());
        const std::size_t reps = std::clamp<std::size_t>(20000 / m, 7, 2001);
        const double w = static_cast<double>(count);
        // The four layers are timed round-robin within each repetition, so
        // drift over the replay shifts all of them alike.
        std::vector<double> tg(reps, 0.0), tx(reps), to(reps), ts(reps);
        for (std::size_t rep = 0; rep < reps; ++rep) {
            if (kind == Kind::Label) {
                tg[rep] = time_ns([&] {
                    tensor::gemm_rowstable(1.0, U, tensor::Op::None, operand, tensor::Op::None,
                                           0.0, C);
                });
                tx[rep] = time_ns([&] { (void)hw.classify_batch(U); });
                to[rep] = time_ns([&] { (void)target.backend->query_labels(U); });
                ts[rep] = time_ns([&] { (void)target.top->query_labels(U); });
            } else {
                tx[rep] = time_ns([&] { (void)hw.total_current_batch(U); });
                to[rep] = time_ns([&] { (void)target.backend->query_power_batch(U); });
                ts[rep] = time_ns([&] { (void)target.top->query_power_batch(U); });
            }
        }
        const double g = median(tg), x = median(tx), o = median(to), s = median(ts);
        if (kind == Kind::Label && m >= 2) {
            batch_ns += w * g;
            batch_flops += w * flops_per_row * m;
        }
        gemm += w * g;
        xbar += w * x;
        oracle += w * o;
        top += w * s;
        rows += w * m;
    }
    if (batch_flops == 0.0) {
        // No multi-row label call was recorded: price the default max_batch shape.
        const tensor::Matrix U = replay_rows(*target.rows, 256);
        tensor::Matrix C(256, operand.cols());
        batch_ns = median_ns(101, [&] {
            tensor::gemm_rowstable(1.0, U, tensor::Op::None, operand, tensor::Op::None, 0.0, C);
        });
        batch_flops = flops_per_row * 256;
    }
    const tensor::Matrix u1 = replay_rows(*target.rows, 1);
    tensor::Matrix c1(1, operand.cols());
    const double scalar_ns = median_ns(20001, [&] {
        tensor::gemm_rowstable(1.0, u1, tensor::Op::None, operand, tensor::Op::None, 0.0, c1);
    });

    std::map<std::string, double> out;
    out["tensor.gemm_ns_per_row_scalar"] = scalar_ns;
    out["tensor.gemm_gflops_batch"] = batch_flops / batch_ns;
    out["xbar.self_ns_per_row"] = (xbar - gemm) / rows;
    out["core.oracle.self_ns_per_row"] = (oracle - xbar) / rows;
    out["core.decorators.self_ns_per_row"] = target.decorators > 0 ? (top - oracle) / rows : 0.0;
    return out;
}

}  // namespace perfbench
