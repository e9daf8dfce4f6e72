// perfbench — the repository benchmark.
//
//   perfbench --workload extract|interactive|tenants --seed N --seconds S --trace 0|1
//
// Sets the workload up several times (setup_s is the median), then:
//   --trace 0  warms up and measures one untraced pass of S seconds, and
//              prints every end-to-end metric;
//   --trace 1  measures an untraced and a traced pass of S/2 seconds each,
//              replays the recorded backend call shapes layer by layer,
//              and prints every per-layer metric plus the tracing overhead.
// The last stdout line is the result object; the line before it states
// host provenance, sample counts and workload details. Both are also
// written to <out-dir>/<workload>-seed<N>-trace<T>.json, and a traced run
// writes its spans to <out-dir>/<workload>-seed<N>.spans.csv.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "harness.hpp"
#include "xbarsec/tensor/gemm.hpp"

namespace {

using namespace perfbench;

constexpr std::size_t kSetups = 3;

struct MetricSpec {
    const char* name;
    const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order. A layer the workload
// does not exercise reports 0.
constexpr MetricSpec kLayerMetrics[] = {
    {"data.load_s", "s"},
    {"nn.train_victim_s", "s"},
    {"tensor.gemm_ns_per_row_scalar", "ns"},
    {"tensor.gemm_gflops_batch", "GFLOP/s"},
    {"xbar.self_ns_per_row", "ns"},
    {"core.oracle.self_ns_per_row", "ns"},
    {"core.oracle.calls", "count"},
    {"core.oracle.rows_per_call_p50", "rows"},
    {"core.oracle.busy_s", "s"},
    {"core.decorators.self_ns_per_row", "ns"},
    {"core.service.submit_us_p50", "us"},
    {"core.service.submit_us_p99", "us"},
    {"core.service.submit_hit_us_p50", "us"},
    {"core.service.submit_hit_us_p99", "us"},
    {"core.service.submit_miss_us_p50", "us"},
    {"core.service.submit_miss_us_p99", "us"},
    {"core.service.refused.QueryRefused", "count"},
    {"core.service.refused.QueryBudgetExceeded", "count"},
    {"core.service.refused.RateLimited", "count"},
    {"core.service.refused.AccessDenied", "count"},
    {"core.service.queue_wait_us_p50", "us"},
    {"core.service.queue_wait_us_p99", "us"},
    {"core.service.cache.hit_rate", "share"},
    {"core.service.cache.evictions", "count"},
    {"core.service.routing.imbalance", "ratio"},
    {"core.service.queue_depth", "rows"},
    {"attrib.campaigns", "count"},
    {"attrib.alert", "count"},
    {"sidechannel.probe_s", "s"},
    {"core.queries.collect_s", "s"},
    {"attack.train_surrogate_s", "s"},
    {"attack.fgsm_s", "s"},
    {"attack.evaluate_s", "s"},
    {"trace.overhead_share", "share"},
};

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
    }
    return out + "\"";
}

void usage() {
    std::cerr << "usage: perfbench --workload extract|interactive|tenants --seed N --seconds S "
                 "--trace 0|1 [--commit C] [--source-digest D] [--out-dir DIR]\n";
}

bool parse(int argc, char** argv, Args& args) {
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                args.workload = value;
            } else if (key == "--seed") {
                args.seed = std::stoull(value);
            } else if (key == "--seconds") {
                args.seconds = std::stod(value);
            } else if (key == "--trace") {
                if (value != "0" && value != "1") return false;
                args.trace = value == "1";
            } else if (key == "--commit") {
                args.commit = value;
            } else if (key == "--source-digest") {
                args.source_digest = value;
            } else if (key == "--out-dir") {
                args.out_dir = value;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return !args.workload.empty() && args.seconds > 0.0 && args.seconds <= 120.0;
}

std::unique_ptr<Workload> make(const std::string& name) {
    if (name == "extract") return make_extract();
    if (name == "interactive") return make_interactive();
    if (name == "tenants") return make_tenants();
    return nullptr;
}

/// The GEMM arm tensor::gemm dispatches for an m-row product against the
/// victim's 10 outputs, by the selection rule in tensor/gemm.cpp.
std::string gemm_arm(std::size_t m) {
    using xbarsec::tensor::KernelVariant;
    const KernelVariant forced = xbarsec::tensor::forced_kernel_variant();
    if (forced != KernelVariant::Auto) return xbarsec::tensor::to_string(forced);
    constexpr std::size_t n = 10;
    if (xbarsec::tensor::kernel_variant_available(KernelVariant::Avx512) &&
        (n >= 12 || (n >= 8 && m >= 64))) {
        return "avx512";
    }
    if (xbarsec::tensor::kernel_variant_available(KernelVariant::Avx2)) return "avx2";
    return "portable";
}

std::string isa() {
    std::string out;
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    out = "x86_64";
    if (__builtin_cpu_supports("avx2")) out += "+avx2";
    if (__builtin_cpu_supports("fma")) out += "+fma";
    if (__builtin_cpu_supports("avx512f")) out += "+avx512f";
#else
    out = "other";
#endif
    return out;
}

/// The number each traced-vs-untraced overhead is taken on.
double headline(const std::string& workload, const PassResult& r) {
    return workload == "extract" ? median(r.script_s) : r.latency.quantile(0.50);
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse(argc, argv, args)) {
        usage();
        return 2;
    }
    std::unique_ptr<Workload> workload = make(args.workload);
    if (workload == nullptr) {
        std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
        usage();
        return 2;
    }
    try {
        std::vector<double> setup_s, load_s, train_s;
        for (std::size_t i = 0; i < kSetups; ++i) {
            Tracer::instance().set_on(args.trace);
            const std::int64_t t0 = now_ns();
            const SetupTimes t = workload->setup(args);
            setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
            Tracer::instance().set_on(false);
            load_s.push_back(t.load_s);
            train_s.push_back(t.train_s);
        }

        const std::uint64_t pass_seed = derive_seed(args.seed, 1);
        std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
        PassResult result;
        if (!args.trace) {
            result = workload->run(args.seconds, pass_seed, false);
            const double attempted = static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
            metrics = {
                {"setup_s", {median(setup_s), "s"}},
                {"campaign_s", {median(result.script_s), "s"}},
                {"qps", {result.latency.rate(), "q/s"}},
                {"p50_us", {result.latency.quantile(0.50), "us"}},
                {"p90_us", {result.latency.quantile(0.90), "us"}},
                {"slo_share",
                 {static_cast<double>(result.within_slo) /
                      static_cast<double>(std::max<std::uint64_t>(result.slo_eligible, 1)),
                  "share"}},
                {"correct_share", {1.0 - static_cast<double>(result.failed) / attempted, "share"}},
                {"rss_mb", {peak_rss_mb(), "MB"}},
            };
        } else {
            const PassResult untraced = workload->run(args.seconds / 2, pass_seed, false);
            Tracer::instance().set_publish(args.workload == "extract");
            Tracer::instance().set_on(true);
            result = workload->run(args.seconds / 2, pass_seed, true);
            Tracer::instance().set_on(false);
            if (!untraced.valid) result.valid = false;

            std::map<std::string, double> layer = result.layer;
            layer["data.load_s"] = median(load_s);
            layer["nn.train_victim_s"] = median(train_s);
            std::vector<double> rows;
            double busy = 0.0;
            for (const BackendCall& c : result.backend_calls) {
                rows.push_back(c.rows);
                busy += static_cast<double>(c.end_ns - c.start_ns) * 1e-9;
            }
            layer["core.oracle.calls"] = static_cast<double>(result.backend_calls.size());
            layer["core.oracle.rows_per_call_p50"] = median(rows);
            layer["core.oracle.busy_s"] = busy;
            for (const auto& [name, value] :
                 replay_layers(workload->replay_target(), result.backend_calls)) {
                layer[name] = value;
            }
            const double base = headline(args.workload, untraced);
            layer["trace.overhead_share"] = (headline(args.workload, result) - base) / base;
            for (const MetricSpec& m : kLayerMetrics) {
                metrics.push_back({m.name, {layer.count(m.name) ? layer[m.name] : 0.0, m.unit}});
            }
        }
        if (!result.valid) {
            std::cerr << "perfbench: invalid run, no result: " << result.invalid_reason << "\n";
            return 3;
        }

        // Provenance, sample counts and workload details.
        std::map<std::string, std::string> info = workload->describe();
        info["workload"] = args.workload;
        info["seed"] = std::to_string(args.seed);
        info["seconds"] = number(args.seconds);
        info["trace"] = args.trace ? "1" : "0";
        info["cores"] = std::to_string(std::thread::hardware_concurrency());
        info["isa"] = isa();
        info["gemm_arm_scalar"] = gemm_arm(1);
        info["gemm_arm_batch256"] = gemm_arm(256);
        info["build_type"] = PERFBENCH_BUILD_TYPE;
        info["compiler"] = __VERSION__;
        info["commit"] = args.commit;
        info["source_digest"] = args.source_digest;
        info["setups"] = std::to_string(kSetups);
        // The 99th percentile is stated, not bounded: on a shared VM host
        // it follows the host's wake-up latency, not the program.
        info["p99_us"] = number(result.latency.quantile(0.99));
        info["latency_samples"] = std::to_string(result.latency.count());
        info["latency_samples_kept"] = std::to_string(result.latency.kept());
        info["latency_windows"] = std::to_string(result.latency.windows());
        info["script_samples"] = std::to_string(result.script_s.size());
        info["spans_dropped"] = std::to_string(Tracer::instance().dropped());
        std::ostringstream detail;
        detail << "{\"perfbench\": {";
        bool first = true;
        for (const auto& [k, v] : info) {
            detail << (first ? "" : ", ") << quoted(k) << ": " << quoted(v);
            first = false;
        }
        for (const auto& [k, v] : result.detail) detail << ", " << quoted(k) << ": " << number(v);
        detail << "}}";

        std::ostringstream line;
        line << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
             << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
             << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            line << (i ? ", " : "") << quoted(metrics[i].first) << ": {\"value\": "
                 << number(metrics[i].second.first) << ", \"unit\": "
                 << quoted(metrics[i].second.second) << "}";
        }
        line << "}}";

        ::mkdir(args.out_dir.c_str(), 0755);
        const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed);
        std::ofstream(stem + "-trace" + (args.trace ? "1" : "0") + ".json")
            << detail.str() << "\n" << line.str() << "\n";
        if (args.trace) Tracer::instance().write(stem + ".spans.csv");

        std::cout << detail.str() << "\n" << line.str() << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
