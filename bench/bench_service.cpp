// Multi-tenant serving throughput: many concurrent clients issuing
// individual label queries against one deployment, with and without the
// OracleService coalescing queue.
//
// Three paths per client count, all driving the same 784×10
// synthetic-MNIST victim:
//   * direct-scalar       — C threads calling query_label straight on the
//                           shared backend, one vector at a time (what the
//                           pre-service Oracle API forced on every client);
//   * service-uncoalesced — the same per-vector stream through the
//                           service with coalescing disabled (max_batch=1:
//                           every submission is its own backend call);
//   * service-coalesced   — the coalescing queue on: concurrently
//                           submitted vectors are gathered into one
//                           query_labels GEMM batch per flush.
// A second series fixes 8 clients and sweeps max_batch, recording
// throughput against the *realised* mean coalesced batch size. A third
// series sweeps the backend fleet size (replicas@N: N independent
// crossbar replicas behind the routing policy), and a fourth isolates
// the max_batch/pipeline-depth interaction (depth@D: max_batch fixed at
// 1024 while the per-client pipeline depth D varies — the realised mean
// batch tracks clients x D, not max_batch; see ServiceConfig::max_batch).
// A trickle series (trickle@<gap>us) prices the idle path: one client
// submitting async scalar labels at a fixed gap, with the submit-to-ready
// latency recorded as p50/p99. Every other series is saturated or
// request-response; this one is neither.
//
// Results go to BENCH_service.json through the shared recorder. The
// acceptance gates (full runs): coalesced >= 3x uncoalesced per-vector
// issue at 8 concurrent clients (medians of 7 interleaved runs of each,
// every sample recorded), and >= 2.5x single-replica coalesced
// throughput at 4 replicas on hosts with >= 4 cores (recorded but not
// gated on smaller hosts).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "record.hpp"
#include "xbarsec/common/cli.hpp"
#include "xbarsec/common/error.hpp"
#include "xbarsec/common/table.hpp"
#include "xbarsec/common/timer.hpp"
#include "xbarsec/core/service.hpp"
#include "xbarsec/core/victim.hpp"
#include "xbarsec/data/loaders.hpp"
#include "xbarsec/stats/descriptive.hpp"

using namespace xbarsec;

namespace {

/// In-flight futures per client before draining: deep enough to keep the
/// coalescer fed, small enough to stay realistic for an online client.
constexpr std::size_t kPipeline = 64;

/// Client-side batching for the batched-submission series: each client
/// packs 32 queries per submit_labels call, 4 batches in flight.
constexpr std::size_t kClientBatch = 32;
constexpr std::size_t kBatchWindow = 4;

double run_direct_scalar(core::CrossbarOracle& oracle, const tensor::Matrix& pool,
                         std::size_t clients, std::size_t per_client) {
    WallTimer timer;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (std::size_t q = 0; q < per_client; ++q) {
                (void)oracle.query_label(pool.row((c * per_client + q) % pool.rows()));
            }
        });
    }
    for (auto& t : threads) t.join();
    return timer.seconds();
}

/// Per-vector request-response issue through the service: each client
/// waits for every answer before sending the next query — the usage
/// pattern the pre-service Oracle& API forced on concurrent clients.
/// With max_batch = 1 this is the uncoalesced baseline of the
/// acceptance gate.
double run_request_response(core::OracleService& service, const tensor::Matrix& pool,
                            std::size_t clients, std::size_t per_client) {
    std::vector<core::Session> sessions;
    sessions.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) sessions.push_back(service.open_session());
    WallTimer timer;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            core::Oracle& oracle = sessions[c].oracle();
            for (std::size_t q = 0; q < per_client; ++q) {
                (void)oracle.query_label(pool.row((c * per_client + q) % pool.rows()));
            }
        });
    }
    for (auto& t : threads) t.join();
    return timer.seconds();
}

/// Async batched submission: each client packs kClientBatch queries per
/// submit_labels call and keeps kBatchWindow batches in flight; the
/// coalescer merges batches from all clients into max_batch-row GEMMs.
double run_batched_clients(core::OracleService& service, const tensor::Matrix& pool,
                           std::size_t clients, std::size_t per_client) {
    std::vector<core::Session> sessions;
    sessions.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) sessions.push_back(service.open_session());
    WallTimer timer;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            std::vector<std::future<std::vector<int>>> window;
            window.reserve(kBatchWindow);
            for (std::size_t q = 0; q < per_client; q += kClientBatch) {
                const std::size_t rows = std::min(kClientBatch, per_client - q);
                tensor::Matrix U(rows, pool.cols());
                for (std::size_t r = 0; r < rows; ++r) {
                    const auto src = pool.row_span((c * per_client + q + r) % pool.rows());
                    auto dst = U.row_span(r);
                    std::copy(src.begin(), src.end(), dst.begin());
                }
                window.push_back(sessions[c].submit_labels(std::move(U)));
                if (window.size() == kBatchWindow) {
                    for (auto& f : window) (void)f.get();
                    window.clear();
                }
            }
            for (auto& f : window) (void)f.get();
        });
    }
    for (auto& t : threads) t.join();
    return timer.seconds();
}

double run_service_clients(core::OracleService& service, const tensor::Matrix& pool,
                           std::size_t clients, std::size_t per_client,
                           std::size_t depth = kPipeline) {
    std::vector<core::Session> sessions;
    sessions.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) sessions.push_back(service.open_session());
    WallTimer timer;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            std::vector<std::future<int>> window;
            window.reserve(depth);
            for (std::size_t q = 0; q < per_client; ++q) {
                window.push_back(
                    sessions[c].submit_label(pool.row((c * per_client + q) % pool.rows())));
                if (window.size() == depth) {
                    for (auto& f : window) (void)f.get();
                    window.clear();
                }
            }
            for (auto& f : window) (void)f.get();
        });
    }
    for (auto& t : threads) t.join();
    return timer.seconds();
}

struct TrickleRun {
    double p50_us = 0.0;
    double p99_us = 0.0;
    double mean_gap_us = 0.0;  ///< achieved submit spacing (sleep overshoot included)
    double mean_batch = 0.0;
};

/// One client submitting async scalar labels at a fixed gap, open loop:
/// the submitter never waits for an answer, and a collector thread
/// timestamps each future as it becomes ready (one replica answers in
/// FIFO order, so waiting in submission order loses nothing).
TrickleRun run_trickle(core::OracleService& service, const tensor::Matrix& pool,
                       std::chrono::microseconds gap, std::size_t count) {
    using Clock = std::chrono::steady_clock;
    core::Session session = service.open_session();
    std::vector<std::future<int>> futures(count);
    std::vector<Clock::time_point> submitted(count);
    std::vector<double> latency_us(count);
    std::atomic<std::size_t> published{0};
    const std::uint64_t batches0 = service.flushed_batches();
    const std::uint64_t rows0 = service.flushed_rows();
    std::thread collector([&] {
        for (std::size_t i = 0; i < count; ++i) {
            published.wait(i, std::memory_order_acquire);  // until future i exists
            futures[i].wait();
            latency_us[i] =
                std::chrono::duration<double, std::micro>(Clock::now() - submitted[i]).count();
        }
    });
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
        std::this_thread::sleep_until(start + gap * static_cast<long long>(i));
        submitted[i] = Clock::now();
        try {
            futures[i] = session.submit_label(pool.row(i % pool.rows()));
        } catch (...) {
            // Hand the collector a ready future either way, so it always
            // finishes; the final get() below rethrows.
            std::promise<int> failed;
            failed.set_exception(std::current_exception());
            futures[i] = failed.get_future();
        }
        published.store(i + 1, std::memory_order_release);
        published.notify_one();
    }
    collector.join();
    for (auto& f : futures) (void)f.get();

    TrickleRun run;
    run.p50_us = stats::quantile(latency_us, 0.50);
    run.p99_us = stats::quantile(latency_us, 0.99);
    run.mean_gap_us = count > 1 ? std::chrono::duration<double, std::micro>(
                                      submitted.back() - submitted.front())
                                          .count() /
                                      static_cast<double>(count - 1)
                                : 0.0;
    const std::uint64_t batches = service.flushed_batches() - batches0;
    run.mean_batch = batches > 0 ? static_cast<double>(service.flushed_rows() - rows0) /
                                       static_cast<double>(batches)
                                 : 0.0;
    return run;
}

/// Zipf(s) rank CDF over n pool rows: weight(r) = (r+1)^-s. s = 0 is
/// uniform traffic; s = 1.0 sends ~92% of queries to the hottest 2048 of
/// 4096 rows — the "popular inputs dominate" regime the result cache
/// exists for.
std::vector<double> zipf_cdf(std::size_t n, double skew) {
    std::vector<double> cdf(n);
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), skew);
        cdf[r] = total;
    }
    for (double& v : cdf) v /= total;
    return cdf;
}

std::size_t zipf_sample(const std::vector<double>& cdf, double u) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

struct ZipfRun {
    double qps = 0.0;
    double hit_rate = 0.0;          ///< 0 for the cache-off baseline
    std::uint64_t served = 0;       ///< queries answered (budgeted sessions stop early)
};

/// Zipf-distributed request-response traffic: every client waits for each
/// answer before the next query (interactive tenants — the traffic shape
/// where per-query latency, and therefore the cache, matters most).
/// Budgeted sessions stop at QueryBudgetExceeded and report how many
/// queries they actually got served.
ZipfRun run_zipf_clients(core::OracleService& service, const tensor::Matrix& pool,
                         const std::vector<double>& cdf, std::size_t clients,
                         std::size_t per_client, std::uint64_t seed,
                         const core::SessionConfig& session_config) {
    std::vector<core::Session> sessions;
    sessions.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        sessions.push_back(service.open_session(session_config));
    }
    const std::uint64_t hits0 = service.cache_hits();
    const std::uint64_t misses0 = service.cache_misses();
    std::atomic<std::uint64_t> served{0};
    WallTimer timer;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            core::Oracle& oracle = sessions[c].oracle();
            Rng rng(seed ^ (0x2F1Full * (c + 1)));
            std::uint64_t ok = 0;
            for (std::size_t q = 0; q < per_client; ++q) {
                const std::size_t row = zipf_sample(cdf, rng.uniform());
                try {
                    (void)oracle.query_label(pool.row(row));
                } catch (const core::QueryBudgetExceeded&) {
                    break;  // budget spent; the session served `ok` queries
                }
                ++ok;
            }
            served.fetch_add(ok, std::memory_order_relaxed);
        });
    }
    for (auto& t : threads) t.join();
    ZipfRun run;
    run.served = served.load(std::memory_order_relaxed);
    run.qps = static_cast<double>(run.served) / timer.seconds();
    const std::uint64_t hits = service.cache_hits() - hits0;
    const std::uint64_t misses = service.cache_misses() - misses0;
    run.hit_rate = hits + misses > 0
                       ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                       : 0.0;
    return run;
}

struct ServiceRun {
    double qps = 0.0;
    double mean_batch = 0.0;       ///< realised rows per backend call
    double mean_queue_depth = 0.0; ///< fleet-total pending rows, sampled over the run
    std::uint64_t max_queue_depth = 0;
    std::vector<std::uint64_t> replica_rows;  ///< flushed rows per replica (timed run)
};

/// One timed coalesced-scalar measurement over a service (single backend
/// or replica fleet): throughput, realised mean batch, per-replica rows,
/// and a sampled per-replica queue-depth profile (the routing signal).
ServiceRun measure_service_over(core::OracleService& service, const tensor::Matrix& query_pool,
                                std::size_t clients, std::size_t per_client,
                                std::size_t depth = kPipeline) {
    // Untimed warm-up pass (first-touch faults, cache fills), matching
    // the other benches' measurement protocol.
    (void)run_service_clients(service, query_pool, clients, per_client / 4 + 1, depth);
    const std::uint64_t batches0 = service.flushed_batches();
    const std::uint64_t rows0 = service.flushed_rows();
    std::vector<std::uint64_t> replica_rows0(service.replica_count());
    for (std::size_t k = 0; k < service.replica_count(); ++k) {
        replica_rows0[k] = service.flushed_rows(k);
    }

    // Sample the fleet-total queue depth while the clients run: the mean
    // says how much coalescable work was pending, the max bounds the
    // backlog the routing policy had to spread.
    std::atomic<bool> sampling{true};
    std::uint64_t depth_samples = 0, depth_sum = 0, depth_max = 0;
    std::thread sampler([&] {
        while (sampling.load(std::memory_order_acquire)) {
            std::uint64_t total = 0;
            for (std::size_t k = 0; k < service.replica_count(); ++k) {
                total += service.queue_depth(k);
            }
            depth_sum += total;
            depth_max = std::max(depth_max, total);
            ++depth_samples;
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
    });
    const double secs = run_service_clients(service, query_pool, clients, per_client, depth);
    sampling.store(false, std::memory_order_release);
    sampler.join();

    ServiceRun run;
    run.qps = static_cast<double>(clients * per_client) / secs;
    const std::uint64_t batches = service.flushed_batches() - batches0;
    const std::uint64_t rows = service.flushed_rows() - rows0;
    run.mean_batch = batches > 0 ? static_cast<double>(rows) / static_cast<double>(batches) : 0.0;
    run.mean_queue_depth = depth_samples > 0
                               ? static_cast<double>(depth_sum) / static_cast<double>(depth_samples)
                               : 0.0;
    run.max_queue_depth = depth_max;
    run.replica_rows.resize(service.replica_count());
    for (std::size_t k = 0; k < service.replica_count(); ++k) {
        run.replica_rows[k] = service.flushed_rows(k) - replica_rows0[k];
    }
    return run;
}

ServiceRun measure_service(core::CrossbarOracle& backend, ThreadPool* pool,
                           const tensor::Matrix& query_pool, std::size_t clients,
                           std::size_t per_client, std::size_t max_batch,
                           std::size_t depth = kPipeline) {
    core::ServiceConfig config;
    config.pool = pool;
    config.max_batch = max_batch;
    core::OracleService service(backend, config);
    return measure_service_over(service, query_pool, clients, per_client, depth);
}

/// Appends the fleet-shape fields every result row carries (satellite:
/// replicas, routing, and the sampled per-replica queue depth).
void record_fleet_fields(bench::BenchRecorder& rec, std::size_t replicas,
                         core::RoutingPolicy routing, const ServiceRun& run) {
    rec.add("replicas", static_cast<long long>(replicas));
    rec.add("routing", core::to_string(routing));
    rec.add("mean_queue_depth", run.mean_queue_depth);
    rec.add("max_queue_depth", static_cast<long long>(run.max_queue_depth));
    for (std::size_t k = 0; k < run.replica_rows.size(); ++k) {
        rec.add("replica" + std::to_string(k) + "_rows",
                static_cast<long long>(run.replica_rows[k]));
    }
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli("bench_service — multi-client serving throughput with and without coalescing");
    cli.flag("clients", "1,2,4,8", "concurrent client counts to measure");
    cli.flag("queries", "8192", "label queries per client per measurement");
    cli.flag("max-batches", "16,64,256,1024", "coalescing max_batch sweep (at the most clients)");
    cli.flag("replicas", "1,2,4", "backend fleet sizes for the replica-scaling series");
    cli.flag("routing", "round-robin",
             "routing policy for the replica series (session-affine|round-robin|least-loaded)");
    cli.flag("depths", "16,64,256,512",
             "per-client pipeline depths for the max_batch-interaction series");
    cli.flag("skews", "0,0.6,1.0", "Zipf skew exponents for the result-cache traffic series");
    cli.flag("cache-capacity", "2048", "result-cache entries for the Zipf series");
    cli.flag("pool", "4096", "rows in the shared query pool");
    cli.flag("train", "2000", "victim training samples");
    cli.flag("epochs", "6", "victim training epochs");
    cli.flag("threads", "0", "backend worker threads (0 = hardware concurrency)");
    cli.flag("out", "BENCH_service.json", "JSON results path");
    cli.flag("smoke", "false", "tiny configuration for CI smoke runs");
    try {
        if (!cli.parse(argc, argv)) return 0;

        data::LoadOptions load;
        load.train_count = static_cast<std::size_t>(cli.integer("train"));
        load.test_count = 400;
        std::vector<long long> client_counts = cli.integer_list("clients");
        std::vector<long long> batch_sweep = cli.integer_list("max-batches");
        std::vector<long long> replica_sweep = cli.integer_list("replicas");
        std::vector<long long> depth_sweep = cli.integer_list("depths");
        std::vector<double> skew_sweep = cli.real_list("skews");
        constexpr long long kTrickleGapsUs[] = {1000, 100};  // submit gaps of the trickle series
        std::size_t trickle_queries = 4000;  // async scalar labels per trickle measurement
        std::size_t cache_capacity = static_cast<std::size_t>(cli.integer("cache-capacity"));
        const core::RoutingPolicy routing = core::parse_routing_policy(cli.str("routing"));
        std::size_t per_client = static_cast<std::size_t>(cli.integer("queries"));
        std::size_t pool_rows = static_cast<std::size_t>(cli.integer("pool"));
        core::VictimConfig config = core::VictimConfig::defaults(core::OutputConfig::softmax_ce());
        config.train.epochs = static_cast<std::size_t>(cli.integer("epochs"));
        const bool smoke = cli.boolean("smoke");
        if (smoke) {
            load.train_count = 400;
            load.test_count = 120;
            client_counts = {2, 8};
            batch_sweep = {16, 256};
            replica_sweep = {1, 2};
            depth_sweep = {16, 256};
            per_client = 1024;
            pool_rows = 1024;
            config.train.epochs = 2;
            skew_sweep = {0, 1.0};
            cache_capacity = 512;  // half the smoke pool, matching the full-run ratio
            trickle_queries = 200;
        }

        const data::DataSplit split = data::load_mnist_like(load);
        const core::TrainedVictim victim = core::train_victim(split, config);
        core::CrossbarOracle backend = core::deploy_victim(victim.net, config);

        // A one-worker pool is pure scheduling overhead — run the backend
        // GEMMs inline on the flusher thread instead on such hosts.
        const std::size_t workers = cli.integer("threads") > 0
                                        ? static_cast<std::size_t>(cli.integer("threads"))
                                        : std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
        std::unique_ptr<ThreadPool> pool;
        if (workers > 1) {
            pool = std::make_unique<ThreadPool>(workers);
            backend.set_thread_pool(pool.get());
        }

        Rng rng(7);
        const tensor::Matrix query_pool =
            tensor::Matrix::random_uniform(rng, pool_rows, backend.inputs());

        bench::BenchRecorder rec(
            "service", "synthetic-mnist-784x10 victim, " + std::to_string(workers) +
                           (workers == 1 ? " backend worker, " : " backend workers, ") +
                           std::to_string(per_client) +
                           " label queries per client, pipeline depth " +
                           std::to_string(kPipeline));

        // -- series 1: throughput vs client count --------------------------------
        //
        // Per-vector baselines: "direct" calls the backend with no
        // service at all; "uncoalesced" issues one query at a time
        // through a session and waits for each answer, with coalescing
        // disabled (max_batch = 1: every vector is its own backend call
        // — the gate's uncoalesced per-vector reference). Coalesced
        // paths: scalar async submissions (pipelined), and client-side
        // batches of kClientBatch (the designed high-throughput usage).
        // Each measurement runs on a fresh service and is warmed first.
        const auto measure_uncoalesced = [&](std::size_t clients) {
            core::ServiceConfig config;
            config.pool = pool.get();
            config.max_batch = 1;  // per-vector: no coalescing anywhere
            core::OracleService service(backend, config);
            (void)run_request_response(service, query_pool, clients, per_client / 4 + 1);
            return static_cast<double>(clients * per_client) /
                   run_request_response(service, query_pool, clients, per_client);
        };
        const auto measure_batched = [&](std::size_t clients) {
            core::ServiceConfig config;
            config.pool = pool.get();
            core::OracleService service(backend, config);
            (void)run_batched_clients(service, query_pool, clients, per_client / 4 + 1);
            const std::uint64_t batches0 = service.flushed_batches();
            const std::uint64_t rows0 = service.flushed_rows();
            ServiceRun run;
            run.qps = static_cast<double>(clients * per_client) /
                      run_batched_clients(service, query_pool, clients, per_client);
            const std::uint64_t batches = service.flushed_batches() - batches0;
            run.mean_batch = batches > 0 ? static_cast<double>(service.flushed_rows() - rows0) /
                                               static_cast<double>(batches)
                                         : 0.0;
            return run;
        };

        Table table({"Clients", "Direct q/s", "Uncoalesced q/s", "Coal. scalar q/s",
                     "Coal. batch q/s", "Mean batch", "Scalar speedup", "Batch speedup"});
        for (const long long cc : client_counts) {
            const std::size_t clients = static_cast<std::size_t>(cc);
            if (clients < 1) throw ConfigError("--clients entries must be >= 1");
            const double total = static_cast<double>(clients * per_client);

            (void)run_direct_scalar(backend, query_pool, clients, per_client / 4 + 1);  // warm
            const double direct_qps =
                total / run_direct_scalar(backend, query_pool, clients, per_client);
            const double uncoalesced_qps = measure_uncoalesced(clients);
            const ServiceRun coalesced =
                measure_service(backend, pool.get(), query_pool, clients, per_client, 256);
            const ServiceRun batched = measure_batched(clients);
            const double batched_qps = batched.qps;
            const double batched_mean_batch = batched.mean_batch;

            const double scalar_speedup = coalesced.qps / uncoalesced_qps;
            const double batch_speedup = batched_qps / uncoalesced_qps;

            table.begin_row();
            table.add(static_cast<long long>(clients));
            table.add(direct_qps, 0);
            table.add(uncoalesced_qps, 0);
            table.add(coalesced.qps, 0);
            table.add(batched_qps, 0);
            table.add(batched_mean_batch, 1);
            table.add(scalar_speedup, 2);
            table.add(batch_speedup, 2);

            rec.begin("clients@" + std::to_string(clients));
            rec.add("clients", static_cast<long long>(clients));
            rec.add("direct_scalar_qps", direct_qps);
            rec.add("uncoalesced_qps", uncoalesced_qps);
            rec.add("coalesced_scalar_qps", coalesced.qps);
            rec.add("coalesced_batch_qps", batched_qps);
            rec.add("mean_coalesced_batch", batched_mean_batch);
            rec.add("scalar_speedup_vs_uncoalesced", scalar_speedup);
            rec.add("batch_speedup_vs_uncoalesced", batch_speedup);
            record_fleet_fields(rec, 1, core::RoutingPolicy::SessionAffine, coalesced);
        }

        // -- coalescing gate: medians of interleaved runs -------------------------
        //
        // One uncoalesced request-response run moves by ~25 % from run to
        // run on one host, so a ratio over a single run lets one noisy
        // sample decide the verdict. The gate divides the median of
        // kGatePairs coalesced-batch runs by the median of as many
        // uncoalesced runs, interleaved so drift hits both alike, at the
        // highest client count.
        constexpr std::size_t kGatePairs = 7;
        std::size_t gate_clients = 0;
        for (const long long cc : client_counts) {
            gate_clients = std::max(gate_clients, static_cast<std::size_t>(cc));
        }
        std::vector<double> gate_uncoalesced;
        std::vector<double> gate_batched;
        rec.begin("coalescing-gate@" + std::to_string(gate_clients));
        rec.add("clients", static_cast<long long>(gate_clients));
        for (std::size_t i = 0; i < kGatePairs; ++i) {
            gate_uncoalesced.push_back(measure_uncoalesced(gate_clients));
            gate_batched.push_back(measure_batched(gate_clients).qps);
            rec.add("uncoalesced_qps_" + std::to_string(i), gate_uncoalesced.back());
            rec.add("coalesced_batch_qps_" + std::to_string(i), gate_batched.back());
        }
        const double gate_uncoalesced_qps = stats::median(gate_uncoalesced);
        const double gate_batched_qps = stats::median(gate_batched);
        const double gate_speedup = gate_batched_qps / gate_uncoalesced_qps;
        rec.add("median_uncoalesced_qps", gate_uncoalesced_qps);
        rec.add("median_coalesced_batch_qps", gate_batched_qps);
        rec.add("batch_speedup_vs_uncoalesced", gate_speedup);

        // -- series 2: throughput vs coalesced-batch size ------------------------
        const std::size_t sweep_clients =
            static_cast<std::size_t>(client_counts.back());
        Table sweep_table({"max_batch", "Coalesced q/s", "Mean batch"});
        for (const long long mb : batch_sweep) {
            if (mb < 1) throw ConfigError("--max-batches entries must be >= 1");
            const ServiceRun run = measure_service(backend, pool.get(), query_pool, sweep_clients,
                                                   per_client, static_cast<std::size_t>(mb));
            sweep_table.begin_row();
            sweep_table.add(mb);
            sweep_table.add(run.qps, 0);
            sweep_table.add(run.mean_batch, 1);
            rec.begin("max_batch@" + std::to_string(mb));
            rec.add("clients", static_cast<long long>(sweep_clients));
            rec.add("max_batch", mb);
            rec.add("coalesced_qps", run.qps);
            rec.add("mean_coalesced_batch", run.mean_batch);
            record_fleet_fields(rec, 1, core::RoutingPolicy::SessionAffine, run);
        }

        // -- series 3: throughput vs replica count -------------------------------
        //
        // N independent crossbar replicas of the same victim (distinct
        // device-variation seeds) behind one service; the scalar
        // coalesced stream spreads over the fleet via the routing
        // policy. On a multicore host each replica's flusher + GEMM runs
        // on its own core, so throughput scales until the cores (or the
        // shared pool) saturate.
        Table replica_table({"Replicas", "Routing", "Coalesced q/s", "Mean batch",
                             "Speedup vs 1", "Rows/replica (min..max)"});
        double single_replica_qps = 0.0;
        double quad_replica_speedup = 0.0;
        for (const long long rc : replica_sweep) {
            if (rc < 1) throw ConfigError("--replicas entries must be >= 1");
            const std::size_t replicas = static_cast<std::size_t>(rc);
            std::vector<core::CrossbarOracle> fleet =
                core::deploy_victim_fleet(victim.net, config, replicas);
            std::vector<core::Oracle*> backends;
            backends.reserve(replicas);
            for (core::CrossbarOracle& replica : fleet) {
                replica.set_thread_pool(pool.get());
                backends.push_back(&replica);
            }
            core::ServiceConfig service_config;
            service_config.pool = pool.get();
            service_config.routing = routing;
            core::OracleService service(backends, service_config);
            const ServiceRun run =
                measure_service_over(service, query_pool, sweep_clients, per_client);
            if (replicas == 1) single_replica_qps = run.qps;
            const double speedup = single_replica_qps > 0.0 ? run.qps / single_replica_qps : 0.0;
            if (replicas == 4) quad_replica_speedup = speedup;

            std::uint64_t min_rows = run.replica_rows.empty() ? 0 : run.replica_rows.front();
            std::uint64_t max_rows = min_rows;
            for (const std::uint64_t rows : run.replica_rows) {
                min_rows = std::min(min_rows, rows);
                max_rows = std::max(max_rows, rows);
            }
            replica_table.begin_row();
            replica_table.add(rc);
            replica_table.add(core::to_string(routing));
            replica_table.add(run.qps, 0);
            replica_table.add(run.mean_batch, 1);
            replica_table.add(speedup, 2);
            replica_table.add(std::to_string(min_rows) + ".." + std::to_string(max_rows));

            rec.begin("replicas@" + std::to_string(replicas));
            rec.add("clients", static_cast<long long>(sweep_clients));
            rec.add("coalesced_qps", run.qps);
            rec.add("mean_coalesced_batch", run.mean_batch);
            rec.add("speedup_vs_1_replica", speedup);
            record_fleet_fields(rec, replicas, routing, run);
        }

        // -- series 4: the max_batch/pipeline-depth interaction ------------------
        //
        // max_batch pinned far above what the clients can supply: with C
        // clients at pipeline depth D, at most C x D rows are ever in
        // flight, so the realised mean batch saturates near min(C x D,
        // max_batch). The flusher is work-conserving — an idle replica
        // flushes at once, and a batch is whatever queued behind the
        // previous backend call — so a batch never waits for max_batch
        // to fill. This is the "max_batch@1024 plateaus near 437 rows"
        // anomaly, isolated.
        constexpr std::size_t kDepthSeriesMaxBatch = 1024;
        Table depth_table({"Pipeline depth", "In-flight cap", "Coalesced q/s", "Mean batch"});
        for (const long long dd : depth_sweep) {
            if (dd < 1) throw ConfigError("--depths entries must be >= 1");
            const std::size_t depth = static_cast<std::size_t>(dd);
            const ServiceRun run = measure_service(backend, pool.get(), query_pool, sweep_clients,
                                                   per_client, kDepthSeriesMaxBatch, depth);
            depth_table.begin_row();
            depth_table.add(dd);
            depth_table.add(static_cast<long long>(sweep_clients * depth));
            depth_table.add(run.qps, 0);
            depth_table.add(run.mean_batch, 1);
            rec.begin("depth@" + std::to_string(depth));
            rec.add("clients", static_cast<long long>(sweep_clients));
            rec.add("pipeline_depth", static_cast<long long>(depth));
            rec.add("max_batch", static_cast<long long>(kDepthSeriesMaxBatch));
            rec.add("inflight_row_cap", static_cast<long long>(sweep_clients * depth));
            rec.add("coalesced_qps", run.qps);
            rec.add("mean_coalesced_batch", run.mean_batch);
            record_fleet_fields(rec, 1, core::RoutingPolicy::SessionAffine, run);
        }

        // -- series 5: Zipfian traffic through the result cache -------------------
        //
        // Request-response clients (each waits for every answer — the
        // interactive-tenant shape where per-query latency dominates)
        // sampling the pool by Zipf rank. Three configs per skew:
        // cache-off (today's fleet), the shared cross-session cache, and
        // the per-session-partitioned cache (the timing-channel defense;
        // partitioning costs cross-tenant reuse, so its hit rate shows
        // what the defense pays). Capacity covers the hottest
        // `cache_capacity` of `pool` rows.
        Table zipf_table({"Skew", "Cache", "q/s", "Hit rate", "Speedup vs off"});
        double zipf_gate_speedup = 0.0;
        double max_skew = 0.0;
        for (const double skew : skew_sweep) max_skew = std::max(max_skew, skew);
        for (const double skew : skew_sweep) {
            if (skew < 0.0) throw ConfigError("--skews entries must be >= 0");
            const std::vector<double> cdf = zipf_cdf(query_pool.rows(), skew);
            double off_qps = 0.0;
            for (int mode = 0; mode < 3; ++mode) {
                core::ServiceConfig service_config;
                service_config.pool = pool.get();
                service_config.cache.enabled = mode > 0;
                service_config.cache.capacity = cache_capacity;
                service_config.cache.partition_by_session = mode == 2;
                core::OracleService service(backend, service_config);
                (void)run_zipf_clients(service, query_pool, cdf, sweep_clients,
                                       per_client / 4 + 1, 11, {});  // warm
                const ZipfRun run = run_zipf_clients(service, query_pool, cdf, sweep_clients,
                                                     per_client, 13, {});
                if (mode == 0) off_qps = run.qps;
                const double speedup = off_qps > 0.0 ? run.qps / off_qps : 0.0;
                const char* label = mode == 0 ? "off" : (mode == 1 ? "shared" : "partitioned");
                if (mode == 1 && skew == max_skew) zipf_gate_speedup = speedup;

                zipf_table.begin_row();
                zipf_table.add(skew, 1);
                zipf_table.add(label);
                zipf_table.add(run.qps, 0);
                zipf_table.add(run.hit_rate, 3);
                zipf_table.add(speedup, 2);

                rec.begin("zipf@" + Table::format_number(skew, 1) + "/" + label);
                rec.add("skew", skew);
                rec.add("cache", label);
                rec.add("clients", static_cast<long long>(sweep_clients));
                rec.add("cache_capacity", static_cast<long long>(cache_capacity));
                rec.add("pool_rows", static_cast<long long>(query_pool.rows()));
                rec.add("qps", run.qps);
                rec.add("hit_rate", run.hit_rate);
                rec.add("speedup_vs_cache_off", speedup);
            }
        }

        // Hit-charging semantics at the highest skew: sessions on a
        // finite budget of per_client/2 inference queries. With
        // hits_charge_budget (the paper-faithful default) a hit spends
        // budget like any query; with it off, only misses charge, so a
        // hot-traffic tenant gets far more answers from the same budget.
        Table charge_table({"hits_charge_budget", "Served/client", "Budget", "q/s", "Hit rate"});
        {
            const std::vector<double> cdf = zipf_cdf(query_pool.rows(), max_skew);
            core::SessionConfig budgeted;
            budgeted.budget.max_inference = per_client / 2;
            for (const bool charge_hits : {true, false}) {
                core::ServiceConfig service_config;
                service_config.pool = pool.get();
                service_config.cache.enabled = true;
                service_config.cache.capacity = cache_capacity;
                service_config.cache.hits_charge_budget = charge_hits;
                core::OracleService service(backend, service_config);
                (void)run_zipf_clients(service, query_pool, cdf, sweep_clients,
                                       per_client / 4 + 1, 17, {});  // warm (unbudgeted)
                const ZipfRun run = run_zipf_clients(service, query_pool, cdf, sweep_clients,
                                                     per_client, 19, budgeted);
                charge_table.begin_row();
                charge_table.add(charge_hits ? "on" : "off");
                charge_table.add(static_cast<double>(run.served) /
                                     static_cast<double>(sweep_clients),
                                 0);
                charge_table.add(static_cast<long long>(budgeted.budget.max_inference));
                charge_table.add(run.qps, 0);
                charge_table.add(run.hit_rate, 3);
                rec.begin(std::string("hit_charge@") + (charge_hits ? "on" : "off"));
                rec.add("hits_charge_budget", charge_hits ? 1ll : 0ll);
                rec.add("skew", max_skew);
                rec.add("budget_per_client", static_cast<long long>(budgeted.budget.max_inference));
                rec.add("served_per_client", static_cast<double>(run.served) /
                                                 static_cast<double>(sweep_clients));
                rec.add("qps", run.qps);
                rec.add("hit_rate", run.hit_rate);
            }
        }

        // -- series 6: the idle path (trickle) -----------------------------------
        //
        // One client, async scalar labels at a fixed gap, far below the
        // backend's capacity: the replica is idle at almost every
        // arrival, so the latency is the cost of the idle path itself
        // (enqueue, flusher wake, one-row backend call, future wake).
        // Recorded without a gate.
        Table trickle_table({"Gap (us)", "Achieved gap (us)", "p50 (us)", "p99 (us)",
                             "Mean batch"});
        for (const long long gap : kTrickleGapsUs) {
            core::ServiceConfig service_config;
            service_config.pool = pool.get();
            core::OracleService service(backend, service_config);
            (void)run_trickle(service, query_pool, std::chrono::microseconds(gap),
                              trickle_queries / 10 + 1);  // warm
            const TrickleRun run = run_trickle(service, query_pool,
                                               std::chrono::microseconds(gap), trickle_queries);
            trickle_table.begin_row();
            trickle_table.add(gap);
            trickle_table.add(run.mean_gap_us, 1);
            trickle_table.add(run.p50_us, 1);
            trickle_table.add(run.p99_us, 1);
            trickle_table.add(run.mean_batch, 2);
            rec.begin("trickle@" + std::to_string(gap) + "us");
            rec.add("gap_us", gap);
            rec.add("achieved_gap_us", run.mean_gap_us);
            rec.add("queries", static_cast<long long>(trickle_queries));
            rec.add("latency_us_p50", run.p50_us);
            rec.add("latency_us_p99", run.p99_us);
            rec.add("mean_coalesced_batch", run.mean_batch);
        }

        std::cout << "\n## Multi-client label-query throughput (784×10 victim, " << workers
                  << (workers == 1 ? " backend worker)\n\n" : " backend workers)\n\n")
                  << table << "\n## Throughput vs coalescing max_batch ("
                  << sweep_clients << " clients)\n\n"
                  << sweep_table << "\n## Throughput vs replica count ("
                  << sweep_clients << " clients, " << core::to_string(routing) << ")\n\n"
                  << replica_table << "\n## Mean batch vs pipeline depth (max_batch "
                  << kDepthSeriesMaxBatch << ", " << sweep_clients << " clients)\n\n"
                  << depth_table << "\n## Zipfian traffic through the result cache ("
                  << sweep_clients << " request-response clients, capacity " << cache_capacity
                  << "/" << query_pool.rows() << " rows)\n\n"
                  << zipf_table << "\n## Hit-charging semantics (skew "
                  << Table::format_number(max_skew, 1) << ", budgeted sessions)\n\n"
                  << charge_table << "\n## Idle path: one client trickling async scalar labels\n\n"
                  << trickle_table;

        const std::string out_path = cli.str("out");
        if (!rec.write(out_path)) {
            std::fprintf(stderr, "bench_service: cannot write %s\n", out_path.c_str());
            return 1;
        }
        std::cout << "\nResults written to " << out_path << "\n";

        // Acceptance gate (full runs): coalesced async submission must
        // buy >= 3x over uncoalesced per-vector (request-response) issue
        // at the highest client count, median over median of the
        // interleaved gate runs. Smoke runs are milliseconds of wall time
        // and not gated.
        int exit_code = 0;
        if (!smoke) {
            const bool pass = gate_speedup >= 3.0;
            std::cout << "coalesced vs uncoalesced per-vector issue at " << gate_clients
                      << " clients (median of " << kGatePairs
                      << " interleaved runs each): " << Table::format_number(gate_speedup, 2)
                      << (pass ? " (PASS, >= 3x)" : " (FAIL, below the 3x target)") << "\n";
            if (!pass) exit_code = 1;

            // Replica-scaling gate: 4 replicas must buy >= 2.5x the
            // single-replica coalesced throughput — but only on hosts
            // with >= 4 cores (one flusher per replica needs a core to
            // run on). Smaller hosts record the numbers without gating.
            if (quad_replica_speedup > 0.0) {
                if (std::thread::hardware_concurrency() >= 4) {
                    const bool replica_pass = quad_replica_speedup >= 2.5;
                    std::cout << "4-replica vs single-replica coalesced throughput: "
                              << Table::format_number(quad_replica_speedup, 2)
                              << (replica_pass ? " (PASS, >= 2.5x)"
                                               : " (FAIL, below the 2.5x target)")
                              << "\n";
                    if (!replica_pass) exit_code = 1;
                } else {
                    std::cout << "4-replica vs single-replica coalesced throughput: "
                              << Table::format_number(quad_replica_speedup, 2)
                              << " (gate skipped: host has < 4 cores; recorded only)\n";
                }
            }

            // Zipf cache gate: the shared cache must buy >= 5x
            // request-response throughput at the highest skew. A hit runs
            // on the submitting thread while a miss pays the queue
            // roundtrip — on a 1-core host the miss baseline is itself
            // throttled by flusher/client context switching, so the ratio
            // is only meaningful with >= 2 cores (recorded regardless).
            if (zipf_gate_speedup > 0.0) {
                if (std::thread::hardware_concurrency() >= 2) {
                    const bool zipf_pass = zipf_gate_speedup >= 5.0;
                    std::cout << "shared-cache vs cache-off throughput at skew "
                              << Table::format_number(max_skew, 1) << ": "
                              << Table::format_number(zipf_gate_speedup, 2)
                              << (zipf_pass ? " (PASS, >= 5x)" : " (FAIL, below the 5x target)")
                              << "\n";
                    if (!zipf_pass) exit_code = 1;
                } else {
                    std::cout << "shared-cache vs cache-off throughput at skew "
                              << Table::format_number(max_skew, 1) << ": "
                              << Table::format_number(zipf_gate_speedup, 2)
                              << " (gate skipped: host has < 2 cores; recorded only)\n";
                }
            }
        }
        return exit_code;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_service: %s\n", e.what());
        return 1;
    }
}
