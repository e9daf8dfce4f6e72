// Concurrency stress for the serving layer and the decorator stack:
// N threads hammer one service over a shared stack, under ASan/TSan-
// friendly patterns (no sleeps-as-synchronisation, every future drained,
// exact final accounting). Run in CI under ASan+UBSan via the `service`
// ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

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

CrossbarOracle make_oracle(const nn::SingleLayerNet& net, xbar::NonIdealityConfig nonideal = {}) {
    return CrossbarOracle(xbar::CrossbarNetwork(net, ideal_spec(), nonideal), {});
}

data::Dataset make_enrollment(Rng& rng, std::size_t n = 120, std::size_t dim = 16) {
    tensor::Matrix clean = tensor::Matrix::random_uniform(rng, n, dim);
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 3);
    return data::Dataset(std::move(clean), std::move(labels), 3, data::ImageShape{4, 4, 1});
}

constexpr std::size_t kThreads = 8;
constexpr std::size_t kPerThread = 64;

TEST(ServiceStress, DecoratorStackSurvivesConcurrentCallers) {
    // One sensing-noise stack over noisy hardware (atomic measurement
    // counter), served to N concurrent sessions that each carry their own
    // budget and detector screen. Counting must be exact and every noise
    // coordinate unique (the atomic reservation can't hand out
    // duplicates — checked indirectly by the exact counter totals).
    Rng rng(1);
    const nn::SingleLayerNet net = make_net(rng);
    xbar::NonIdealityConfig noisy;
    noisy.read_noise_std = 0.02;
    CrossbarOracle backend = make_oracle(net, noisy);
    const data::Dataset enrollment = make_enrollment(rng);
    const sidechannel::CurrentSignatureDetector detector(backend.hardware_for_evaluation(),
                                                         enrollment);

    NoisyPowerOracle noise_layer(backend, 0.01);
    OracleService service(noise_layer);
    SessionConfig policy;
    policy.budget.max_inference = kPerThread;
    policy.budget.max_power = kPerThread;
    policy.detector = &detector;
    policy.block_flagged = false;
    std::vector<Session> sessions;
    sessions.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) sessions.push_back(service.open_session(policy));

    const tensor::Vector u(net.inputs(), 0.3);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Oracle& oracle = sessions[t].oracle();
            for (std::size_t q = 0; q < kPerThread; ++q) {
                (void)oracle.query_label(u);
                (void)oracle.query_power(u);
            }
        });
    }
    for (auto& t : threads) t.join();

    EXPECT_EQ(backend.counters().inference, kThreads * kPerThread);
    EXPECT_EQ(backend.counters().power, kThreads * kPerThread);
    for (Session& session : sessions) {
        EXPECT_EQ(session.budget_spent().inference, kPerThread);
        EXPECT_EQ(session.budget_spent().power, kPerThread);
        EXPECT_EQ(session.screened(), kPerThread);
    }

    // Measurement-counter reservations were neither lost nor duplicated
    // under concurrency: the same workload issued serially through one
    // session on an identical stack reserves exactly as many (screening
    // and the detector's own hardware reads included).
    Rng rng2(1);
    const nn::SingleLayerNet net2 = make_net(rng2);
    CrossbarOracle serial_backend = make_oracle(net2, noisy);
    const data::Dataset enrollment2 = make_enrollment(rng2);
    const sidechannel::CurrentSignatureDetector detector2(
        serial_backend.hardware_for_evaluation(), enrollment2);
    NoisyPowerOracle serial_noise(serial_backend, 0.01);
    OracleService serial_service(serial_noise);
    SessionConfig serial_policy = policy;
    serial_policy.budget.max_inference = kThreads * kPerThread;
    serial_policy.budget.max_power = kThreads * kPerThread;
    serial_policy.detector = &detector2;
    Session serial = serial_service.open_session(serial_policy);
    for (std::size_t q = 0; q < kThreads * kPerThread; ++q) {
        (void)serial.oracle().query_label(u);
        (void)serial.oracle().query_power(u);
    }
    EXPECT_EQ(serial.screened(), kThreads * kPerThread);
    EXPECT_EQ(backend.hardware_for_evaluation().crossbar().measurement_count(),
              serial_backend.hardware_for_evaluation().crossbar().measurement_count());

    // Each budget is now exactly spent: one more of either kind throws.
    // (Checked last: admission screens before it charges, so the refused
    // label query still reads the detector's hardware.)
    for (Session& session : sessions) {
        EXPECT_THROW(session.submit_label(u), QueryBudgetExceeded);
        EXPECT_THROW(session.submit_power(u), QueryBudgetExceeded);
    }
}

TEST(ServiceStress, ConcurrentSessionsAccountExactly) {
    Rng rng(2);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    ServiceConfig config;
    config.max_batch = 64;
    OracleService service(backend, config);

    std::vector<Session> sessions;
    sessions.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) sessions.push_back(service.open_session());

    const tensor::Matrix U = tensor::Matrix::random_uniform(rng, 32, net.inputs());
    std::atomic<std::uint64_t> answered{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng r(1000 + t);
            std::vector<std::future<int>> window;
            for (std::size_t q = 0; q < kPerThread; ++q) {
                window.push_back(
                    sessions[t].submit_label(U.row(static_cast<std::size_t>(r.below(U.rows())))));
                if (window.size() == 16) {
                    for (auto& f : window) {
                        (void)f.get();
                        answered.fetch_add(1, std::memory_order_relaxed);
                    }
                    window.clear();
                }
            }
            for (auto& f : window) {
                (void)f.get();
                answered.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto& t : threads) t.join();

    EXPECT_EQ(answered.load(), kThreads * kPerThread);
    EXPECT_EQ(service.counters().inference, kThreads * kPerThread);
    EXPECT_EQ(backend.counters().inference, kThreads * kPerThread);
    EXPECT_EQ(service.flushed_rows(), kThreads * kPerThread);
    std::uint64_t per_session = 0;
    for (auto& s : sessions) per_session += s.counters().inference;
    EXPECT_EQ(per_session, kThreads * kPerThread);
    EXPECT_EQ(service.sessions_opened(), kThreads);
}

TEST(ServiceStress, CounterSnapshotsAreMonotoneUnderLoad) {
    // The QueryCounters satellite: concurrent snapshots of session and
    // service counters must never run backwards between resets.
    Rng rng(3);
    const nn::SingleLayerNet net = make_net(rng);
    CrossbarOracle backend = make_oracle(net);
    OracleService service(backend);
    Session session = service.open_session();
    const tensor::Vector u(net.inputs(), 0.4);

    std::atomic<bool> done{false};
    std::atomic<bool> monotone{true};
    std::thread observer([&] {
        QueryCounters last_session, last_service;
        while (!done.load(std::memory_order_acquire)) {
            const QueryCounters s = session.counters();
            const QueryCounters svc = service.counters();
            if (s.inference < last_session.inference || s.power < last_session.power ||
                svc.inference < last_service.inference || svc.power < last_service.power ||
                s.total() < last_session.total() || svc.total() < last_service.total()) {
                monotone.store(false, std::memory_order_release);
            }
            last_session = s;
            last_service = svc;
        }
    });
    std::vector<std::future<double>> pending;
    pending.reserve(256);
    for (std::size_t q = 0; q < 256; ++q) pending.push_back(session.submit_power(u));
    for (auto& f : pending) (void)f.get();
    done.store(true, std::memory_order_release);
    observer.join();

    EXPECT_TRUE(monotone.load());
    EXPECT_EQ(session.counters().power, 256u);

    // Reset semantics: service and session counters reset independently
    // and start counting again from zero.
    service.reset_counters();
    EXPECT_EQ(service.counters().total(), 0u);
    EXPECT_EQ(session.counters().power, 256u);
    session.reset_counters();
    EXPECT_EQ(session.counters().total(), 0u);
    (void)session.submit_power(u).get();
    EXPECT_EQ(session.counters().power, 1u);
    EXPECT_EQ(service.counters().power, 1u);
}

TEST(ServiceStress, MixedKindsFromManySessionsOverNoisyHardware) {
    // All three kinds racing from 8 sessions over a read-noise device:
    // exercises the atomic measurement-counter reservation through the
    // coalescer's grouped backend calls. Exact accounting, no crashes,
    // every future resolves.
    Rng rng(4);
    const nn::SingleLayerNet net = make_net(rng);
    xbar::NonIdealityConfig noisy;
    noisy.read_noise_std = 0.05;
    CrossbarOracle backend = make_oracle(net, noisy);
    ServiceConfig config;
    config.max_batch = 32;
    OracleService service(backend, config);

    std::vector<Session> sessions;
    for (std::size_t t = 0; t < kThreads; ++t) sessions.push_back(service.open_session());
    const tensor::Vector u(net.inputs(), 0.6);

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t q = 0; q < kPerThread / 4; ++q) {
                auto fl = sessions[t].submit_label(u);
                auto fr = sessions[t].submit_raw(u);
                auto fp = sessions[t].submit_power(u);
                (void)fl.get();
                (void)fr.get();
                (void)fp.get();
            }
        });
    }
    for (auto& t : threads) t.join();

    const std::uint64_t per_kind = kThreads * (kPerThread / 4);
    EXPECT_EQ(service.counters().inference, 2 * per_kind);
    EXPECT_EQ(service.counters().power, per_kind);
    EXPECT_EQ(backend.counters().inference, 2 * per_kind);
    EXPECT_EQ(backend.counters().power, per_kind);
}

}  // namespace
}  // namespace xbarsec::core
