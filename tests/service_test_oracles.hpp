// Backend wrappers for the serving-layer tests. A service flusher only
// ever makes batched backend calls, so the wrappers hook exactly those
// and pass scalar calls straight through.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "xbarsec/core/decorators.hpp"
#include "xbarsec/core/oracle.hpp"

namespace xbarsec::core {

/// Forwards every call to `inner`, running before_batch() ahead of each
/// batched call.
class ForwardingOracle : public Oracle {
public:
    explicit ForwardingOracle(Oracle& inner) : inner_(inner) {}

    std::size_t inputs() const override { return inner_.inputs(); }
    std::size_t outputs() const override { return inner_.outputs(); }
    int query_label(const tensor::Vector& u) override { return inner_.query_label(u); }
    tensor::Vector query_raw(const tensor::Vector& u) override { return inner_.query_raw(u); }
    double query_power(const tensor::Vector& u) override { return inner_.query_power(u); }
    std::vector<int> query_labels(const tensor::Matrix& U) override {
        before_batch(U);
        return inner_.query_labels(U);
    }
    tensor::Matrix query_raw_batch(const tensor::Matrix& U) override {
        before_batch(U);
        return inner_.query_raw_batch(U);
    }
    tensor::Vector query_power_batch(const tensor::Matrix& U) override {
        before_batch(U);
        return inner_.query_power_batch(U);
    }
    QueryCounters counters() const override { return inner_.counters(); }
    void reset_counters() override { inner_.reset_counters(); }

protected:
    virtual void before_batch(const tensor::Matrix& U) = 0;

private:
    Oracle& inner_;
};

/// Sleeps on every batched call — the deliberately slowed replica for
/// the least-loaded routing tests.
class SlowOracle : public ForwardingOracle {
public:
    SlowOracle(Oracle& inner, std::chrono::microseconds delay)
        : ForwardingOracle(inner), delay_(delay) {}

protected:
    void before_batch(const tensor::Matrix&) override { std::this_thread::sleep_for(delay_); }

private:
    std::chrono::microseconds delay_;
};

/// Makes coalescing deterministic instead of timing-based. After hold(),
/// the next batched call blocks inside the backend until release(). A
/// test that needs a merge submits one unit, waits until that unit is
/// held, queues its burst, then releases: the service's flusher is busy
/// for the whole burst, so the burst becomes exactly the next batch.
/// Every batched call's row count is logged in call order.
class GatedOracle : public ForwardingOracle {
public:
    using ForwardingOracle::ForwardingOracle;

    void hold() {
        std::lock_guard lock(mutex_);
        armed_ = true;
        held_ = false;
    }

    /// True once a batched call is blocked at the gate. On a 10 s
    /// timeout it opens the gate (so the service can still shut down)
    /// and returns false.
    bool wait_until_held() {
        std::unique_lock lock(mutex_);
        if (cv_.wait_for(lock, std::chrono::seconds(10), [&] { return held_; })) return true;
        armed_ = false;
        cv_.notify_all();
        return false;
    }

    void release() {
        {
            std::lock_guard lock(mutex_);
            armed_ = false;
        }
        cv_.notify_all();
    }

    std::vector<std::size_t> batch_rows() const {
        std::lock_guard lock(mutex_);
        return batch_rows_;
    }

protected:
    void before_batch(const tensor::Matrix& U) override {
        std::unique_lock lock(mutex_);
        batch_rows_.push_back(U.rows());
        if (!armed_) return;
        held_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return !armed_; });
    }

private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool armed_ = false;
    bool held_ = false;
    std::vector<std::size_t> batch_rows_;
};

/// Refuses (QueryRefused) every batched call that carries a row equal to
/// `sentinel`, before it reaches `inner` — a backend that throws on some
/// inputs, for the flusher's per-unit fallback.
class RefusingOracle : public ForwardingOracle {
public:
    RefusingOracle(Oracle& inner, tensor::Vector sentinel)
        : ForwardingOracle(inner), sentinel_(std::move(sentinel)) {}

protected:
    void before_batch(const tensor::Matrix& U) override {
        for (std::size_t r = 0; r < U.rows(); ++r) {
            const auto row = U.row_span(r);
            if (std::equal(row.begin(), row.end(), sentinel_.begin(), sentinel_.end())) {
                throw QueryRefused("sentinel row");
            }
        }
    }

private:
    tensor::Vector sentinel_;
};

}  // namespace xbarsec::core
