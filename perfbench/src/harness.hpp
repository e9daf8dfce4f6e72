// Shared pieces of the repository benchmark: arguments, clocks, the span
// tracer, the timing backend wrapper, summary statistics, and the
// interface every workload implements.
//
// The benchmark is a client of the library: it changes no library code.
// End-to-end metrics come from untraced passes. A traced pass records
// spans only around calls made from these files, plus a TimingOracle
// given to the service as its backend, so layers the service calls
// internally are priced from the outside.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "xbarsec/core/decorators.hpp"
#include "xbarsec/core/oracle.hpp"
#include "xbarsec/core/service.hpp"
#include "xbarsec/core/victim.hpp"
#include "xbarsec/data/dataset.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
        .count();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string commit = "unknown";
    std::string source_digest = "unknown";
    std::string out_dir = ".bench_out";
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0
/// for an empty sample.
double quantile(std::vector<double> sample, double q);
inline double median(std::vector<double> sample) { return quantile(std::move(sample), 0.5); }

/// Shortest decimal form that reads back as the same double.
std::string number(double v);

/// Derives an independent 64-bit seed from (seed, stream) — splitmix64.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Content hash of one input row (also computed by TimingOracle for the
/// rows it forwards, so requests can be matched to backend calls).
std::uint64_t row_hash(std::span<const double> row);

// ---- tracing ----------------------------------------------------------------

struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< spans of one request share this
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// In-memory span store. Each thread appends to its own buffer; buffers
/// are read only after the threads that filled them have been joined.
/// Spans are written out once, at exit.
class Tracer {
public:
    static Tracer& instance();

    bool on() const { return on_.load(std::memory_order_relaxed); }
    void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

    /// When set, every open scope publishes itself as the process-wide
    /// active span, and backend spans recorded on other threads take it
    /// as their parent. Only sound with a single client thread.
    void set_publish(bool publish) { publish_ = publish; }

    /// RAII span around one call from the benchmark into a layer. A
    /// no-op while the tracer is off.
    class Scope {
    public:
        Scope(const char* name, std::uint64_t request);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Span span_;
        bool live_ = false;
    };

    /// Records a span with explicit times (the backend wrapper).
    void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

    /// All spans recorded so far, in no particular order.
    std::vector<Span> collect() const;

    /// Per span name and request: the sum over spans of (duration minus
    /// the part of it covered by child spans). Spans without a request
    /// count towards their parent's.
    std::map<std::string, std::map<std::uint64_t, double>> self_times() const;

    std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

    /// Writes every span as CSV (id,parent,request,name,start_ns,end_ns).
    bool write(const std::string& path) const;

private:
    std::vector<Span>& local();
    void push(const Span& span);

    static constexpr std::size_t kMaxSpansPerThread = 1 << 16;

    std::atomic<bool> on_{false};
    bool publish_ = false;
    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<std::uint64_t> active_{0};
    std::atomic<std::uint64_t> dropped_{0};
    mutable std::mutex mutex_;  ///< guards buffers_ (registration and collection)
    std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

// ---- timing backend wrapper -------------------------------------------------

enum class Kind : std::uint8_t { Label, Power };

/// One backend call as the wrapper saw it.
struct BackendCall {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t rows = 0;
    Kind kind = Kind::Label;
    std::size_t first_hash = 0;  ///< index of the first row's hash
};

/// Times every call into the oracle stack below it and records a
/// "core.oracle" span. Handed to the service as its backend in traced
/// passes only, so the untraced passes never pay for it.
class TimingOracle : public xbarsec::core::OracleDecorator {
public:
    explicit TimingOracle(xbarsec::core::Oracle& inner) : OracleDecorator(inner) {}

    // The service calls only the batched forms, and the workloads send
    // no raw-output queries.
    std::vector<int> query_labels(const xbarsec::tensor::Matrix& U) override;
    xbarsec::tensor::Vector query_power_batch(const xbarsec::tensor::Matrix& U) override;

    /// Read only after the service that calls this wrapper has shut down.
    const std::vector<BackendCall>& calls() const { return calls_; }

    /// The first call of `kind` starting at or after `from_ns` whose rows
    /// include `hash`, or nullptr.
    const BackendCall* answering_call(Kind kind, std::uint64_t hash, std::int64_t from_ns) const;

private:
    void note(Kind kind, std::int64_t start, const xbarsec::tensor::Matrix& U);

    std::mutex mutex_;  ///< guards calls_/hashes_ (one flusher writes)
    std::vector<BackendCall> calls_;
    std::vector<std::uint64_t> hashes_;
};

/// Samples the service's queue depth (rows enqueued but unanswered,
/// summed over replicas) every millisecond on its own thread.
class DepthSampler {
public:
    explicit DepthSampler(const xbarsec::core::OracleService& service);
    ~DepthSampler();
    DepthSampler(const DepthSampler&) = delete;
    DepthSampler& operator=(const DepthSampler&) = delete;

    /// Stops sampling and returns the mean depth.
    double stop();

private:
    const xbarsec::core::OracleService& service_;
    std::atomic<bool> stop_{false};
    double sum_ = 0.0;
    std::uint64_t samples_ = 0;
    std::thread thread_;  ///< declared last: uses the members above
};

/// The service-wide per-layer figures every workload reports the same
/// way: routing imbalance (max/mean flushed rows per replica), cache and
/// attribution state.
void service_layers(const xbarsec::core::OracleService& service,
                    std::map<std::string, double>& layer);

// ---- workloads --------------------------------------------------------------

/// Request latencies and answered rows, bucketed into fixed windows of a
/// measured pass. Each window keeps at most kCap latency samples
/// (reservoir sampling), so memory does not grow with throughput once
/// the windows are full.
/// Quantiles and rates are medians over the windows: a transient stall
/// on a shared host moves one window, not the result.
class Windowed {
public:
    Windowed() = default;
    Windowed(double seconds, double window_s);

    /// Records one request that completed `offset_ns` after the pass
    /// started, with its latency and the oracle rows it was answered.
    void add(std::int64_t offset_ns, double latency_us, double rows = 1.0);

    /// Appends another client's samples (same window layout).
    void merge(const Windowed& other);

    /// Sets the true length of the last window once the pass has ended.
    void close(double elapsed_s);

    /// Median over windows of each window's latency quantile.
    double quantile(double q) const;

    /// Median over windows of answered rows per second.
    double rate() const;

    std::uint64_t count() const;  ///< requests recorded
    std::size_t kept() const;     ///< latency samples retained
    std::size_t windows() const { return windows_.size(); }

private:
    static constexpr std::size_t kCap = 4096;

    struct Window {
        std::vector<double> kept;
        std::uint64_t seen = 0;
        double rows = 0.0;
        double length_s = 0.0;
    };
    double window_s_ = 1.0;
    std::vector<Window> windows_;
    std::uint64_t draw_ = 0x9E3779B97F4A7C15ull;  ///< xorshift state for reservoir draws
};

/// What one pass of a workload measured.
struct PassResult {
    Windowed latency;                ///< per request (extract: per campaign)
    std::vector<double> script_s;    ///< per client script (see README)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t slo_eligible = 0;  ///< requests the SLO share is taken over
    std::uint64_t within_slo = 0;
    bool valid = true;
    std::string invalid_reason;
    std::map<std::string, double> detail;  ///< stated alongside the result
    std::map<std::string, double> layer;   ///< per-layer metrics (traced pass)
    std::vector<BackendCall> backend_calls;  ///< every replica, traced pass only
};

/// The stack the layer replays price (replica 0 of the deployment).
struct ReplayTarget {
    xbarsec::core::CrossbarOracle* backend = nullptr;
    xbarsec::core::Oracle* top = nullptr;  ///< physical-defense stack top
    std::size_t decorators = 0;
    const xbarsec::tensor::Matrix* rows = nullptr;  ///< inputs to replay with
};

/// Wall time of the two setup steps that are library layers.
struct SetupTimes {
    double load_s = 0.0;   ///< data::load_mnist_like
    double train_s = 0.0;  ///< core::train_victim
};

/// The synthetic-MNIST 784×10 softmax victim every workload deploys.
struct Victim {
    xbarsec::data::DataSplit split;
    xbarsec::core::VictimConfig config;
    xbarsec::nn::SingleLayerNet net;
};

/// Generates the data and trains the victim from `seed`, timing both
/// steps (and tracing them when the tracer is on).
Victim build_victim(std::uint64_t seed, std::size_t train_count, std::size_t test_count,
                    SetupTimes& times);

/// Answers for every row of `rows`, issued serially as scalar queries:
/// the reference every coalesced answer must equal bit for bit.
struct Reference {
    std::vector<int> label;
    std::vector<double> power;
};
Reference serial_reference(xbarsec::core::Oracle& oracle, const xbarsec::tensor::Matrix& rows);

class Workload {
public:
    virtual ~Workload() = default;

    /// Data generation, victim training, deploy, detector enrolment and
    /// answer references. Called several times; the last build is kept.
    virtual SetupTimes setup(const Args& args) = 0;

    /// Builds a fresh service over the deployment, warms it up (caches
    /// filled, lazy set-up done), then measures the workload for
    /// `seconds`. Traced passes route every replica through a
    /// TimingOracle and fill PassResult::layer.
    virtual PassResult run(double seconds, std::uint64_t pass_seed, bool traced) = 0;
    virtual ReplayTarget replay_target() = 0;

    /// Thread counts and workload parameters for the provenance record.
    virtual std::map<std::string, std::string> describe() const = 0;
};

std::unique_ptr<Workload> make_extract();
std::unique_ptr<Workload> make_interactive();
std::unique_ptr<Workload> make_tenants();

/// Shape replays of the recorded backend calls through tensor::gemm,
/// Crossbar, CrossbarOracle and the decorator stack (layers.cpp).
std::map<std::string, double> replay_layers(const ReplayTarget& target,
                                            const std::vector<BackendCall>& calls);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

}  // namespace perfbench
