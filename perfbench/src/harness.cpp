#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "xbarsec/data/loaders.hpp"

namespace perfbench {

using namespace xbarsec;

std::string number(double v) {
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return std::string(buf, end);
}

double quantile(std::vector<double> sample, double q) {
    if (sample.empty()) return 0.0;
    std::sort(sample.begin(), sample.end());
    const double pos = q * static_cast<double>(sample.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sample.size() - 1);
    return sample[lo] + (pos - static_cast<double>(lo)) * (sample[hi] - sample[lo]);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t row_hash(std::span<const double> row) {
    std::uint64_t h = 0x84222325CBF29CE4ull;
    for (const double x : row) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &x, sizeof bits);
        h = (h ^ bits) * 0x100000001B3ull;
        h ^= h >> 29;
    }
    return h;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

Victim build_victim(std::uint64_t seed, std::size_t train_count, std::size_t test_count,
                    SetupTimes& times) {
    data::LoadOptions load;
    load.train_count = train_count;
    load.test_count = test_count;
    load.seed = derive_seed(seed, 10);
    std::int64_t t0 = now_ns();
    data::DataSplit split = [&] {
        Tracer::Scope span("data.load", 0);
        return data::load_mnist_like(load);
    }();
    times.load_s = static_cast<double>(now_ns() - t0) * 1e-9;

    core::VictimConfig config = core::VictimConfig::defaults(core::OutputConfig::softmax_ce());
    config.train.epochs = 10;
    config.train.shuffle_seed = derive_seed(seed, 11);
    config.init_seed = derive_seed(seed, 12);
    t0 = now_ns();
    core::TrainedVictim victim = [&] {
        Tracer::Scope span("nn.train_victim", 0);
        return core::train_victim(split, config);
    }();
    times.train_s = static_cast<double>(now_ns() - t0) * 1e-9;
    return Victim{std::move(split), config, std::move(victim.net)};
}

Reference serial_reference(core::Oracle& oracle, const tensor::Matrix& rows) {
    Reference ref;
    ref.label.resize(rows.rows());
    ref.power.resize(rows.rows());
    for (std::size_t r = 0; r < rows.rows(); ++r) {
        const tensor::Vector u = rows.row(r);
        ref.label[r] = oracle.query_label(u);
        ref.power[r] = oracle.query_power(u);
    }
    return ref;
}

// ---- Windowed ---------------------------------------------------------------

Windowed::Windowed(double seconds, double window_s)
    : window_s_(window_s),
      windows_(static_cast<std::size_t>(std::max(1.0, std::ceil(seconds / window_s - 1e-9)))) {
    for (Window& w : windows_) w.length_s = window_s;
}

void Windowed::add(std::int64_t offset_ns, double latency_us, double rows) {
    const double at = static_cast<double>(std::max<std::int64_t>(offset_ns, 0)) * 1e-9;
    const std::size_t k =
        std::min(static_cast<std::size_t>(at / window_s_), windows_.size() - 1);
    Window& w = windows_[k];
    w.rows += rows;
    ++w.seen;
    if (w.kept.size() < kCap) {
        w.kept.push_back(latency_us);
        return;
    }
    draw_ ^= draw_ << 13;
    draw_ ^= draw_ >> 7;
    draw_ ^= draw_ << 17;
    if (const std::uint64_t slot = draw_ % w.seen; slot < kCap) w.kept[slot] = latency_us;
}

void Windowed::merge(const Windowed& other) {
    for (std::size_t k = 0; k < windows_.size() && k < other.windows_.size(); ++k) {
        Window& w = windows_[k];
        const Window& o = other.windows_[k];
        w.kept.insert(w.kept.end(), o.kept.begin(), o.kept.end());
        w.seen += o.seen;
        w.rows += o.rows;
    }
}

void Windowed::close(double elapsed_s) {
    windows_.back().length_s =
        elapsed_s - window_s_ * static_cast<double>(windows_.size() - 1);
}

double Windowed::quantile(double q) const {
    std::vector<double> per_window;
    for (const Window& w : windows_) {
        if (!w.kept.empty()) per_window.push_back(perfbench::quantile(w.kept, q));
    }
    return median(std::move(per_window));
}

double Windowed::rate() const {
    std::vector<double> per_window;
    for (const Window& w : windows_) {
        if (w.length_s >= 0.5 * window_s_) per_window.push_back(w.rows / w.length_s);
    }
    return median(std::move(per_window));
}

std::uint64_t Windowed::count() const {
    std::uint64_t n = 0;
    for (const Window& w : windows_) n += w.seen;
    return n;
}

std::size_t Windowed::kept() const {
    std::size_t n = 0;
    for (const Window& w : windows_) n += w.kept.size();
    return n;
}

// ---- Tracer -----------------------------------------------------------------

namespace {
thread_local std::vector<Span>* t_buffer = nullptr;
thread_local std::uint64_t t_open = 0;  ///< innermost open scope on this thread
}  // namespace

Tracer& Tracer::instance() {
    static Tracer tracer;
    return tracer;
}

std::vector<Span>& Tracer::local() {
    if (t_buffer == nullptr) {
        auto buffer = std::make_unique<std::vector<Span>>();
        buffer->reserve(1024);
        std::lock_guard lock(mutex_);
        t_buffer = buffer.get();
        buffers_.push_back(std::move(buffer));
    }
    return *t_buffer;
}

void Tracer::push(const Span& span) {
    std::vector<Span>& buffer = local();
    if (buffer.size() >= kMaxSpansPerThread) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    buffer.push_back(span);
}

Tracer::Scope::Scope(const char* name, std::uint64_t request) {
    Tracer& t = Tracer::instance();
    if (!t.on()) return;
    live_ = true;
    span_.name = name;
    span_.id = t.next_id_.fetch_add(1, std::memory_order_relaxed);
    span_.parent = t_open;
    span_.request = request;
    t_open = span_.id;
    if (t.publish_) t.active_.store(span_.id, std::memory_order_relaxed);
    span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
    if (!live_) return;
    span_.end_ns = now_ns();
    Tracer& t = Tracer::instance();
    t_open = span_.parent;
    if (t.publish_) t.active_.store(span_.parent, std::memory_order_relaxed);
    t.push(span_);
}

void Tracer::record(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    if (!on()) return;
    Span span;
    span.name = name;
    span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    span.parent = publish_ ? active_.load(std::memory_order_relaxed) : 0;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    push(span);
}

std::vector<Span> Tracer::collect() const {
    std::lock_guard lock(mutex_);
    std::vector<Span> all;
    for (const auto& buffer : buffers_) all.insert(all.end(), buffer->begin(), buffer->end());
    return all;
}

std::map<std::string, std::map<std::uint64_t, double>> Tracer::self_times() const {
    const std::vector<Span> spans = collect();
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
    std::unordered_map<std::uint64_t, std::uint64_t> request_of;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
        request_of[spans[i].id] = spans[i].request;
    }
    std::map<std::string, std::map<std::uint64_t, double>> out;
    for (const Span& s : spans) {
        std::vector<std::pair<std::int64_t, std::int64_t>> covered;
        if (const auto it = children.find(s.id); it != children.end()) {
            for (const std::size_t c : it->second) {
                const std::int64_t a = std::max(s.start_ns, spans[c].start_ns);
                const std::int64_t b = std::min(s.end_ns, spans[c].end_ns);
                if (b > a) covered.emplace_back(a, b);
            }
        }
        std::sort(covered.begin(), covered.end());
        std::int64_t busy = 0;
        std::int64_t reach = s.start_ns;
        for (const auto& [a, b] : covered) {
            const std::int64_t from = std::max(a, reach);
            if (b > from) busy += b - from;
            reach = std::max(reach, b);
        }
        const double self = static_cast<double>(s.end_ns - s.start_ns - busy) * 1e-9;
        std::uint64_t request = s.request;
        if (request == 0 && s.parent != 0) {
            if (const auto it = request_of.find(s.parent); it != request_of.end()) {
                request = it->second;
            }
        }
        out[s.name][request] += self;
    }
    return out;
}

bool Tracer::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "id,parent,request,name,start_ns,end_ns\n";
    for (const Span& s : collect()) {
        out << s.id << ',' << s.parent << ',' << s.request << ',' << s.name << ',' << s.start_ns
            << ',' << s.end_ns << '\n';
    }
    return static_cast<bool>(out);
}

// ---- service telemetry ------------------------------------------------------

DepthSampler::DepthSampler(const core::OracleService& service)
    : service_(service), thread_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
              std::size_t depth = 0;
              for (std::size_t k = 0; k < service_.replica_count(); ++k) {
                  depth += service_.queue_depth(k);
              }
              sum_ += static_cast<double>(depth);
              ++samples_;
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
      }) {}

DepthSampler::~DepthSampler() { (void)stop(); }

double DepthSampler::stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return samples_ > 0 ? sum_ / static_cast<double>(samples_) : 0.0;
}

void service_layers(const core::OracleService& service, std::map<std::string, double>& layer) {
    double max_rows = 0.0, sum_rows = 0.0;
    for (std::size_t k = 0; k < service.replica_count(); ++k) {
        const auto rows = static_cast<double>(service.flushed_rows(k));
        max_rows = std::max(max_rows, rows);
        sum_rows += rows;
    }
    const double mean_rows = sum_rows / static_cast<double>(service.replica_count());
    layer["core.service.routing.imbalance"] = mean_rows > 0.0 ? max_rows / mean_rows : 0.0;
    layer["core.service.cache.hit_rate"] = service.cache_hit_rate();
    layer["core.service.cache.evictions"] = static_cast<double>(service.cache_evictions());
    layer["attrib.campaigns"] = static_cast<double>(service.attribution_campaign_count());
    layer["attrib.alert"] = service.attribution_alert() ? 1.0 : 0.0;
}

// ---- TimingOracle -----------------------------------------------------------

void TimingOracle::note(Kind kind, std::int64_t start, const tensor::Matrix& U) {
    const std::int64_t end = now_ns();
    Tracer::instance().record("core.oracle", start, end);
    std::lock_guard lock(mutex_);
    BackendCall call;
    call.start_ns = start;
    call.end_ns = end;
    call.rows = static_cast<std::uint32_t>(U.rows());
    call.kind = kind;
    call.first_hash = hashes_.size();
    for (std::size_t r = 0; r < U.rows(); ++r) hashes_.push_back(row_hash(U.row_span(r)));
    calls_.push_back(call);
}

std::vector<int> TimingOracle::query_labels(const tensor::Matrix& U) {
    const std::int64_t start = now_ns();
    std::vector<int> out = OracleDecorator::query_labels(U);
    note(Kind::Label, start, U);
    return out;
}

tensor::Vector TimingOracle::query_power_batch(const tensor::Matrix& U) {
    const std::int64_t start = now_ns();
    tensor::Vector out = OracleDecorator::query_power_batch(U);
    note(Kind::Power, start, U);
    return out;
}

const BackendCall* TimingOracle::answering_call(Kind kind, std::uint64_t hash,
                                                std::int64_t from_ns) const {
    auto it = std::lower_bound(calls_.begin(), calls_.end(), from_ns,
                               [](const BackendCall& c, std::int64_t t) { return c.start_ns < t; });
    // A row is answered by one of the next few flushes after it was
    // submitted; bound the scan so an unmatched row costs O(1).
    for (std::size_t scanned = 0; it != calls_.end() && scanned < 256; ++it, ++scanned) {
        if (it->kind != kind) continue;
        for (std::uint32_t r = 0; r < it->rows; ++r) {
            if (hashes_[it->first_hash + r] == hash) return &*it;
        }
    }
    return nullptr;
}

}  // namespace perfbench
