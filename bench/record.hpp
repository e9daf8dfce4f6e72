// Shared bench-result recorder.
//
// Every bench executable that persists measurements emits the same JSON
// shape through this recorder, so tooling (CI artifact diffing, the
// README's reproduction instructions) can treat BENCH_*.json files
// uniformly:
//
//   {
//     "bench": "<name>",
//     "setup": "<one-line config context>; host: <host_provenance()>",
//     "results": [ {"label": "...", "<key>": <value>, ...}, ... ]
//   }
//
// Values are numbers or strings; insertion order is preserved.
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/tensor/gemm.hpp"

#ifndef XBARSEC_BUILD_TYPE
#define XBARSEC_BUILD_TYPE "unknown"
#endif

namespace xbarsec::bench {

/// The host and build a measurement came from: core count, the ISA
/// extensions the GEMM arms dispatch on, the forced kernel variant
/// (XBARSEC_FORCE_KERNEL / set_kernel_variant, "auto" when unforced),
/// the CMake build type and the compiler.
inline std::string host_provenance() {
    std::string isa;
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    for (const auto& [flag, present] :
         {std::pair{"avx2", __builtin_cpu_supports("avx2")},
          {"fma", __builtin_cpu_supports("fma")}, {"avx512f", __builtin_cpu_supports("avx512f")}}) {
        if (present == 0) continue;
        if (!isa.empty()) isa += ',';
        isa += flag;
    }
#endif
    if (isa.empty()) isa = "baseline";
    std::ostringstream os;
    os << "cores=" << std::thread::hardware_concurrency() << " isa=" << isa
       << " kernel=" << tensor::to_string(tensor::forced_kernel_variant())
       << " build=" << XBARSEC_BUILD_TYPE << " compiler=";
#if defined(__clang__)
    os << "clang " << __clang_version__;
#elif defined(__GNUC__)
    os << "gcc " << __VERSION__;
#else
    os << "unknown";
#endif
    return os.str();
}

class BenchRecorder {
public:
    /// `setup` describes the configuration; host provenance is appended.
    BenchRecorder(std::string name, const std::string& setup)
        : name_(std::move(name)), setup_(setup + "; host: " + host_provenance()) {}

    /// Starts a result row. Subsequent add() calls attach fields to it.
    void begin(const std::string& label) {
        rows_.emplace_back();
        add("label", label);
    }

    void add(const std::string& key, const std::string& value) {
        std::string quoted(1, '"');
        quoted += escaped(value);
        quoted += '"';
        field(key, std::move(quoted));
    }
    void add(const std::string& key, const char* value) { add(key, std::string(value)); }
    void add(const std::string& key, double value) {
        std::ostringstream os;
        os.precision(10);
        os << value;
        field(key, os.str());
    }
    void add(const std::string& key, long long value) { field(key, std::to_string(value)); }
    void add(const std::string& key, std::size_t value) {
        field(key, std::to_string(value));
    }

    std::size_t size() const { return rows_.size(); }

    /// Writes the JSON file; returns false when the file cannot be opened.
    bool write(const std::string& path) const {
        std::ofstream out(path);
        if (!out) return false;
        out << "{\n  \"bench\": \"" << escaped(name_) << "\",\n  \"setup\": \"" << escaped(setup_)
            << "\",\n  \"results\": [\n";
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            out << "    {";
            for (std::size_t f = 0; f < rows_[r].size(); ++f) {
                out << "\"" << rows_[r][f].first << "\": " << rows_[r][f].second;
                if (f + 1 < rows_[r].size()) out << ", ";
            }
            out << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
        return static_cast<bool>(out);
    }

private:
    void field(const std::string& key, std::string serialized) {
        XS_EXPECTS_MSG(!rows_.empty(), "BenchRecorder::begin() a row before adding fields");
        rows_.back().emplace_back(key, std::move(serialized));
    }

    static std::string escaped(const std::string& s) {
        std::string out;
        out.reserve(s.size());
        for (const char c : s) {
            if (c == '"' || c == '\\') out.push_back('\\');
            out.push_back(c);
        }
        return out;
    }

    std::string name_;
    std::string setup_;
    std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

}  // namespace xbarsec::bench
