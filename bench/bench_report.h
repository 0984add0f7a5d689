// Machine-readable bench output (schema `cim.bench.v1`, docs/BENCHMARKS.md).
//
// Each bench keeps printing its human table and *additionally* emits a JSON
// report: one named row per configuration, with numeric fields in base units
// (durations in virtual-time nanoseconds, counts as integers, ratios as
// doubles). The report is written to `BENCH_<name>.json` in the working
// directory when the bench exits.
//
// Environment:
//   CIM_BENCH_JSON=0      disable JSON emission;
//   CIM_BENCH_JSON=<dir>  write `<dir>/BENCH_<name>.json` instead of ./.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "obs/json.h"
#include "sim/time.h"

namespace cim::bench {

inline constexpr int kBenchSchemaVersion = 2;

// Build identification baked into every report so a JSON file is
// self-describing: regressions across differently-built binaries (Debug vs
// Release, different compilers) are build artifacts, not code changes, and
// compare_benches.py warns when these fields differ.
inline const char* compiler_id() {
#if defined(__clang__)
  return "clang";
#elif defined(__GNUC__)
  return "gcc";
#else
  return "unknown";
#endif
}

inline std::string compiler_version() {
#if defined(__clang_major__)
  return std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) +
         "." + std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

inline const char* build_type() {
#if defined(CIM_BUILD_TYPE)
  return CIM_BUILD_TYPE;
#else
  return "unknown";
#endif
}

inline const char* git_sha() {
#if defined(CIM_GIT_SHA)
  return CIM_GIT_SHA;
#else
  return "unknown";
#endif
}

inline const char* sanitize_flags() {
#if defined(CIM_SANITIZE)
  return "asan,ubsan";
#else
  return "none";
#endif
}

class JsonReport {
 public:
  /// `name` becomes the file stem: BENCH_<name>.json.
  explicit JsonReport(std::string name) : name_(std::move(name)) {}
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() { write(); }

  class Row {
   public:
    Row& field(std::string key, std::string value) {
      return put(std::move(key), std::move(value));
    }
    Row& field(std::string key, const char* value) {
      return put(std::move(key), std::string(value));
    }
    Row& field(std::string key, double value) {
      return put(std::move(key), value);
    }
    Row& field(std::string key, std::int64_t value) {
      return put(std::move(key), value);
    }
    Row& field(std::string key, std::uint64_t value) {
      return put(std::move(key), static_cast<std::int64_t>(value));
    }
    Row& field(std::string key, int value) {
      return put(std::move(key), static_cast<std::int64_t>(value));
    }
    Row& field(std::string key, bool value) {
      return put(std::move(key), value);
    }
    /// Durations are reported as `<key>_ns` integer nanoseconds.
    Row& field_ns(std::string key, sim::Duration d) {
      return field(std::move(key) + "_ns", d.ns);
    }

   private:
    friend class JsonReport;
    using Val = std::variant<std::string, double, std::int64_t, bool>;

    // The value is constructed in place: moving a temporary Val into the
    // pair trips GCC 12's -Wmaybe-uninitialized on the variant's inactive
    // alternatives.
    template <typename T>
    Row& put(std::string key, T value) {
      fields_.emplace_back(std::piecewise_construct,
                           std::forward_as_tuple(std::move(key)),
                           std::forward_as_tuple(std::in_place_type<T>,
                                                 std::move(value)));
      return *this;
    }
    std::vector<std::pair<std::string, Val>> fields_;
  };

  /// Add a named row; populate it with chained .field() calls.
  Row& row(std::string name) {
    rows_.emplace_back();
    rows_.back().field("row", std::move(name));
    return rows_.back();
  }

  /// Record a bench-level parameter in the `meta` object (e.g. the workload
  /// seed). Compiler, build type and git SHA are stamped automatically.
  void meta(std::string key, std::string value) {
    meta_.emplace_back(std::move(key), std::move(value));
  }
  void meta(std::string key, std::uint64_t value) {
    meta(std::move(key), std::to_string(value));
  }

  /// Flush the report (also runs at destruction; idempotent).
  void write() {
    if (written_) return;
    written_ = true;
    const char* env = std::getenv("CIM_BENCH_JSON");
    if (env != nullptr && std::string_view(env) == "0") return;
    std::string path = "BENCH_" + name_ + ".json";
    if (env != nullptr && *env != '\0') path = std::string(env) + "/" + path;
    std::ofstream os(path);
    if (!os) {
      std::cerr << "bench: cannot write " << path << "\n";
      return;
    }
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "cim.bench.v1");
    w.kv("v", kBenchSchemaVersion);
    w.kv("bench", name_);
    w.key("meta");
    w.begin_object();
    w.kv("compiler", compiler_id());
    w.kv("compiler_version", compiler_version());
    w.kv("build_type", build_type());
    w.kv("git_sha", git_sha());
    w.kv("sanitize", sanitize_flags());
    for (const auto& [key, value] : meta_) w.kv(key, value);
    w.end_object();
    w.key("rows");
    w.begin_array();
    for (const Row& row : rows_) {
      w.begin_object();
      for (const auto& [key, val] : row.fields_) {
        w.key(key);
        std::visit([&w](const auto& v) { w.value(v); }, val);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    std::cout << "\n[json report: " << path << "]\n";
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<Row> rows_;
  bool written_ = false;
};

}  // namespace cim::bench
