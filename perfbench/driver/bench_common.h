// Shared pieces of the end-to-end benchmark driver: the workload table,
// a small JSON writer for the raw report that run.py aggregates, the span
// recorder used by traced runs, and process/host probes.

#ifndef PERFBENCH_DRIVER_BENCH_COMMON_H_
#define PERFBENCH_DRIVER_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/join_stats.h"
#include "core/similarity.h"
#include "datagen/presets.h"
#include "planner/cost_model.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds since the first call in this process (span time base).
inline double NowMs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

/// One benchmark workload: which preset at which size. The seed draws a
/// relabelled, shifted copy of one base corpus of that preset and size,
/// not a fresh sample (see prepare.cc): heavy-tailed user sizes make the
/// work of fresh samples differ by a fifth or more between seeds, while a
/// copy differs in every input byte but not in the work it takes.
struct WorkloadSpec {
  std::string name;
  stps::DatasetKind kind;
  size_t num_users;
};

/// The workload table; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Minimal streaming JSON writer. Keys and values are appended in call
/// order; commas are inserted automatically.
class JsonWriter {
 public:
  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }

  void Key(std::string_view key) {
    Separate();
    AppendString(key);
    out_ += ':';
    after_key_ = true;
  }
  void String(std::string_view value) {
    Separate();
    AppendString(value);
  }
  void Number(double value) {
    Separate();
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out_ += buffer;
  }
  void Bool(bool value) {
    Separate();
    out_ += value ? "true" : "false";
  }

  void Field(std::string_view key, double value) {
    Key(key);
    Number(value);
  }
  void Field(std::string_view key, std::string_view value) {
    Key(key);
    String(value);
  }
  void Field(std::string_view key, const char* value) {
    Field(key, std::string_view(value));
  }
  void FieldBool(std::string_view key, bool value) {
    Key(key);
    Bool(value);
  }
  void Field(std::string_view key, const std::vector<double>& values) {
    Key(key);
    BeginArray();
    for (const double v : values) Number(v);
    EndArray();
  }

  const std::string& str() const { return out_; }

 private:
  void Open(char c) {
    Separate();
    out_ += c;
    first_.push_back(true);
  }
  void Close(char c) {
    out_ += c;
    first_.pop_back();
  }
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  void AppendString(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// In-memory span recorder for traced runs. Spans are kept until the
/// report is written at exit; a disabled tracer records nothing. Only the
/// driver's main thread records (the server's threads are observed from
/// the client side), so no locking is needed.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh request id; spans of one request share it.
  uint64_t NewRequest() { return ++last_request_; }

  /// Opens a span as a child of the innermost open span; returns its
  /// handle for Close. `name` is "<layer>.<operation>".
  size_t Open(const char* name, uint64_t request = 0) {
    if (!enabled_) return 0;
    spans_.push_back({name, Parent(), request, NowMs(), -1.0});
    open_.push_back(spans_.size());
    return spans_.size();
  }

  void Close(size_t handle) {
    if (!enabled_ || handle == 0) return;
    spans_[handle - 1].end_ms = NowMs();
    if (!open_.empty() && open_.back() == handle) open_.pop_back();
  }

  /// Records an already finished span (an asynchronous request observed
  /// from the client), parented to the innermost open span.
  void Add(const char* name, double start_ms, double end_ms,
           uint64_t request) {
    if (!enabled_) return;
    spans_.push_back({name, Parent(), request, start_ms, end_ms});
  }

  /// Writes the spans as an array of {name, id, parent, request, start,
  /// end} (ids are 1-based; parent 0 marks a root).
  void Write(JsonWriter* json) const {
    json->BeginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json->BeginObject();
      json->Field("name", s.name);
      json->Field("id", static_cast<double>(i + 1));
      json->Field("parent", static_cast<double>(s.parent));
      json->Field("request", static_cast<double>(s.request));
      json->Field("start", s.start_ms);
      json->Field("end", s.end_ms < 0 ? s.start_ms : s.end_ms);
      json->EndObject();
    }
    json->EndArray();
  }

 private:
  struct Span {
    const char* name;
    size_t parent;
    uint64_t request;
    double start_ms;
    double end_ms;
  };

  size_t Parent() const { return open_.empty() ? 0 : open_.back(); }

  const bool enabled_;
  uint64_t last_request_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer), handle_(tracer->Open(name, request)) {}
  ~ScopedSpan() { tracer_->Close(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t handle_;
};

/// Order-sensitive FNV-1a digest of a result list (pairs and exact score
/// bits), so two runs agree only when they return identical answers.
inline uint64_t ResultChecksum(const std::vector<stps::ScoredUserPair>& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(r.size());
  for (const stps::ScoredUserPair& p : r) {
    uint64_t bits = 0;
    std::memcpy(&bits, &p.score, sizeof(bits));
    mix(p.a);
    mix(p.b);
    mix(bits);
  }
  return h;
}

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Writes the build/host facts the report is stamped with.
void WriteBuildInfo(JsonWriter* json);

/// A pass/fail output check for the report.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

inline void WriteChecks(const std::vector<Check>& checks, JsonWriter* json) {
  json->Key("checks");
  json->BeginArray();
  for (const Check& c : checks) {
    json->BeginObject();
    json->Field("name", c.name);
    json->FieldBool("ok", c.ok);
    json->Field("detail", c.detail);
    json->EndObject();
  }
  json->EndArray();
}

/// num / den, or 0 when there is no base.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// "S-PPJ-F/t2": the plan's algorithm and thread count.
std::string ShapeLabel(const stps::PlanShape& shape);

/// Set-up components a traced run times on their own, once, on the
/// loaded database.
struct SetupParts {
  double stats_ms = 0.0;   // ComputePlannerStats
  double sketch_ms = 0.0;  // BuildUserSketches
};
SetupParts TimeSetupParts(const stps::ObjectDatabase& db, Tracer* tracer,
                          std::vector<Check>* checks);
/// planner.stats_ms and sketch.build_ms.
void WriteSetupParts(const SetupParts& parts, JsonWriter* json);

/// The JoinStats-derived per-layer counts and ratios (core, spatial,
/// text, sketch).
void WriteJoinStatsLayers(const stps::JoinStats& s, JsonWriter* json);

/// Opens the report object and writes the fields every run shares.
void WriteReportHead(const WorkloadSpec& workload, uint64_t objects,
                     uint64_t users, const std::vector<Check>& checks,
                     uint64_t attempted, uint64_t failed, JsonWriter* json);

/// Options shared by the run modes.
struct RunOptions {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string snapshot;  // v3 file written by the prepare mode
};

/// The three modes; each writes its raw JSON report into *json.
int RunPrepare(const RunOptions& options, JsonWriter* json);
int RunSweep(const RunOptions& options, JsonWriter* json);
int RunServe(const RunOptions& options, JsonWriter* json);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_COMMON_H_
