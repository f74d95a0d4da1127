// Shared helpers for the benchmark binary: timing, a minimal JSON writer and
// the registry reads every workload reports as its work ledger.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/metrics_registry.h"

namespace perfbench {

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// JSON number with every digit (round-trippable doubles).
inline std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
inline std::string Num(unsigned long v) { return std::to_string(v); }
inline std::string Num(unsigned long long v) { return std::to_string(v); }
inline std::string Num(long v) { return std::to_string(v); }
inline std::string Num(long long v) { return std::to_string(v); }
inline std::string Num(int v) { return std::to_string(v); }

inline std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string Bool(bool b) { return b ? "true" : "false"; }

template <class T>
std::string Array(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += Num(values[i]);
  }
  return out + "]";
}

/// Insertion-ordered JSON object of pre-rendered values.
class Json {
 public:
  Json& Set(const std::string& key, const std::string& raw) {
    for (auto& kv : fields_) {
      if (kv.first == key) {
        kv.second = raw;
        return *this;
      }
    }
    fields_.emplace_back(key, raw);
    return *this;
  }
  Json& Set(const std::string& key, const Json& obj) { return Set(key, obj.str()); }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ',';
      out += Str(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Counters of the process-wide registry, by name.
inline std::map<std::string, std::uint64_t> Counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : uavres::telemetry::MetricsRegistry::Global().SnapshotCounters()) {
    out[c.name] = c.value;
  }
  return out;
}

/// The named counters as a JSON object (missing ones read 0).
inline Json Ledger(const std::vector<std::string>& names) {
  const auto all = Counters();
  Json j;
  for (const auto& n : names) {
    const auto it = all.find(n);
    j.Set(n, Num(it == all.end() ? std::uint64_t{0} : it->second));
  }
  return j;
}

/// Pass/fail tally of the benchmark's own correctness checks. Every failed
/// check is named, so a failing run says what broke.
struct Checks {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;

  /// Counts `n` operations, `bad` of which failed the named check.
  void Ops(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0) failures.push_back(what + " (" + std::to_string(bad) + ")");
  }
  /// A whole-run property (identity across passes, hit ratio, ...): it
  /// fails the run without being one of the counted operations.
  void Require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  bool ok() const { return failures.empty() && failed == 0; }
  Json ToJson() const {
    std::string list = "[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      if (i) list += ',';
      list += Str(failures[i]);
    }
    Json j;
    j.Set("attempted", Num(attempted)).Set("failed", Num(failed)).Set("failures", list + "]");
    return j;
  }
};

/// Stable 64-bit FNV-1a over bytes: fingerprints serialized results so two
/// passes can be compared without keeping both in memory.
inline std::uint64_t Fnv1a(const std::string& bytes, std::uint64_t h = 14695981039346656037ULL) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::string Hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed{2024};
  double seconds{10.0};
  bool trace{false};
  std::string work_dir;  ///< scratch space for stores and traces
  /// Campaign and serve workers, and the fleet's traced scaling run (its
  /// timed passes use one worker; see workloads.cpp).
  int workers{2};
};

/// Writes the recorder's buffered events to `<work_dir>/trace_<name>.json`
/// and clears the buffer. Call once the traced pass has quiesced.
void WriteTrace(const Options& opt, const std::string& name);

/// Peak resident memory of the process since start or since the last
/// ResetPeakRss, in MiB. Each workload reads it right after its first
/// timed pass: later passes reuse the heap of the first, and with two
/// workers' malloc arenas they add a few hundred KiB in an order set by
/// timing, which the memory bound would read as a change.
double PeakRssMiB();

/// Returns freed heap to the system and restarts the peak at the current
/// resident size, so a workload's set-up stays out of its peak. False when
/// the kernel refuses the reset.
bool ResetPeakRss();

// Workloads (workloads.cpp). Each fills `out` with its raw measurements,
// adds its correctness checks to `checks` and returns a fingerprint of the
// results it produced (equal fingerprints = byte-identical results).
std::uint64_t RunCampaign(const Options& opt, bool traced, Json& out, Checks& checks);
std::uint64_t RunFleet(const Options& opt, bool traced, Json& out, Checks& checks);
std::uint64_t RunServeWarm(const Options& opt, bool traced, Json& out, Checks& checks);

// Module probes (probes.cpp): one traced span per probe loop.
void RunProbes(const Options& opt, Json& out, Checks& checks);

}  // namespace perfbench
