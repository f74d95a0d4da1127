// The deprecated campaign batch knob (CampaignConfig::Builder::Batch,
// UAVRES_BATCH, `uavres campaign --batch`) is accepted and ignored: every
// campaign steps one scalar vehicle per run, so any batch value produces
// BYTE-identical results and result-store keys to the default run.
// Equality here is bit-pattern equality of every double, never tolerance.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <utility>

#include "core/campaign.h"

namespace uavres {
namespace {

namespace fs = std::filesystem;

// Bit-exact fingerprint helpers (same discipline as the campaign-determinism
// suite: doubles are appended as their raw 64-bit patterns).
void Append(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx,", static_cast<unsigned long long>(bits));
  out += buf;
}
void Append(std::string& out, int v) { out += std::to_string(v) + ","; }

void Append(std::string& out, const math::Vec3& v) {
  Append(out, v.x);
  Append(out, v.y);
  Append(out, v.z);
}

void Append(std::string& out, const core::MissionResult& r) {
  Append(out, r.mission_index);
  out += r.mission_name + ",";
  Append(out, static_cast<int>(r.is_gold));
  Append(out, static_cast<int>(r.fault.target));
  Append(out, static_cast<int>(r.fault.type));
  Append(out, r.fault.start_time_s);
  Append(out, r.fault.duration_s);
  Append(out, static_cast<int>(r.outcome));
  Append(out, r.flight_duration_s);
  Append(out, r.distance_km);
  Append(out, r.inner_violations);
  Append(out, r.outer_violations);
  Append(out, r.max_deviation_m);
  Append(out, static_cast<int>(r.failsafe_reason));
  Append(out, r.failsafe_time_s);
  out += r.crash_reason + ",";
  Append(out, r.crash_time_s);
}

std::string Fingerprint(const core::CampaignResults& results) {
  std::string out;
  for (const auto& g : results.gold) {
    Append(out, g);
    out += "\n";
  }
  for (const auto& f : results.faulty) {
    Append(out, f);
    out += "\n";
  }
  for (const auto& traj : results.gold_trajectories) {
    for (const auto& s : traj.Samples()) {
      Append(out, s.t);
      Append(out, s.pos_true);
      Append(out, s.pos_est);
      Append(out, static_cast<int>(s.fault_active));
    }
    out += "--\n";
  }
  return out;
}

std::set<std::string> StoreEntries(const fs::path& dir) {
  std::set<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    names.insert(e.path().filename().string());
  }
  return names;
}

std::size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(CampaignBatchEquivalence, ByteIdenticalResultsAndStoreKeysAcrossBatchSizes) {
  // UAVRES_BATCH is read, warned about once, and otherwise ignored — even a
  // value outside the old [1, 16] lane range.
  ASSERT_EQ(setenv("UAVRES_BATCH", "99", 1), 0);
  ::testing::internal::CaptureStderr();
  const core::CampaignConfig env = core::CampaignConfig::FromEnvironment();
  const std::string warnings = ::testing::internal::GetCapturedStderr();
  unsetenv("UAVRES_BATCH");
  EXPECT_EQ(CountOccurrences(warnings, "UAVRES_BATCH is set but has no effect"), 1u)
      << warnings;

  const fs::path base = fs::temp_directory_path() / "uavres_batch_equiv_test";
  fs::remove_all(base);

  // A fresh cache dir per run: every run is computed (nothing is loaded),
  // and the file names ARE the result-store keys.
  auto run = [&](const std::string& name, core::CampaignConfig::Builder builder) {
    const fs::path dir = base / name;
    const auto cfg = builder.Missions(1).Durations({2.0}).CacheDir(dir.string()).Build();
    const auto results = core::Campaign(cfg).Run();
    EXPECT_EQ(results.cache.hits, 0u) << name;
    EXPECT_EQ(StoreEntries(dir).size(), results.TotalRuns()) << name;
    return std::make_pair(Fingerprint(results), StoreEntries(dir));
  };

  const auto reference = run("default", core::CampaignConfig::Builder(env));
  ASSERT_FALSE(reference.first.empty());
  for (int batch : {1, 8, 99}) {
    const auto out =
        run("b" + std::to_string(batch), core::CampaignConfig::Builder(env).Batch(batch));
    EXPECT_EQ(out.first, reference.first) << "results diverge at batch " << batch;
    EXPECT_EQ(out.second, reference.second) << "store keys diverge at batch " << batch;
  }
  fs::remove_all(base);
}

}  // namespace
}  // namespace uavres
