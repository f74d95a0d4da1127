// Deferred IMU noise sampling (DESIGN.md §13.2): a noise process or IMU unit
// that skips unread samples and replays their draws later must stay
// bit-identical — samples and serialized state — to an eager twin built from
// the same seed, under any interleaving of skips, reads, snapshots and one
// change of the sample interval.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "math/rng.h"
#include "math/state_io.h"
#include "sensors/imu.h"
#include "sensors/noise_model.h"

namespace uavres::sensors {
namespace {

using math::Rng;
using math::Vec3;

template <class T>
std::vector<std::uint8_t> StateBytes(T& x) {
  std::vector<std::uint8_t> out;
  math::StateWriter w(&out);
  w(x);
  return out;
}

template <class T>
bool SameBits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// `skips` unread sample intervals at `dt`, then (when `read`) one read at
/// the same dt; `snapshot` serializes both twins before the read, i.e.
/// while the deferring one still has pending samples.
struct Segment {
  int skips{0};
  double dt{0.004};
  bool read{true};
  bool snapshot{false};
};

/// A random skip/read schedule. It always contains runs of 0, 1, an odd
/// count and 10^4 skips, and one interval change that lands while samples
/// are pending (an unread 4 ms run followed directly by a 10 ms run).
std::vector<Segment> RandomSchedule(std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Segment> s = {{0}, {1}, {17}, {10000}};
  const auto random_skips = [&rng]() -> int {
    switch (rng.UniformInt(4)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 2 * static_cast<int>(rng.UniformInt(50)) + 3;  // odd
      default: return 10000;
    }
  };
  for (int i = 0; i < 12; ++i) {
    s.push_back({random_skips(), 0.004, true, rng.UniformInt(3) == 0});
  }
  s.push_back({random_skips() + 1, 0.004, false, true});
  s.push_back({random_skips() + 1, 0.01, true, false});
  for (int i = 0; i < 12; ++i) {
    s.push_back({random_skips(), 0.01, true, rng.UniformInt(3) == 0});
  }
  // Shuffle the four fixed runs into the 4 ms part (dt stays monotone).
  for (int i = 0; i < 4; ++i) {
    std::swap(s[static_cast<std::size_t>(i)], s[4 + rng.UniformInt(12)]);
  }
  return s;
}

/// Drives `deferred` and `eager` through one schedule. `skip` / `read` act
/// on one object; `eager` realizes every skip as a discarded read.
template <class T, class Skip, class Read>
void ExpectScheduleEquivalent(T deferred, T eager, const std::vector<Segment>& schedule,
                              Skip skip, Read read) {
  ASSERT_EQ(StateBytes(deferred), StateBytes(eager));
  int n = 0;
  for (const Segment& seg : schedule) {
    for (int i = 0; i < seg.skips; ++i) {
      skip(deferred, seg.dt);
      (void)read(eager, seg.dt);
    }
    if (seg.snapshot) {
      ASSERT_EQ(StateBytes(deferred), StateBytes(eager)) << "segment " << n;
    }
    if (seg.read) {
      const auto a = read(deferred, seg.dt);
      const auto b = read(eager, seg.dt);
      ASSERT_TRUE(SameBits(a, b)) << "sample differs after segment " << n;
    }
    ++n;
  }
  EXPECT_EQ(StateBytes(deferred), StateBytes(eager));
}

const Vec3 kTruth{0.3, -0.2, -9.81};

void SkipNoise(TriaxialNoise& n, double dt) { n.Defer(dt); }
Vec3 ReadNoise(TriaxialNoise& n, double dt) { return n.Corrupt(kTruth, dt); }

TEST(ImuDeferral, NoiseMatchesEagerTwinOnRandomSchedules) {
  const NoiseParams params{0.12, 0.05, 0.002};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    ExpectScheduleEquivalent(TriaxialNoise(params, Rng{seed}), TriaxialNoise(params, Rng{seed}),
                             RandomSchedule(seed * 7919), SkipNoise, ReadNoise);
  }
}

TEST(ImuDeferral, NoiseWithoutBiasWalkMatchesEagerTwin) {
  // No walk: each replayed sample is the white-noise draw alone.
  const NoiseParams params{0.2, 0.1, 0.0};
  ExpectScheduleEquivalent(TriaxialNoise(params, Rng{5}), TriaxialNoise(params, Rng{5}),
                           RandomSchedule(99), SkipNoise, ReadNoise);
}

TEST(ImuDeferral, BiasAccessorReplaysPendingWalk) {
  const NoiseParams params{0.0, 0.0, 0.1};
  TriaxialNoise deferred(params, Rng{7});
  TriaxialNoise eager(params, Rng{7});
  for (int i = 0; i < 1001; ++i) {
    deferred.Defer(0.004);
    (void)eager.Corrupt(kTruth, 0.004);
  }
  EXPECT_TRUE(SameBits(deferred.bias(), eager.bias()));
}

sim::RigidBodyState Cruise() {
  sim::RigidBodyState s;
  s.att = math::Quat::FromEuler(0.05, -0.1, 1.2);
  s.accel_world = {0.4, -0.3, 0.2};
  s.omega = {0.02, -0.05, 0.3};
  return s;
}

TEST(ImuDeferral, UnitMatchesEagerTwinOnRandomSchedules) {
  const auto skip = [](ImuUnit& u, double dt) { u.Skip(dt); };
  const auto read = [](ImuUnit& u, double dt) { return u.Sample(Cruise(), 1.0, dt); };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    ExpectScheduleEquivalent(ImuUnit(ImuNoiseConfig{}, ImuRanges{}, Rng{seed}),
                             ImuUnit(ImuNoiseConfig{}, ImuRanges{}, Rng{seed}),
                             RandomSchedule(seed + 1000), skip, read);
  }
}

TEST(ImuDeferral, SelectedUnitPathMatchesSampleAll) {
  // The flight stack's cruise path — sample the selected unit, skip the
  // other two — against SampleAll, across selection switches and a restore
  // into a fresh set that never deferred anything.
  RedundantImu deferred(ImuNoiseConfig{}, ImuRanges{}, Rng{42});
  RedundantImu eager(ImuNoiseConfig{}, ImuRanges{}, Rng{42});
  const double dt = 0.004;
  const int selection[] = {0, 1, 2, 0, 2};
  for (int phase = 0; phase < 5; ++phase) {
    const int sel = selection[phase];
    for (int step = 0; step < 2500; ++step) {
      const double t = (phase * 2500 + step) * dt;
      ImuSample picked;
      for (int u = 0; u < RedundantImu::kNumUnits; ++u) {
        if (u == sel) {
          picked = deferred.unit(u).Sample(Cruise(), t, dt);
        } else {
          deferred.unit(u).Skip(dt);
        }
      }
      const auto all = eager.SampleAll(Cruise(), t, dt);
      ASSERT_TRUE(SameBits(picked, all[static_cast<std::size_t>(sel)]))
          << "phase " << phase << " step " << step;
    }
  }
  const std::vector<std::uint8_t> bytes = StateBytes(deferred);
  EXPECT_EQ(bytes, StateBytes(eager));

  RedundantImu restored(ImuNoiseConfig{}, ImuRanges{}, Rng{1});
  math::StateReader r(bytes);
  r(restored);
  ASSERT_TRUE(r.ok() && r.fully_consumed());
  const auto a = restored.SampleAll(Cruise(), 50.0, dt);
  const auto b = eager.SampleAll(Cruise(), 50.0, dt);
  EXPECT_TRUE(SameBits(a, b));
}

}  // namespace
}  // namespace uavres::sensors
