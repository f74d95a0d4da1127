// Lockstep group of scalar vehicles (DESIGN.md §14, §18).
//
// Up to kMaxLanes independent uav::Uav lanes share one clock: each Step()
// advances every active lane one control period, in lane order. A lane is
// the unmodified scalar vehicle, so its flight is bit-identical to stepping
// it alone. uspace::FleetRunner steps its drones in these groups, one group
// per work item, and refills lanes whose flights ended.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "nav/mission.h"
#include "uav/uav.h"
#include "uav/uav_config.h"

namespace uavres::uav {

/// A fixed-capacity group of vehicles advanced in lockstep. Lanes are added
/// before stepping begins and retired individually as their runs end; the
/// group keeps stepping while any lane is active.
class BatchedUav {
 public:
  static constexpr int kMaxLanes = 16;

  /// Adds one vehicle and returns its lane index. All lanes share the group
  /// clock, so every lane must use the same control rate as the first.
  int AddLane(const UavConfig& cfg, const nav::MissionPlan& plan,
              std::optional<core::FaultSpec> fault, std::uint64_t seed);

  /// Replaces a retired lane with a fresh vehicle and reactivates it. The
  /// new vehicle joins the group clock at the current step count (its
  /// sensors keep the group's rate-divider phase), so a refilled lane is a
  /// new flight on the running clock, not a rewind. Requires
  /// `!lane_active(lane)` and the group's control rate.
  void RefillLane(int lane, const UavConfig& cfg, const nav::MissionPlan& plan,
                  std::optional<core::FaultSpec> fault, std::uint64_t seed);

  /// Advance every active lane one control period.
  void Step();

  /// Stop stepping a lane (its run ended); its vehicle freezes and stays
  /// readable through lane().
  void Retire(int lane) { active_[static_cast<std::size_t>(lane)] = false; }

  bool lane_active(int lane) const { return active_[static_cast<std::size_t>(lane)]; }
  bool AnyActive() const;

  /// Start time of the last Step() (the lanes' common Uav::time()).
  double time() const { return time_; }

  const Uav& lane(int lane) const { return *vehicles_[static_cast<std::size_t>(lane)]; }

 private:
  void Launch(int lane, const UavConfig& cfg, const nav::MissionPlan& plan,
              std::optional<core::FaultSpec> fault, std::uint64_t seed);

  double dt_{0.0};
  double time_{0.0};
  std::int64_t step_count_{0};
  int lanes_{0};
  std::array<bool, kMaxLanes> active_{};
  std::array<std::unique_ptr<Uav>, kMaxLanes> vehicles_;
};

}  // namespace uavres::uav
