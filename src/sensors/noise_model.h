// Per-axis sensor error model: turn-on bias + white noise + bias random walk.
#pragma once

#include <cmath>
#include <cstdint>

#include "math/rng.h"
#include "math/vec3.h"

namespace uavres::sensors {

/// Configuration of a triaxial error model.
struct NoiseParams {
  double white_stddev{0.0};       ///< white noise sigma per sample
  double turn_on_bias_stddev{0.0};  ///< constant bias drawn at construction
  double bias_walk_stddev{0.0};   ///< random-walk increment sigma per sqrt(s)
};

/// Triaxial additive error process. Deterministic given the seed RNG.
///
/// Samples nobody reads can be deferred (Defer) instead of drawn: the class
/// keeps a count of them and replays their draws in eager order — the
/// bias-walk increment, then the white-noise draw, discarded — before the
/// next Corrupt(), bias() or VisitState(). The RNG stream and the bias
/// therefore end up bit-identical to sampling every step.
class TriaxialNoise {
 public:
  TriaxialNoise() : TriaxialNoise(NoiseParams{}, math::Rng{1}) {}

  TriaxialNoise(const NoiseParams& params, math::Rng rng) : params_(params), rng_(rng) {
    bias_ = rng_.GaussianVec3(params_.turn_on_bias_stddev);
  }

  const NoiseParams& params() const { return params_; }
  const math::Vec3& bias() {
    Flush();
    return bias_;
  }

  /// Corrupt a true value; dt is the sample interval (drives the bias walk).
  math::Vec3 Corrupt(const math::Vec3& truth, double dt) {
    Flush();
    Walk(dt);
    return truth + bias_ + rng_.GaussianVec3(params_.white_stddev);
  }

  /// Record one sample interval whose value is never read. A dt different
  /// from the pending samples' flushes them first, so each replayed step
  /// walks the bias with its own interval.
  void Defer(double dt) {
    if (pending_ != 0 && dt != pending_dt_) Flush();
    pending_dt_ = dt;
    ++pending_;
  }

  /// Snapshot seam (math/state_io.h, DESIGN.md §16): visits the run-mutable
  /// state; configuration is reconstructed, not serialized. Pending samples
  /// are replayed first, so the bytes equal an eagerly sampled twin's and the
  /// deferral count itself never reaches a snapshot.
  template <class Visitor>
  void VisitState(Visitor&& v) {
    Flush();
    v(rng_, bias_);
  }

 private:
  void Walk(double dt) {
    if (params_.bias_walk_stddev > 0.0) {
      bias_ += rng_.GaussianVec3(params_.bias_walk_stddev * std::sqrt(dt));
    }
  }

  void Flush() {
    for (; pending_ != 0; --pending_) {
      Walk(pending_dt_);
      rng_.GaussianVec3(params_.white_stddev);  // the unread white-noise draw
    }
  }

  NoiseParams params_;
  math::Rng rng_;
  math::Vec3 bias_;
  std::uint64_t pending_{0};  ///< deferred samples not yet drawn
  double pending_dt_{0.0};    ///< their (common) sample interval
};

/// Symmetric measurement range; values outside are clamped, mimicking sensor
/// saturation. The fault model's Min/Max faults inject exactly these bounds.
struct SensorRange {
  double limit{0.0};  ///< measurements clamp to [-limit, +limit]

  math::Vec3 Clamp(const math::Vec3& v) const {
    return v.CwiseClamp(-limit, limit);
  }
};

}  // namespace uavres::sensors
