#pragma once

#include <algorithm>

namespace dance::search {

/// Hyper-parameter warm-up for lambda_2 (§3.4): the hardware cost weight is
/// kept small for the first epochs so the architecture does not collapse to
/// all-Zero before it reaches a high-accuracy region, then ramps linearly to
/// its target value. `initial > target` also works: the value then
/// decreases monotonically from `initial` to `target` over the same ramp
/// window.
///
/// Edge cases are normalized in the constructor so `value()` is total:
///  * negative `warmup_epochs` behaves like 0 (the ramp starts at epoch 0),
///  * `ramp_epochs < 1` behaves like 1 (one-epoch jump to the target).
/// The ramp progress is computed in 64-bit arithmetic, so `value(epoch)`
/// is exact for any `int` epoch — including INT_MAX, which used to overflow
/// `epoch - warmup_epochs` when `warmup_epochs` was negative and return a
/// wildly extrapolated value instead of the target.
class LambdaWarmup {
 public:
  LambdaWarmup(float initial, float target, int warmup_epochs, int ramp_epochs = 1)
      : initial_(initial),
        target_(target),
        warmup_epochs_(std::max(0, warmup_epochs)),
        ramp_epochs_(std::max(1, ramp_epochs)) {}

  [[nodiscard]] float value(int epoch) const {
    if (epoch < warmup_epochs_) return initial_;
    const long long done = static_cast<long long>(epoch) -
                           static_cast<long long>(warmup_epochs_);
    if (done >= static_cast<long long>(ramp_epochs_)) return target_;
    const float t =
        static_cast<float>(done) / static_cast<float>(ramp_epochs_);
    return initial_ + (target_ - initial_) * t;
  }

 private:
  float initial_;
  float target_;
  int warmup_epochs_;
  int ramp_epochs_;
};

}  // namespace dance::search
