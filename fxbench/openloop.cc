#include "openloop.h"

#include <cmath>

#include "common.h"
#include "runtime/rng.h"

namespace fxbench {

std::vector<Arrival> poisson_schedule(
    std::uint64_t seed, double rate_per_s, double duration_s,
    const std::function<std::uint32_t(fxcpp::rt::Rng&)>& pick) {
  fxcpp::rt::Rng rng(seed);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    // Exponential gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (t >= duration_s) break;
    out.push_back(Arrival{t, pick(rng)});
  }
  return out;
}

std::vector<double> replay(const std::vector<Arrival>& schedule, double t0,
                           const std::function<void(std::size_t)>& submit,
                           const std::function<bool()>& poll) {
  std::vector<double> lag(schedule.size(), 0.0);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const double due = t0 + schedule[i].due_s;
    // Spin rather than sleep: sleep_until overshoots by tens of
    // microseconds, longer than a typical gap, and a sleeping thread could
    // not stamp responses as they come in.
    while (now_s() < due) poll();
    lag[i] = now_s() - due;
    submit(i);
  }
  while (poll()) {
  }
  return lag;
}

}  // namespace fxbench
