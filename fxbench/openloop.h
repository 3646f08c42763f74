// Seeded open-loop arrival generator. Requests are due on a Poisson
// schedule fixed by the seed, whatever the system does: a stall makes later
// requests wait instead of delaying their arrival, so each request is timed
// from its due time and the generator reports how late it submitted.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/rng.h"

namespace fxbench {

struct Arrival {
  double due_s = 0.0;      // offset from the phase start
  std::uint32_t item = 0;  // index into the caller's input pool
};

// Poisson arrivals at `rate_per_s` over `duration_s`; items drawn by
// `pick`, which draws from the schedule's own generator (called once per
// arrival, in order), so the whole schedule depends on `seed` alone.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double duration_s,
                                      const std::function<std::uint32_t(fxcpp::rt::Rng&)>& pick);

// Replays `schedule` from `t0` (a now_s() time): spins until each arrival
// is due at t0 + due_s, calls `submit(i)` for arrival i, and returns each
// arrival's lateness in seconds (time of the submit call minus due time).
// While it spins, and after the last arrival until it returns false, it
// calls `poll()`, which collects finished responses and returns whether
// any are still outstanding; so one thread both submits and stamps each
// response when it is in hand.
std::vector<double> replay(const std::vector<Arrival>& schedule, double t0,
                           const std::function<void(std::size_t)>& submit,
                           const std::function<bool()>& poll);

}  // namespace fxbench
