// First-class simulation timers.
//
// These replace the old `schedule_periodic` free function, whose repeating
// tick was a shared_ptr-owned closure chain: every tick heap-allocated a
// fresh wrapper around the shared callback. A timer object owns its
// callback once; the event scheduled per tick captures only `this`
// (8 bytes, inline in the event node), so re-arming is allocation-free and
// the pending tick is cancellable at any time through the owning object —
// including from inside its own callback.
//
// Timers are intrusive: the object must outlive its pending event, which
// in practice means the timer is a member of the component that owns the
// behavior (see the fault-injector chains). Destruction cancels.
#pragma once

#include <functional>
#include <optional>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace decos::sim {

/// Fixed-period repeating timer. The callback returns true to keep
/// ticking, false to stop. start() on a running timer restarts it.
class PeriodicTimer {
 public:
  using TickFn = std::function<bool()>;

  PeriodicTimer() = default;
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  ~PeriodicTimer() { cancel(); }

  /// Arms the timer: first tick at `first`, then every `period` until the
  /// callback returns false or cancel() is called. Restarting from inside
  /// the tick callback is safe: the replacement callback is staged and
  /// swapped in at its first tick (the executing closure stays intact),
  /// and the restart overrides the old callback's return value.
  void start(Simulator& sim, SimTime first, Duration period, TickFn fn,
             EventPriority prio = EventPriority::kApplication);

  /// Stops the timer. Returns true iff a pending tick was cancelled.
  /// Safe to call from inside the tick callback (the re-arm is skipped).
  bool cancel();

  [[nodiscard]] bool active() const { return sim_ != nullptr; }

 private:
  void on_tick();

  Simulator* sim_ = nullptr;
  Duration period_{};
  TickFn fn_;
  /// Replacement callback from a start() issued inside the running tick;
  /// installed at the next tick so the executing closure is never
  /// destroyed under its own frame.
  std::optional<TickFn> staged_fn_;
  EventPriority prio_ = EventPriority::kApplication;
  EventId pending_{};
  bool in_tick_ = false;
};

/// Repeating timer with a callback-chosen gap between firings — the shape
/// of the fault injector's episode chains (work now, come back after a
/// fault-specific interval). The callback returns the delay to the next
/// firing, or nullopt to stop.
class AperiodicTimer {
 public:
  using NextFn = std::function<std::optional<Duration>()>;

  AperiodicTimer() = default;
  AperiodicTimer(const AperiodicTimer&) = delete;
  AperiodicTimer& operator=(const AperiodicTimer&) = delete;
  ~AperiodicTimer() { cancel(); }

  /// Arms the timer: first firing at `first`; each firing schedules the
  /// next after the returned delay. Restart-from-within-callback is safe
  /// (same staging rule as PeriodicTimer).
  void start(Simulator& sim, SimTime first, NextFn fn,
             EventPriority prio = EventPriority::kApplication);

  /// Stops the timer. Returns true iff a pending firing was cancelled.
  bool cancel();

  [[nodiscard]] bool active() const { return sim_ != nullptr; }

 private:
  void on_fire();

  Simulator* sim_ = nullptr;
  NextFn fn_;
  std::optional<NextFn> staged_fn_;
  EventPriority prio_ = EventPriority::kApplication;
  EventId pending_{};
  bool in_tick_ = false;
};

}  // namespace decos::sim
