// Discrete-time co-simulation engine for the integrated CPU-GPU machine —
// the canonical MachineModel implementation (see machine_model.hpp for the
// interface and backend.hpp for the factory).
//
// The machine model advances in fixed ticks (default 10 ms). Each tick
// it (a) resolves shared-memory contention between the domains' offered
// loads via a short fixed-point iteration, (b) advances every resident job
// through its phase trace at the contention- and frequency-adjusted rate,
// (c) evaluates the package power model and RAPL-style sampling, and (d)
// runs the DVFS governor control loop at its own cadence.
//
// Three stepping engines implement those semantics (EngineOptions::mode):
//
//  - kTick: the legacy reference oracle. Every tick re-resolves contention,
//    re-evaluates the power model, and walks every job — O(full model) per
//    10 ms of simulated time regardless of whether anything changed.
//  - kEvent: the event-horizon core (the default). Between state-change
//    events — a governor decision that moves a frequency level, a resident
//    job crossing a phase boundary or finishing, a launch, or a ceiling
//    change — every tick is identical, so the expensive dynamics (contention
//    fixed point, LLC coupling, package power) are computed once per event
//    horizon and cached. The per-tick remainder is strength-reduced to a few
//    flops per resident job, replaying exactly the arithmetic the tick
//    oracle performs so both modes produce bit-identical trajectories
//    (pinned by tests/sim/test_engine_equivalence.cpp). Meter reads replay
//    at the same points so the noise RNG stream stays in lockstep.
//  - kAnalytic: the closed-form backend. Shares kEvent's horizon machinery
//    but replaces the per-tick job replay with one bulk advance per horizon
//    (rem -= n * ref_per_tick instead of n subtractions) and, on
//    control-free machines (GovernorPolicy::kNone, no sample recording),
//    skips the governor/sample stops and the unobservable meter RNG draws
//    entirely. Every clock/threshold decision still uses the oracle's exact
//    per-tick `now_ += dt` chain, so trajectories match kEvent to 1e-9
//    (bit-identical control decisions; only the job-progress accumulators
//    carry closed-form rounding). Pinned by
//    tests/sim/test_backend_equivalence.cpp.
//
// Placement rules mirror the paper's platform semantics: the GPU executes
// one OpenCL job at a time; the CPU normally does too, but *can* be
// oversubscribed (several resident jobs time-share with context-switch and
// locality penalties) because the Default baseline launches its whole CPU
// partition at once and relies on the OS scheduler — the behaviour behind
// Fig. 11's "Default worse than Random" result.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "corun/common/expected.hpp"
#include "corun/common/rng.hpp"
#include "corun/sim/governor.hpp"
#include "corun/sim/job.hpp"
#include "corun/sim/machine.hpp"
#include "corun/sim/machine_model.hpp"
#include "corun/sim/memory_system.hpp"
#include "corun/sim/power_meter.hpp"
#include "corun/sim/power_model.hpp"
#include "corun/sim/telemetry.hpp"
#include "corun/sim/thermal.hpp"

namespace corun::sim {

class Engine : public MachineModel {
 public:
  Engine(MachineConfig config, EngineOptions options);

  /// Emits the final counter values (plus cap-violation ticks) to the trace
  /// layer when tracing is enabled. The counters themselves are always
  /// maintained; only the export is conditional.
  ~Engine() override;

  /// Starts a job on `device` immediately. The GPU must be idle; the CPU may
  /// already host jobs (time sharing).
  JobId launch(const JobSpec& spec, DeviceKind device) override;

  /// Sets the requested (ceiling) frequency levels; the governor will not
  /// raise either domain above its ceiling. With GovernorPolicy::kNone the
  /// levels snap to the ceilings at the next control step.
  void set_ceilings(FreqLevel cpu, FreqLevel gpu) override;

  /// Replaces the power cap mid-run (nullopt = uncapped). Enforcement still
  /// requires a non-kNone governor policy; the governor reacts from the next
  /// tick on. Both engine modes apply the change at the same tick boundary,
  /// so trajectories stay bit-identical across modes.
  void set_power_cap(std::optional<Watts> cap) override;

  /// Evicts a running job: it stops consuming machine time at the current
  /// clock, its stats freeze with `cancelled` set (finished stays false),
  /// and the machine re-resolves contention without it. Returns false when
  /// `id` is not currently running (already finished, cancelled, or
  /// unknown).
  bool cancel(JobId id) override;

  /// Starts/ends a transient power-meter fault: while active the sensor
  /// serves its last healthy reading (the governor flies blind) but the
  /// noise RNG keeps advancing so replay stays deterministic.
  void set_meter_dropout(bool active) override;
  [[nodiscard]] bool meter_dropout() const noexcept override;

  [[nodiscard]] DvfsState dvfs() const noexcept override { return dvfs_; }
  [[nodiscard]] Seconds now() const noexcept override { return now_; }
  [[nodiscard]] bool idle() const noexcept override { return running_.empty(); }
  [[nodiscard]] bool device_idle(DeviceKind d) const noexcept override;
  [[nodiscard]] int resident_count(DeviceKind d) const noexcept override;

  /// Advances time until at least one job finishes (returning all the
  /// completions from that tick) or until the machine is idle (empty vector).
  std::vector<JobEvent> run_until_event() override;

  /// Advances exactly `duration` simulated seconds.
  std::vector<JobEvent> run_for(Seconds duration) override;

  /// Advances until at least one job finishes or `duration` simulated
  /// seconds elapse, whichever comes first — run_until_event with a
  /// deadline. Returns the completions of the finishing tick (empty when
  /// the deadline or idleness cut the run short).
  std::vector<JobEvent> run_for_until_event(Seconds duration) override;

  /// Drains every running job.
  void run_until_idle() override;

  /// Fraction of the job's total (reference) work completed, in [0, 1].
  /// 1.0 for finished jobs. Used by online profiling to extrapolate a full
  /// runtime from a truncated sample.
  [[nodiscard]] double progress(JobId id) const override;

  [[nodiscard]] const Telemetry& telemetry() const noexcept override {
    return telemetry_;
  }
  [[nodiscard]] const EngineCounters& counters() const noexcept override {
    return counters_;
  }
  [[nodiscard]] const JobStats& stats(JobId id) const override;
  [[nodiscard]] std::vector<JobStats> all_stats() const override;
  [[nodiscard]] const MachineConfig& config() const noexcept override {
    return config_;
  }
  [[nodiscard]] const EngineOptions& options() const noexcept override {
    return options_;
  }

 private:
  struct RunningJob {
    JobId id = -1;
    JobSpec spec;
    DeviceKind device = DeviceKind::kCpu;
    std::size_t phase_idx = 0;
    Seconds phase_ref_remaining = 0.0;
  };

  /// Per-device per-tick execution summary.
  struct DeviceTick {
    double demand = 0.0;        ///< offered GB/s this tick
    double compute_share = 0.0; ///< wall fraction core-bound
    double memory_share = 0.0;  ///< wall fraction memory-stalled
    bool busy = false;
  };

  /// Per-resident-job constants of one event horizon: between events every
  /// tick consumes the same reference time and moves the same bytes, so the
  /// per-tick advance is two flops per job (replayed, not closed-formed, to
  /// stay bit-identical with the tick oracle's repeated subtraction).
  struct JobAdvance {
    std::size_t run_idx = 0;     ///< index into running_
    JobStats* stats = nullptr;   ///< map nodes are pointer-stable
    double stretch = 1.0;        ///< wall stretch of the job's current phase
    Seconds budget = 0.0;        ///< job-visible execution time per tick
    Seconds ref_per_tick = 0.0;  ///< reference seconds consumed per tick
    double gb_per_tick = 0.0;    ///< bytes moved per tick (GB)
  };

  /// Everything the tick loop recomputes each tick that is in fact constant
  /// between events. Invalidated by launches, ceiling changes, governor
  /// level moves, and phase boundaries.
  struct DynamicsCache {
    bool valid = false;
    DeviceTick cpu_tick;
    DeviceTick gpu_tick;
    ContentionResult contention;
    Watts true_power = 0.0;
    /// Per-tick thermal injection of this horizon (thermal runs only):
    /// derived from the same cached domain powers as true_power, so the
    /// per-tick temperature step replays identically in every mode.
    ThermalVec thermal_b{};
    std::vector<JobAdvance> jobs;
  };

  /// Mutable thermal state (engaged only when EngineOptions::thermal): the
  /// precomputed per-tick RC map, the node temperatures (persist across
  /// event horizons exactly like job progress), and the throttle governor's
  /// per-domain allowance and rate-limit clocks.
  struct ThermalState {
    ThermalNetwork net;
    ThermalVec temps{};
    FreqLevel limit[kDeviceCount] = {0, 0};   ///< max level the heat allows
    Seconds next_down[kDeviceCount] = {0.0, 0.0};
    Seconds next_up[kDeviceCount] = {0.0, 0.0};
  };

  void tick(std::vector<JobEvent>& events);
  /// The DVFS control block of one tick (shared verbatim by both modes).
  /// Returns true when a frequency level or ceiling moved.
  bool governor_phase();
  /// The temperature control block of one tick, run right after the
  /// governor by every mode: trips drop a domain's thermal allowance when
  /// its node is above the trip point, releases raise it back once the node
  /// cools through the hysteresis band, and the current DVFS levels are
  /// clamped to the allowance. Returns true when anything moved (an event —
  /// the horizon ends). A no-op returning false when thermal is off.
  bool thermal_phase();
  /// Advances the RC network by one tick from the horizon's cached
  /// injection and folds the tick into the peak/throttled-time accounting.
  void thermal_advance_tick(const ThermalVec& b);
  /// package_power decomposed into its per-domain terms — same calls in the
  /// same order, so the returned total is bit-identical to the fused
  /// package_power() while exposing the split the thermal injection needs.
  [[nodiscard]] Watts package_power_split(const DeviceActivity& cpu,
                                          const DeviceActivity& gpu,
                                          Watts* cpu_power,
                                          Watts* gpu_power) const;
  /// Recomputes the contention/LLC fixed point, activity shares, package
  /// power, and per-job advance constants for the current machine state.
  void rebuild_dynamics();
  /// One tick of the event engine: cheap advance on the cached horizon, or
  /// a full boundary tick when a job crosses a phase edge.
  void step_event_tick(std::vector<JobEvent>& events);
  /// Everything in an event-engine tick after the governor: rebuild when
  /// dirty, advance, power accounting, sampling, clock. Split out so
  /// fast_replay's capped loop can inline the governor part.
  void complete_event_tick(bool dvfs_moved, std::vector<JobEvent>& events);
  /// Event-mode driver shared by the run_* entry points. `end` bounds the
  /// clock exactly like the tick-mode loops; stop_on_event mirrors
  /// run_until_event's "return the first completion tick" contract.
  void run_event_mode(std::vector<JobEvent>& events,
                      const std::optional<Seconds>& end, bool stop_on_event);
  /// Replays as many whole ticks of the current horizon as provably contain
  /// no event (no governor or sample point, no phase boundary, `end` not
  /// reached) in one tight loop — the same arithmetic step_event_tick
  /// performs, with every event check hoisted. Under an active power cap the
  /// loop still reads the meter every tick (RNG lockstep with the oracle)
  /// but inlines the violation test, breaking out only when the governor
  /// moves a level. A no-op when the cache is cold.
  void fast_replay(const std::optional<Seconds>& end,
                   std::vector<JobEvent>& events);
  /// kAnalytic's replacement for fast_replay: same horizon bound and the
  /// same exact per-tick clock/threshold decisions, but the per-job advance
  /// is closed-formed into one bulk update per horizon, and on control-free
  /// machines (kNone policy, samples off) the governor/sample stops and the
  /// unobservable meter RNG draws are skipped entirely.
  void analytic_replay(const std::optional<Seconds>& end,
                       std::vector<JobEvent>& events);
  /// Advances every cached job by `ticks` ticks in one fused update
  /// (rem -= n * ref_per_tick). Only called when the horizon bound proves
  /// no phase boundary lies inside the window.
  void advance_jobs_bulk(std::size_t ticks);
  /// Flushes deferred record_tick accumulation (see pending_ticks_).
  void flush_pending_telemetry();
  [[nodiscard]] DeviceTick device_demand(DeviceKind d, double sigma) const;
  void advance_jobs(DeviceKind d, double sigma, Seconds dt,
                    std::vector<JobEvent>& events);
  [[nodiscard]] double oversubscription_overhead(DeviceKind d) const;
  [[nodiscard]] double locality_sigma(DeviceKind d, double sigma) const;
  /// Extra memory slowdown of device `d` from the partner's LLC footprint.
  [[nodiscard]] double llc_slowdown(DeviceKind d, GBps partner_demand) const;

  MachineConfig config_;
  EngineOptions options_;
  MemorySystem memory_;
  PowerModel power_model_;
  PowerMeter meter_;
  PowerGovernor governor_;  ///< rebuilt by set_power_cap

  Seconds now_ = 0.0;
  DvfsState dvfs_;
  double sigma_[kDeviceCount] = {1.0, 1.0};
  Watts last_true_power_ = 0.0;
  Seconds next_governor_ = 0.0;
  Seconds next_sample_ = 0.0;

  JobId next_id_ = 0;
  std::vector<RunningJob> running_;
  std::map<JobId, JobStats> stats_;
  Telemetry telemetry_;
  Watts power_ema_ = 0.0;  ///< windowed-cap moving average (cap_window > 0)
  bool ema_primed_ = false;

  EngineCounters counters_;
  DynamicsCache cache_;
  std::optional<ThermalState> thermal_;
  /// Ticks whose record_tick arguments are all identical (the cached power
  /// and busy flags) and have not yet been pushed into telemetry_. Flushed
  /// through Telemetry::record_interval before anything can observe or
  /// change them.
  std::size_t pending_ticks_ = 0;
};

/// Result of a single standalone (no co-runner) execution.
struct StandaloneResult {
  Seconds time = 0.0;
  GBps avg_bandwidth = 0.0;
  Watts avg_power = 0.0;
  Joules energy = 0.0;
};

/// Convenience: run one job alone on a fresh engine at pinned levels with no
/// cap, returning its measured time/bandwidth/power. Used by the profiler
/// and the micro-benchmark calibration solver.
[[nodiscard]] StandaloneResult run_standalone(const MachineConfig& config,
                                              const JobSpec& spec,
                                              DeviceKind device,
                                              FreqLevel cpu_level,
                                              FreqLevel gpu_level,
                                              std::uint64_t seed = 42,
                                              EngineMode mode = default_engine_mode());

}  // namespace corun::sim
