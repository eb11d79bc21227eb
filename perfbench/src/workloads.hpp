// The four benchmark workloads as library calls, shared by the benchmark
// binary (main.cpp) and its transparency tests. Every run function takes
// an optional Recorder and OracleStats: with them it records spans and
// installs the layer decorators of trace.hpp; without them the same code
// runs undecorated, which is what the end-to-end numbers measure.
// WORKLOADS.md gives each workload's shape and why it was chosen.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/driver.hpp"
#include "analysis/scenario.hpp"
#include "analysis/workload.hpp"
#include "net/live_scenario.hpp"
#include "trace.hpp"
#include "util/alloc_stats.hpp"

namespace perfbench {

// ------------------------------------------------------------ sim_campaign

/// E12 shape: gnp, 30% leaving, 30% flipped mode knowledge, one in-flight
/// message per node, SINGLE; ShardedWorld runs epochs until every leaver
/// has exited. One shard by default: at k = 2 the barrier coupling of the
/// two threads doubled the run-to-run spread on a shared host.
struct CampaignConfig {
  std::size_t n = 20'000;
  unsigned shards = 1;
  std::uint64_t seed = 1;
};

[[nodiscard]] fdp::ScenarioConfig campaign_scenario(const CampaignConfig& cfg);

struct CampaignRun {
  fdp::Scenario sc;  ///< the final world, kept for the output checks
  double build_s = 0;
  double shard_init_s = 0;
  double campaign_s = 0;  ///< first epoch() until the last leaver is gone
  std::vector<double> epoch_s;
  std::uint64_t steps = 0;
  std::uint64_t exits = 0;
  std::uint64_t peak_rss_kb = 0;  ///< VmHWM when the last epoch returned
  fdp::alloc_stats::ByteBuckets bytes;  ///< World::footprint(true) at the end

  [[nodiscard]] double setup_s() const { return build_s + shard_init_s; }
};

[[nodiscard]] CampaignRun run_campaign(const CampaignConfig& cfg,
                                       Recorder* rec, OracleStats* oracle);

struct CampaignCheck {
  std::string failure;  ///< empty when every check passed
  std::uint64_t phi_initial = 0;
  std::uint64_t phi_final = 0;
};

/// Every leaver gone, the final state legitimate against the initial
/// components, and Φ_final <= Φ_initial. The initial state is rebuilt from
/// the seed here, after the run, so its snapshots never count in the
/// run's peak RSS.
[[nodiscard]] CampaignCheck check_campaign(const CampaignConfig& cfg,
                                           const CampaignRun& run);

// ------------------------------------------------------------- sim_checked

/// E4 shape through ExperimentDriver::run: gnp, 30% leaving, 30% flipped
/// knowledge, 30% stray anchors, one in-flight message per node, Random
/// scheduler, stride-1 Safety/Potential/Audit monitors.
struct CheckedConfig {
  std::size_t n = 32;
  std::uint64_t trials = 16;
  unsigned workers = 2;
  std::uint64_t seed = 1;
};

[[nodiscard]] fdp::ExperimentSpec checked_spec(const CheckedConfig& cfg);

/// Builds every trial's scenario and its Safety/Potential monitor
/// baselines once, serially, recycling one world as a driver worker does:
/// what the sweep's trials do before their first action. The sweep runs
/// these builds inside ExperimentDriver::run, where nothing outside the
/// library can time them, so this replays them outside it.
[[nodiscard]] double time_checked_setup(const CheckedConfig& cfg);

struct CheckedSweep {
  fdp::ExperimentResult result;
  /// Wall time (build plus run) of each trial whose end was observed, by
  /// trial seed: the driver calls on_trial_start on a worker right before
  /// that worker's next trial, which closes its previous one.
  std::vector<std::pair<std::uint64_t, double>> trial_s;
};

[[nodiscard]] CheckedSweep run_checked(const CheckedConfig& cfg);

struct CheckedTrial {
  std::thread::id worker;  ///< the driver thread that ran the trial
  std::uint64_t steps = 0;
  bool clean = false;
  std::uint64_t safety_checks = 0;
  std::uint64_t safety_skipped = 0;
  std::uint64_t phi_initial = 0;
  std::uint64_t phi_final = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t oracle_exits = 0;
  Recorder rec;  ///< this trial's spans (trace id = trial index)
};

struct CheckedTrace {
  std::vector<CheckedTrial> trials;
  double wall_s = 0;
  /// The driver's tail imbalance: summed over the workers, the time from
  /// the end of a worker's last trial to the end of the sweep.
  double tail_idle_s = 0;
};

/// The same sweep, traced: per trial, run_to_legitimacy(sc, spec without
/// monitors, &monitors), the three monitors handed in as the extra
/// observer behind TimedObservers, and SINGLE behind timed_oracle.
[[nodiscard]] CheckedTrace run_checked_traced(const CheckedConfig& cfg);

// -------------------------------------------------------------- live_churn

/// E13 shape on NetRuntime over MemTransport: linearization overlay, gnp,
/// 25% leaving, 20% flipped knowledge, 10% stray anchors, one
/// LookupWorkload (20% absent keys, interval 2).
struct ChurnConfig {
  std::size_t n = 512;
  std::size_t lookups = 250;
  std::uint64_t seed = 1;
};

[[nodiscard]] fdp::ScenarioConfig churn_scenario(const ChurnConfig& cfg);

struct ChurnRun {
  fdp::net::LiveScenario sc;
  std::unique_ptr<fdp::LookupWorkload> workload;
  std::unique_ptr<TimedObserver> observer;  ///< traced runs only
  double setup_s = 0;  ///< build_live_framework_scenario, start() included
  double gone_s = 0;   ///< first pump until every leaver is gone
  /// First pump until the last exit or verdict: the time to serve the
  /// whole workload, without the stall window of a lost lookup.
  double served_s = 0;
  double loop_s = 0;  ///< first pump until the run ended
  std::uint64_t pumps = 0;
  std::uint64_t pumps_to_gone = 0;
  fdp::WorkloadReport report;
};

[[nodiscard]] ChurnRun run_churn(const ChurnConfig& cfg, Recorder* rec,
                                 OracleStats* oracle);

/// Every leaver gone, legitimate against a rebuilt initial state, no wire
/// errors and no retransmit give-ups. Returns "" when every check passed.
[[nodiscard]] std::string check_churn(const ChurnConfig& cfg,
                                      const ChurnRun& run);

// --------------------------------------------------------------- udp_flood

struct FloodRig {
  std::unique_ptr<fdp::net::NetRuntime> rt;
  double setup_s = 0;   ///< runtime construction, spawning and start()
  double warmup_s = 0;  ///< the warm-up pumps that follow start()
};

/// bench_net_throughput's shape: 256 ping actors over batched, coalescing
/// loopback UDP, started and warmed up. The seed permutes the ring order
/// in which the actors ping each other and seeds the timer jitter.
[[nodiscard]] FloodRig make_flood(std::uint64_t seed, Recorder* rec);

struct FloodWindow {
  double seconds = 0;
  std::uint64_t frames = 0;    ///< application frames delivered
  std::uint64_t admitted = 0;  ///< frames admitted by actions
  std::uint64_t failed = 0;    ///< retransmit give-ups plus wire errors
  fdp::net::TransportStats stats;  ///< deltas over the window
  std::uint64_t allocs = 0;        ///< operator new calls in the window
};

/// `pumps` calls of pump(0), measured as one window.
[[nodiscard]] FloodWindow run_flood_window(fdp::net::NetRuntime& rt,
                                           std::size_t pumps, Recorder* rec);

}  // namespace perfbench
