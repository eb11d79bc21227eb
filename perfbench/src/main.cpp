// The repository benchmark: four workloads across the three engines,
// timed end to end and, in a separate traced run, layer by layer from
// outside the library. WORKLOADS.md describes every workload and metric.
//
//   perfbench --workload <sim_campaign|sim_checked|live_churn|udp_flood>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// stdout carries a readable report, one {"environment": ...} line and, as
// its last line, one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Every workload prints every metric of its mode; a layer the
// workload never enters reads 0. A failed output check is reported as
// "correct": false with exit code 0; usage errors exit 2.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "net/runtime.hpp"
#include "net/transport.hpp"
#include "trace.hpp"
#include "util/alloc_stats.hpp"
#include "util/check.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// How much each run repeats; the sizes are the defaults of the workload
// configs. WORKLOADS.md gives the reasons.
constexpr std::size_t kMinCampaigns = 5;
constexpr unsigned kCheckedSetups = 100;
constexpr std::size_t kChurnInputs = 4;
constexpr std::size_t kMinChurnRounds = 2;
constexpr std::size_t kFloodWindowPumps = 500;
constexpr std::size_t kFloodWindowsPerRound = 4;
constexpr std::size_t kMinFloodRounds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

// Every end-to-end metric (BENCHMARK.json "end_to_end").
const Metric kEndToEnd[] = {
    {"setup_s", "s", 0},
    {"job_s", "s", 0},
    {"op_p50_ms", "ms", 0},
    {"peak_rss_mb", "MB", 0},
};

// Every per-layer metric (BENCHMARK.json "per_layer").
const Metric kPerLayer[] = {
    // Each workload's headline under the names the issue gives them,
    // measured on the untraced reference run.
    {"campaign_s", "s", 0},
    {"sweep_s", "s", 0},
    {"gone_s", "s", 0},
    {"lookup_p50_ms", "ms", 0},
    {"lookup_p95_ms", "ms", 0},
    {"lookup_p50_ticks", "ticks", 0},
    {"lookup_p95_ticks", "ticks", 0},
    {"frames_per_s", "1/s", 0},
    {"failed_frac", "ratio", 0},
    // sim
    {"sim.epochs", "count", 0},
    {"sim.epoch_s", "s", 0},
    {"sim.epoch_ms_p50", "ms", 0},
    {"sim.epoch_ms_max", "ms", 0},
    {"sim.actions", "count", 0},
    {"sim.actions_per_s", "1/s", 0},
    {"sim.speedup_k2", "ratio", 0},
    {"sim.shard_init_s", "s", 0},
    {"sim.bytes_per_process", "B", 0},
    {"sim.bytes.processes", "B", 0},
    {"sim.bytes.channels_messages", "B", 0},
    {"sim.bytes.indices", "B", 0},
    {"sim.bytes.scratch", "B", 0},
    {"sim.trial_self_s", "s", 0},
    // core
    {"core.oracle_calls", "count", 0},
    {"core.oracle_s", "s", 0},
    {"core.oracle_exit_frac", "ratio", 0},
    {"core.oracle_shard_skew", "ratio", 0},
    {"core.phi_initial", "count", 0},
    {"core.phi_final", "count", 0},
    // analysis
    {"analysis.build_s", "s", 0},
    {"analysis.driver_idle_s", "s", 0},
    {"analysis.safety_s", "s", 0},
    {"analysis.safety_checks", "count", 0},
    {"analysis.safety_skipped", "count", 0},
    {"analysis.safety_us_per_check", "us", 0},
    {"analysis.potential_s", "s", 0},
    {"analysis.audit_s", "s", 0},
    {"analysis.lookup_issue_s", "s", 0},
    {"analysis.lookup_observe_s", "s", 0},
    {"analysis.lookups_issued", "count", 0},
    {"analysis.lookups_resolved", "count", 0},
    {"analysis.lookups_hits", "count", 0},
    {"analysis.lookups_misses", "count", 0},
    // net
    {"net.setup_s", "s", 0},
    {"net.pumps", "count", 0},
    {"net.pump_ms_p50", "ms", 0},
    {"net.pump_ms_p95", "ms", 0},
    {"net.runtime_self_s", "s", 0},
    {"net.rx_s", "s", 0},
    {"net.send_s", "s", 0},
    {"net.poll_self_s", "s", 0},
    {"net.frames", "count", 0},
    {"net.datagrams", "count", 0},
    {"net.frames_per_datagram", "ratio", 0},
    {"net.send_calls", "count", 0},
    {"net.recv_calls", "count", 0},
    {"net.poll_calls", "count", 0},
    {"net.syscalls_per_frame", "ratio", 0},
    {"net.actions", "count", 0},
    {"net.deliveries", "count", 0},
    {"net.timeouts", "count", 0},
    {"net.sends", "count", 0},
    {"net.retransmits", "count", 0},
    {"net.stale_frames", "count", 0},
    {"net.throttle_skips", "count", 0},
    {"net.wire_errors", "count", 0},
    {"net.retransmit_gave_up", "count", 0},
    {"net.steady_allocs", "count", 0},
    // the instrument's own health
    {"trace.wall_s", "s", 0},
    {"trace.overhead_frac", "ratio", 0},
    {"trace.unattributed_frac", "ratio", 0},
    {"trace.spans", "count", 0},
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Reduces repeats of identical work. The benchmark runs on shared hosts
/// whose speed swings by up to 1.8x for seconds at a time; that noise only
/// ever adds time, so the fastest repeat is the steadiest estimate of the
/// work's own cost. Distinct inputs are reduced by their median instead.
double fastest(std::vector<double> v) { return quantile(std::move(v), 0); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double elapsed(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

double kb_to_mb(std::uint64_t kb) { return static_cast<double>(kb) / 1024.0; }

unsigned long long ull(std::uint64_t v) { return v; }

/// Leavers that did not exit, without wrapping.
std::uint64_t missing(std::uint64_t expected, std::uint64_t done) {
  return done >= expected ? 0 : expected - done;
}

class Report {
 public:
  explicit Report(bool traced) {
    if (traced)
      metrics_.assign(std::begin(kPerLayer), std::end(kPerLayer));
    else
      metrics_.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }

  void set(const char* name, double value) {
    for (Metric& m : metrics_) {
      if (std::strcmp(m.name, name) == 0) {
        m.value = std::isfinite(value) ? value : 0;
        return;
      }
    }
    FDP_CHECK_MSG(false, "metric is not in the table");
  }
  void fail(const std::string& why) {
    if (correct_) failure_ = why;
    correct_ = false;
  }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] double failed_frac() const {
    return ratio(static_cast<double>(failed_), static_cast<double>(attempted_));
  }

  /// One named layer of the traced wall time.
  void layer(const char* name, double seconds) {
    layers_.emplace_back(name, seconds);
  }
  [[nodiscard]] const std::vector<std::pair<const char*, double>>& layers()
      const {
    return layers_;
  }

  /// Print the layer breakdown of `wall` (the traced time) and fill the
  /// trace.* metrics; `reference` is the same work run untraced.
  void attribute(double wall, double reference, const char* expected) {
    double named = 0;
    for (const auto& entry : layers_) named += entry.second;
    std::vector<std::pair<const char*, double>> sorted = layers_;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::printf("traced %.4f s (untraced %.4f s), by layer:\n", wall,
                reference);
    for (const auto& [name, s] : sorted)
      std::printf("  %-24s %10.4f s %6.1f%%\n", name, s,
                  100 * ratio(s, wall));
    std::printf("  %-24s %10.4f s %6.1f%%\n", "(unattributed)", wall - named,
                100 * ratio(wall - named, wall));
    const char* dominant = sorted.empty() ? "none" : sorted.front().first;
    if (std::strcmp(dominant, expected) == 0)
      std::printf("dominant layer: %s, as the probe found\n", dominant);
    else
      std::printf("dominant layer: %s; the probe found %s\n", dominant,
                  expected);
    set("trace.wall_s", wall);
    set("trace.overhead_frac", reference > 0 ? wall / reference - 1 : 0);
    set("trace.unattributed_frac", ratio(wall - named, wall));
  }

  void print_result() const {
    std::printf("failed_frac: %llu failed of %llu attempted = %.6g\n",
                ull(failed_), ull(attempted_), failed_frac());
    if (!correct_) std::printf("OUTPUT CHECK FAILED: %s\n", failure_.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ && attempted_ > 0 ? "true" : "false",
                ull(std::max<std::uint64_t>(attempted_, 1)), ull(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name, m.value, m.unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<const char*, double>> layers_;
  bool correct_ = true;
  std::string failure_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ------------------------------------------------------------ sim_campaign

void campaign_e2e(const Args& a, Report& r) {
  CampaignConfig cfg;
  cfg.seed = a.seed;
  const Clock::time_point t0 = Clock::now();
  std::vector<double> setup;
  std::vector<double> campaign;
  std::vector<double> epoch_s;  ///< each epoch's fastest repeat
  std::uint64_t peak_kb = 0;
  CampaignRun run;
  std::uint64_t steps = 0;
  do {
    run.sc.world.reset();  // hold one world at a time
    run = run_campaign(cfg, nullptr, nullptr);
    if (campaign.empty()) {
      peak_kb = run.peak_rss_kb;  // one campaign, however many follow
      epoch_s = run.epoch_s;
    } else if (run.steps != steps || run.epoch_s.size() != epoch_s.size()) {
      r.fail("a repeated campaign executed a different number of steps");
    } else {
      for (std::size_t e = 0; e < epoch_s.size(); ++e)
        epoch_s[e] = std::min(epoch_s[e], run.epoch_s[e]);
    }
    steps = run.steps;
    setup.push_back(run.setup_s());
    campaign.push_back(run.campaign_s);
    r.count(run.sc.leaving_count, missing(run.sc.leaving_count, run.exits));
  } while (campaign.size() < kMinCampaigns || elapsed(t0) < a.seconds);
  const CampaignCheck check = check_campaign(cfg, run);
  if (!check.failure.empty()) r.fail(check.failure);
  std::printf(
      "sim_campaign: n=%zu k=%u, %zu campaigns of %llu steps in %zu "
      "epochs; phi %llu -> %llu; campaign s: fastest %.3f, median %.3f, "
      "slowest %.3f\n",
      cfg.n, cfg.shards, campaign.size(), ull(steps), run.epoch_s.size(),
      ull(check.phi_initial), ull(check.phi_final), fastest(campaign),
      median(campaign), quantile(campaign, 1));
  // Epochs are short enough to find quiet stretches of the host that a
  // whole campaign seldom fits into, so the campaign is assembled from
  // each epoch's fastest repeat.
  r.set("setup_s", median(setup));
  r.set("job_s", std::accumulate(epoch_s.begin(), epoch_s.end(), 0.0));
  r.set("op_p50_ms", 1e3 * median(epoch_s));
  r.set("peak_rss_mb", kb_to_mb(peak_kb));
}

void campaign_traced(const Args& a, Report& r, Recorder& rec) {
  CampaignConfig cfg;
  cfg.seed = a.seed;
  CampaignRun ref = run_campaign(cfg, nullptr, nullptr);
  const double ref_wall = ref.setup_s() + ref.campaign_s;
  const double ref_campaign = ref.campaign_s;
  const std::uint64_t steps = ref.steps;
  ref.sc.world.reset();

  OracleStats oracle(cfg.n, cfg.shards);
  CampaignRun traced = run_campaign(cfg, &rec, &oracle);
  const double wall = traced.setup_s() + traced.campaign_s;
  if (traced.steps != steps)
    r.fail("the traced campaign executed a different number of steps");
  const CampaignCheck check = check_campaign(cfg, traced);
  if (!check.failure.empty()) r.fail(check.failure);
  r.count(traced.sc.leaving_count,
          missing(traced.sc.leaving_count, traced.exits));

  const std::vector<double> epochs = rec.durations("sim.epoch");
  const double n = static_cast<double>(cfg.n);
  r.set("campaign_s", ref_campaign);
  r.set("sim.epochs", static_cast<double>(epochs.size()));
  r.set("sim.epoch_s", rec.total("sim.epoch"));
  r.set("sim.epoch_ms_p50", 1e3 * median(epochs));
  r.set("sim.epoch_ms_max", 1e3 * quantile(epochs, 1.0));
  r.set("sim.actions", static_cast<double>(traced.steps));
  r.set("sim.actions_per_s", ratio(static_cast<double>(steps), ref_campaign));
  r.set("sim.shard_init_s", rec.total("sim.shard_init"));
  r.set("sim.bytes_per_process", static_cast<double>(traced.bytes.total()) / n);
  r.set("sim.bytes.processes", static_cast<double>(traced.bytes.processes) / n);
  r.set("sim.bytes.channels_messages",
        static_cast<double>(traced.bytes.channels_messages) / n);
  r.set("sim.bytes.indices", static_cast<double>(traced.bytes.indices) / n);
  r.set("sim.bytes.scratch", static_cast<double>(traced.bytes.scratch) / n);
  r.set("core.oracle_calls", static_cast<double>(oracle.calls()));
  r.set("core.oracle_s", oracle.seconds());
  r.set("core.oracle_exit_frac", ratio(static_cast<double>(oracle.exits()),
                                       static_cast<double>(oracle.calls())));
  r.set("core.phi_initial", static_cast<double>(check.phi_initial));
  r.set("core.phi_final", static_cast<double>(check.phi_final));
  r.set("analysis.build_s", rec.total("analysis.build"));
  r.layer("analysis.build", rec.total("analysis.build"));
  r.layer("sim.shard_init", rec.total("sim.shard_init"));
  r.layer("sim.epoch", rec.total("sim.epoch"));
  traced.sc.world.reset();

  // k-invariance, the k=2 speed-up and the P1 oracle's shard skew, on the
  // same seed. Only the oracle is timed here, so the k=2 wall stays close
  // to an untraced one.
  CampaignConfig sharded = cfg;
  sharded.shards = 2;
  OracleStats shard_oracle(sharded.n, sharded.shards);
  const CampaignRun two = run_campaign(sharded, nullptr, &shard_oracle);
  if (two.steps != steps)
    r.fail("the k=1 and k=2 campaigns executed different step counts");
  r.set("sim.speedup_k2", ratio(ref_campaign, two.campaign_s));
  r.set("core.oracle_shard_skew", shard_oracle.shard_skew());
  std::printf(
      "sim_campaign traced: %llu steps in %zu epochs; P1 oracle %llu calls, "
      "%.4f s; k=1 %.3f s vs k=2 %.3f s, k=2 oracle shard skew %.3f\n",
      ull(steps), epochs.size(), ull(oracle.calls()), oracle.seconds(),
      ref_campaign, two.campaign_s, shard_oracle.shard_skew());
  r.attribute(wall, ref_wall, "sim.epoch");
}

// ------------------------------------------------------------- sim_checked

std::uint64_t unclean_trials(const fdp::ExperimentResult& res) {
  std::uint64_t bad = 0;
  for (const fdp::TrialResult& t : res.trials) {
    const fdp::RunResult& run = t.run;
    if (t.threw || !run.reached_legitimate || !run.safety_ok ||
        !run.phi_monotone || !run.audit_ok)
      ++bad;
  }
  return bad;
}

void checked_e2e(const Args& a, Report& r) {
  CheckedConfig cfg;
  cfg.seed = a.seed;
  const Clock::time_point t0 = Clock::now();
  std::vector<double> setup;
  std::vector<double> sweep;
  std::map<std::uint64_t, double> trial_s;  ///< by seed, fastest repeat
  for (unsigned i = 0; i < kCheckedSetups; ++i)
    setup.push_back(time_checked_setup(cfg));
  std::vector<std::uint64_t> steps;
  std::uint64_t peak_kb = 0;
  do {
    const CheckedSweep s = run_checked(cfg);
    if (sweep.empty()) peak_kb = fdp::alloc_stats::rss_peak_kb();
    sweep.push_back(s.result.wall_seconds);
    for (const auto& [seed, seconds] : s.trial_s) {
      const auto [it, fresh] = trial_s.emplace(seed, seconds);
      if (!fresh) it->second = std::min(it->second, seconds);
    }
    std::vector<std::uint64_t> now;
    for (const fdp::TrialResult& t : s.result.trials)
      now.push_back(t.run.steps);
    if (!steps.empty() && now != steps)
      r.fail("a repeated sweep executed different step counts");
    steps = std::move(now);
    r.count(s.result.trials.size(), unclean_trials(s.result));
    if (!s.result.agg.clean())
      r.fail("sweep verdict " + s.result.agg.verdict() + ": " +
             s.result.agg.first_failure);
  } while (elapsed(t0) < a.seconds);
  std::uint64_t total = 0;
  for (const std::uint64_t s : steps) total += s;
  std::printf("sim_checked: n=%zu, %zu sweep(s) of %llu trials, %llu steps "
              "per sweep\n",
              cfg.n, sweep.size(), ull(cfg.trials), ull(total));
  std::vector<double> trial_ms;
  for (const auto& entry : trial_s) trial_ms.push_back(1e3 * entry.second);
  r.set("setup_s", median(setup));
  r.set("job_s", fastest(sweep));
  r.set("op_p50_ms", median(trial_ms));
  r.set("peak_rss_mb", kb_to_mb(peak_kb));
}

void checked_traced(const Args& a, Report& r, Recorder& rec) {
  CheckedConfig cfg;
  cfg.seed = a.seed;
  const CheckedSweep ref = run_checked(cfg);
  const CheckedTrace traced = run_checked_traced(cfg);
  std::uint64_t steps = 0;
  std::uint64_t checks = 0;
  std::uint64_t skipped = 0;
  std::uint64_t phi0 = 0;
  std::uint64_t phi1 = 0;
  std::uint64_t calls = 0;
  std::uint64_t exits = 0;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < traced.trials.size(); ++i) {
    const CheckedTrial& t = traced.trials[i];
    if (i >= ref.result.trials.size() ||
        t.steps != ref.result.trials[i].run.steps)
      r.fail("tracing changed the step count of trial " + std::to_string(i));
    if (!t.clean) ++bad;
    steps += t.steps;
    checks += t.safety_checks;
    skipped += t.safety_skipped;
    phi0 += t.phi_initial;
    phi1 += t.phi_final;
    calls += t.oracle_calls;
    exits += t.oracle_exits;
    rec.merge(t.rec);
  }
  r.count(traced.trials.size(), bad);
  if (bad != 0) r.fail(std::to_string(bad) + " traced trials not clean");

  const double build = rec.total("analysis.build");
  const double workers = static_cast<double>(cfg.workers);
  const double capacity = workers * traced.wall_s;
  const LeafTotal& safety = rec.leaf_total(Leaf::Safety);
  const LeafTotal& oracle = rec.leaf_total(Leaf::Oracle);
  r.set("sweep_s", ref.result.wall_seconds);
  r.set("sim.actions", static_cast<double>(steps));
  r.set("sim.actions_per_s",
        ratio(static_cast<double>(steps), ref.result.wall_seconds));
  r.set("sim.trial_self_s", rec.self_total("sim.trial"));
  r.set("core.oracle_calls", static_cast<double>(calls));
  r.set("core.oracle_s", oracle.seconds);
  r.set("core.oracle_exit_frac",
        ratio(static_cast<double>(exits), static_cast<double>(calls)));
  r.set("core.phi_initial", static_cast<double>(phi0));
  r.set("core.phi_final", static_cast<double>(phi1));
  r.set("analysis.build_s", build);
  r.set("analysis.driver_idle_s", traced.tail_idle_s);
  r.set("analysis.safety_s", safety.seconds);
  r.set("analysis.safety_checks", static_cast<double>(checks));
  r.set("analysis.safety_skipped", static_cast<double>(skipped));
  r.set("analysis.safety_us_per_check",
        1e6 * ratio(safety.seconds, static_cast<double>(checks)));
  r.set("analysis.potential_s", rec.leaf_total(Leaf::Potential).seconds);
  r.set("analysis.audit_s", rec.leaf_total(Leaf::Audit).seconds);
  r.layer("analysis.build", build);
  r.layer("sim.trial_self", rec.self_total("sim.trial"));
  r.layer("core.oracle", oracle.seconds);
  r.layer("analysis.safety", safety.seconds);
  r.layer("analysis.potential", rec.leaf_total(Leaf::Potential).seconds);
  r.layer("analysis.audit", rec.leaf_total(Leaf::Audit).seconds);
  r.layer("analysis.driver_idle", traced.tail_idle_s);
  std::printf("sim_checked traced: %zu trials, %llu steps, %llu safety "
              "checks (%llu skipped); times are thread-seconds of %u "
              "workers\n",
              traced.trials.size(), ull(steps), ull(checks), ull(skipped),
              cfg.workers);
  r.attribute(capacity, workers * ref.result.wall_seconds, "analysis.safety");
}

// -------------------------------------------------------------- live_churn

ChurnConfig churn_config(std::uint64_t seed, std::size_t trial) {
  ChurnConfig cfg;
  cfg.seed = seed * 1000 + trial + 1;
  return cfg;
}

/// Leavers plus lookups issued, and those that failed.
void count_churn(Report& r, const ChurnRun& run) {
  const std::uint64_t leavers = run.sc.leaving_count;
  r.count(leavers + run.report.issued,
          missing(leavers, run.sc.net->exits()) + run.report.unresolved);
}

void churn_e2e(const Args& a, Report& r) {
  // Rounds over the same few inputs: each input's fastest repeat is its
  // cost, and the median over the inputs is the run's.
  const Clock::time_point t0 = Clock::now();
  const double kNone = std::numeric_limits<double>::infinity();
  std::uint64_t peak_kb = 0;
  std::vector<double> setup;
  std::vector<double> served(kChurnInputs, kNone);
  std::vector<double> p50(kChurnInputs, kNone);
  std::vector<std::uint64_t> actions(kChurnInputs, 0);
  std::size_t rounds = 0;
  do {
    for (std::size_t i = 0; i < kChurnInputs; ++i) {
      // One runtime alive at a time; it is checked and dropped before the
      // next trial starts.
      const ChurnConfig cfg = churn_config(a.seed, i);
      const ChurnRun run = run_churn(cfg, nullptr, nullptr);
      if (peak_kb == 0) peak_kb = fdp::alloc_stats::rss_peak_kb();
      const std::string failure = check_churn(cfg, run);
      if (!failure.empty())
        r.fail("input " + std::to_string(i) + ": " + failure);
      if (rounds == 0)
        actions[i] = run.sc.net->clock();
      else if (run.sc.net->clock() != actions[i])
        r.fail("a repeated trial executed a different number of actions");
      count_churn(r, run);
      const double p50_ms = static_cast<double>(run.report.p50_us) / 1e3;
      setup.push_back(run.setup_s);
      served[i] = std::min(served[i], run.served_s);
      p50[i] = std::min(p50[i], p50_ms);
      std::printf("live_churn round %zu input %zu (seed %llu): gone at pump "
                  "%llu in %.3f s; served in %.3f s, %llu pumps; lookups "
                  "%llu/%llu resolved, p50 %.1f ms = %llu ticks\n",
                  rounds, i, ull(cfg.seed), ull(run.pumps_to_gone),
                  run.gone_s, run.served_s, ull(run.pumps),
                  ull(run.report.resolved), ull(run.report.issued), p50_ms,
                  ull(run.report.p50_clock));
    }
    ++rounds;
  } while (rounds < kMinChurnRounds || elapsed(t0) < a.seconds);
  r.set("setup_s", median(setup));
  r.set("job_s", median(served));
  r.set("op_p50_ms", median(p50));
  r.set("peak_rss_mb", kb_to_mb(peak_kb));
}

void set_net_layers(Report& r, const Recorder& rec) {
  const std::vector<double> pumps = rec.durations("net.pump");
  const double self = rec.self_total("net.pump");
  const double send = rec.leaf_total(Leaf::Send).seconds;
  const double poll_self = rec.self_total("net.poll");
  const double rx = rec.leaf_total(Leaf::Rx).seconds;
  r.set("net.pumps", static_cast<double>(pumps.size()));
  r.set("net.pump_ms_p50", 1e3 * quantile(pumps, 0.5));
  r.set("net.pump_ms_p95", 1e3 * quantile(pumps, 0.95));
  r.set("net.runtime_self_s", self);
  r.set("net.send_s", send);
  r.set("net.poll_self_s", poll_self);
  r.set("net.rx_s", rx);
  r.layer("net.runtime_self", self);
  r.layer("net.transport", send + poll_self);
  r.layer("net.rx", rx);
}

void set_net_counts(Report& r, std::uint64_t frames,
                    const fdp::net::TransportStats& st) {
  const double f = static_cast<double>(frames);
  r.set("net.frames", f);
  r.set("net.datagrams", static_cast<double>(st.frames_sent));
  r.set("net.frames_per_datagram",
        ratio(f, static_cast<double>(st.frames_sent)));
  r.set("net.send_calls", static_cast<double>(st.send_calls));
  r.set("net.recv_calls", static_cast<double>(st.recv_calls));
  r.set("net.poll_calls", static_cast<double>(st.poll_calls));
  r.set("net.syscalls_per_frame",
        ratio(static_cast<double>(st.send_calls + st.recv_calls), f));
}

void set_runtime_counters(Report& r, const fdp::net::NetRuntime& rt) {
  r.set("net.actions", static_cast<double>(rt.clock()));
  r.set("net.deliveries", static_cast<double>(rt.deliveries()));
  r.set("net.timeouts", static_cast<double>(rt.timeouts()));
  r.set("net.sends", static_cast<double>(rt.sends()));
  r.set("net.retransmits", static_cast<double>(rt.retransmits()));
  r.set("net.stale_frames", static_cast<double>(rt.stale_frames()));
  r.set("net.throttle_skips", static_cast<double>(rt.throttle_skips()));
  r.set("net.wire_errors", static_cast<double>(rt.wire_errors()));
  r.set("net.retransmit_gave_up", static_cast<double>(rt.retransmit_gave_up()));
}

void churn_traced(const Args& a, Report& r, Recorder& rec) {
  const ChurnConfig cfg = churn_config(a.seed, 0);
  const ChurnRun ref = run_churn(cfg, nullptr, nullptr);
  OracleStats oracle(cfg.n, 1);
  const ChurnRun traced = run_churn(cfg, &rec, &oracle);
  const fdp::net::NetRuntime& u = *ref.sc.net;
  const fdp::net::NetRuntime& t = *traced.sc.net;
  if (u.clock() != t.clock() || u.deliveries() != t.deliveries() ||
      u.sends() != t.sends() || u.timeouts() != t.timeouts() ||
      u.ticks() != t.ticks() || ref.report.resolved != traced.report.resolved ||
      ref.report.p50_clock != traced.report.p50_clock ||
      ref.report.p95_clock != traced.report.p95_clock)
    r.fail("tracing changed the live run's exact counts");
  const std::string failure = check_churn(cfg, traced);
  if (!failure.empty()) r.fail(failure);
  count_churn(r, traced);

  const fdp::WorkloadReport& w = ref.report;
  r.set("gone_s", ref.gone_s);
  r.set("lookup_p50_ms", static_cast<double>(w.p50_us) / 1e3);
  r.set("lookup_p95_ms", static_cast<double>(w.p95_us) / 1e3);
  r.set("lookup_p50_ticks", static_cast<double>(w.p50_clock));
  r.set("lookup_p95_ticks", static_cast<double>(w.p95_clock));
  r.set("core.oracle_calls", static_cast<double>(oracle.calls()));
  r.set("core.oracle_s", oracle.seconds());
  r.set("core.oracle_exit_frac", ratio(static_cast<double>(oracle.exits()),
                                       static_cast<double>(oracle.calls())));
  const double build = rec.total("analysis.build");
  const double issue = rec.self_total("analysis.lookup_issue");
  const double observe = rec.leaf_total(Leaf::Observe).seconds;
  r.set("analysis.build_s", build);
  r.set("analysis.lookup_issue_s", issue);
  r.set("analysis.lookup_observe_s", observe);
  r.set("analysis.lookups_issued", static_cast<double>(traced.report.issued));
  r.set("analysis.lookups_resolved",
        static_cast<double>(traced.report.resolved));
  r.set("analysis.lookups_hits", static_cast<double>(traced.report.hits));
  r.set("analysis.lookups_misses", static_cast<double>(traced.report.misses));
  set_net_layers(r, rec);
  set_net_counts(r, t.deliveries(), t.transport().stats());
  set_runtime_counters(r, t);
  r.layer("analysis.build", build);
  r.layer("analysis.lookup_issue", issue);
  r.layer("analysis.lookup_observe", observe);
  r.layer("core.oracle", oracle.seconds());
  std::printf("live_churn traced: gone at pump %llu of %llu; %llu actions; "
              "lookups %llu/%llu resolved\n",
              ull(traced.pumps_to_gone), ull(traced.pumps), ull(t.clock()),
              ull(traced.report.resolved), ull(traced.report.issued));
  r.attribute(traced.setup_s + traced.loop_s, ref.setup_s + ref.loop_s,
              "net.runtime_self");
}

// --------------------------------------------------------------- udp_flood

void check_flood(Report& r, const fdp::net::NetRuntime& rt,
                 std::uint64_t frames) {
  if (frames == 0) r.fail("no frame was delivered");
  if (rt.wire_errors() != 0)
    r.fail(std::to_string(rt.wire_errors()) + " wire errors");
  if (rt.retransmit_gave_up() != 0)
    r.fail(std::to_string(rt.retransmit_gave_up()) + " retransmit give-ups");
}

void flood_e2e(const Args& a, Report& r) {
  // Rounds of set-up, warm-up and a few windows, so that every set-up
  // sample is one the measured windows really ran on.
  const Clock::time_point t0 = Clock::now();
  std::vector<double> setup;
  std::vector<double> rates;    ///< frames per second of each window
  std::vector<double> pump_ms;  ///< mean pump(0) time of each window
  std::uint64_t frames = 0;
  std::uint64_t peak_kb = 0;
  do {
    const FloodRig rig = make_flood(a.seed, nullptr);
    setup.push_back(rig.setup_s);
    std::uint64_t round_frames = 0;
    for (std::size_t k = 0; k < kFloodWindowsPerRound; ++k) {
      const FloodWindow w =
          run_flood_window(*rig.rt, kFloodWindowPumps, nullptr);
      rates.push_back(ratio(static_cast<double>(w.frames), w.seconds));
      pump_ms.push_back(1e3 * w.seconds /
                        static_cast<double>(kFloodWindowPumps));
      round_frames += w.frames;
      r.count(w.admitted, w.failed);
    }
    if (peak_kb == 0) peak_kb = fdp::alloc_stats::rss_peak_kb();
    check_flood(r, *rig.rt, round_frames);
    frames += round_frames;
  } while (setup.size() < kMinFloodRounds || elapsed(t0) < a.seconds);
  std::printf("udp_flood: %zu rounds of %zu windows of %zu pumps, %llu "
              "frames; frames/s by window: min %.0f, median %.0f, max %.0f\n",
              setup.size(), kFloodWindowsPerRound, kFloodWindowPumps,
              ull(frames), quantile(rates, 0), median(rates),
              quantile(rates, 1));
  r.set("setup_s", median(setup));
  r.set("job_s", ratio(1e6, quantile(rates, 1)));  // the fastest window
  r.set("op_p50_ms", fastest(pump_ms));
  r.set("peak_rss_mb", kb_to_mb(peak_kb));
}

void flood_traced(const Args& a, Report& r, Recorder& rec) {
  // The untraced reference: one round of set-up, warm-up and windows.
  double ref_wall = 0;
  std::vector<double> ref_rates;
  std::uint64_t ref_allocs = 0;
  {
    const FloodRig ref = make_flood(a.seed, nullptr);
    ref_wall += ref.setup_s + ref.warmup_s;
    for (std::size_t k = 0; k < kFloodWindowsPerRound; ++k) {
      const FloodWindow w =
          run_flood_window(*ref.rt, kFloodWindowPumps, nullptr);
      ref_wall += w.seconds;
      ref_rates.push_back(ratio(static_cast<double>(w.frames), w.seconds));
      ref_allocs += w.allocs;
    }
    check_flood(r, *ref.rt, 1);
  }

  FloodRig rig = make_flood(a.seed, &rec);
  double wall = rig.setup_s + rig.warmup_s;
  // Two spans per pump (the pump and its poll), so the windows do not
  // grow the span store.
  rec.reserve(rec.spans().size() +
              2 * kFloodWindowsPerRound * kFloodWindowPumps);
  FloodWindow sum;
  for (std::size_t k = 0; k < kFloodWindowsPerRound; ++k) {
    const FloodWindow w =
        run_flood_window(*rig.rt, kFloodWindowPumps, &rec);
    wall += w.seconds;
    sum.frames += w.frames;
    sum.admitted += w.admitted;
    sum.failed += w.failed;
    sum.stats.send_calls += w.stats.send_calls;
    sum.stats.recv_calls += w.stats.recv_calls;
    sum.stats.poll_calls += w.stats.poll_calls;
    sum.stats.frames_sent += w.stats.frames_sent;
  }
  r.count(sum.admitted, sum.failed);
  check_flood(r, *rig.rt, sum.frames);

  r.set("frames_per_s", median(ref_rates));
  r.set("net.setup_s", rec.total("net.setup"));
  r.set("net.steady_allocs", static_cast<double>(ref_allocs));
  set_net_layers(r, rec);
  set_net_counts(r, sum.frames, sum.stats);
  set_runtime_counters(r, *rig.rt);
  r.layer("net.setup", rec.total("net.setup"));
  std::printf("udp_flood traced: %llu frames in %zu windows; %.3f syscalls "
              "per frame, %.2f frames per datagram; steady allocs %llu%s\n",
              ull(sum.frames), kFloodWindowsPerRound,
              ratio(static_cast<double>(sum.stats.send_calls +
                                        sum.stats.recv_calls),
                    static_cast<double>(sum.frames)),
              ratio(static_cast<double>(sum.frames),
                    static_cast<double>(sum.stats.frames_sent)),
              ull(ref_allocs),
              fdp::alloc_stats::hooked() ? "" : " (alloc hook not linked)");
  r.attribute(wall, ref_wall, "net.transport");
}

// -------------------------------------------------------------- the driver

void print_environment() {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  const char* digest = std::getenv("PERFBENCH_SOURCE_DIGEST");
  std::printf(
      "{\"environment\": {\"nproc\": %ld, \"build_type\": \"%s\", "
      "\"optimized\": %s, \"compiler\": \"%s\", \"mmsg_supported\": %s, "
      "\"alloc_hook\": %s, \"commit\": \"%s\", \"source_digest\": \"%s\"}}\n",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
      kOptimized ? "true" : "false", PERFBENCH_COMPILER,
      fdp::net::UdpTransport::mmsg_supported() ? "true" : "false",
      fdp::alloc_stats::hooked() ? "true" : "false",
      commit != nullptr ? commit : "none", digest != nullptr ? digest : "none");
}

void write_trace(const Args& a, const Recorder& rec, const Report& r) {
  if (a.trace_dir.empty()) return;
  const std::string path = a.trace_dir + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  rec.write_spans(f);
  std::fprintf(f, "{\"layers\": {");
  const auto& layers = r.layers();
  for (std::size_t i = 0; i < layers.size(); ++i)
    std::fprintf(f, "%s\"%s\": %.9f", i == 0 ? "" : ", ", layers[i].first,
                 layers[i].second);
  std::fprintf(f, "}}\n");
  if (std::fclose(f) != 0)
    std::fprintf(stderr, "perfbench: write error on %s\n", path.c_str());
  else
    std::printf("spans written to %s\n", path.c_str());
}

bool parse(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      if (*value == '\0' || *value == '-') return false;
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 3600) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return false;
      a.trace = value[0] == '1';
    } else if (key == "--trace-dir") {
      a.trace_dir = value;
    } else {
      return false;
    }
  }
  return a.workload == "sim_campaign" || a.workload == "sim_checked" ||
         a.workload == "live_churn" || a.workload == "udp_flood";
}

int run(const Args& a) {
  print_environment();
  Report report(a.trace);
  Recorder rec;
  if (a.workload == "sim_campaign") {
    if (a.trace) campaign_traced(a, report, rec); else campaign_e2e(a, report);
  } else if (a.workload == "sim_checked") {
    if (a.trace) checked_traced(a, report, rec); else checked_e2e(a, report);
  } else if (a.workload == "live_churn") {
    if (a.trace) churn_traced(a, report, rec); else churn_e2e(a, report);
  } else {
    if (a.trace) flood_traced(a, report, rec); else flood_e2e(a, report);
  }
  if (a.trace) {
    report.set("failed_frac", report.failed_frac());
    report.set("trace.spans", static_cast<double>(rec.spans().size()));
    write_trace(a, rec, report);
  }
  report.print_result();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <sim_campaign|sim_checked|"
                 "live_churn|udp_flood> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n");
    return 2;
  }
  if (!perfbench::kOptimized) {
    std::fprintf(stderr, "perfbench: refusing to time an unoptimised build "
                         "(build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
