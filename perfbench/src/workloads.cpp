#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <numeric>
#include <utility>

#include "analysis/monitors.hpp"
#include "core/legitimacy.hpp"
#include "core/oracle.hpp"
#include "core/potential.hpp"
#include "core/primitives.hpp"
#include "net/runtime.hpp"
#include "net/transport.hpp"
#include "sim/context.hpp"
#include "sim/sharded_world.hpp"
#include "util/rng.hpp"

namespace perfbench {

using fdp::ProcessId;

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return fdp::splitmix64(state);
}

std::uint64_t shard_seed(std::uint64_t seed) { return mix(seed, 0xC0FFEE); }

}  // namespace

// ------------------------------------------------------------ sim_campaign

fdp::ScenarioConfig campaign_scenario(const CampaignConfig& cfg) {
  fdp::ScenarioConfig sc;
  sc.n = cfg.n;
  sc.topology = "gnp";
  sc.leave_fraction = 0.3;
  sc.invalid_mode_prob = 0.3;
  sc.inflight_per_node = 1.0;
  sc.oracle = "single";
  sc.seed = cfg.seed;
  return sc;
}

CampaignRun run_campaign(const CampaignConfig& cfg, Recorder* rec,
                         OracleStats* oracle) {
  CampaignRun run;
  const Clock::time_point t0 = Clock::now();
  {
    const ScopedSpan span(rec, "analysis.build");
    run.sc = fdp::build_departure_scenario(campaign_scenario(cfg));
  }
  fdp::World& w = *run.sc.world;
  // The builder installed SINGLE; re-install it behind the timer.
  if (oracle != nullptr)
    w.set_oracle(timed_oracle(fdp::make_single_oracle(), oracle, nullptr));
  const Clock::time_point t1 = Clock::now();
  std::unique_ptr<fdp::ShardedWorld> sw;
  {
    const ScopedSpan span(rec, "sim.shard_init");
    sw = std::make_unique<fdp::ShardedWorld>(w, cfg.shards, fdp::ShardPolicy{},
                                             shard_seed(cfg.seed));
  }
  const Clock::time_point t2 = Clock::now();
  run.build_s = seconds_between(t0, t1);
  run.shard_init_s = seconds_between(t1, t2);

  while (w.exits() < run.sc.leaving_count) {
    const Clock::time_point e0 = Clock::now();
    bool progressed = false;
    {
      const ScopedSpan span(rec, "sim.epoch");
      progressed = sw->epoch();
    }
    run.epoch_s.push_back(seconds_between(e0, Clock::now()));
    if (!progressed) break;  // terminal without every leaver gone
  }
  run.campaign_s = seconds_between(t2, Clock::now());
  run.peak_rss_kb = fdp::alloc_stats::rss_peak_kb();

  sw->finalize();
  sw.reset();  // joins the shard threads
  run.steps = w.steps();
  run.exits = w.exits();
  run.bytes = w.footprint(/*capacity=*/true);
  return run;
}

CampaignCheck check_campaign(const CampaignConfig& cfg,
                             const CampaignRun& run) {
  CampaignCheck check;
  const fdp::World& w = *run.sc.world;
  if (run.exits != run.sc.leaving_count || !fdp::all_leaving_gone(w)) {
    check.failure = "only " + std::to_string(run.exits) + " of " +
                    std::to_string(run.sc.leaving_count) + " leavers exited";
    return check;
  }
  fdp::Scenario initial =
      fdp::build_departure_scenario(campaign_scenario(cfg));
  check.phi_initial = fdp::phi(*initial.world);
  const fdp::LegitimacyChecker checker(*initial.world, fdp::Exclusion::Gone);
  initial.world.reset();
  const fdp::LegitimacyChecker::Verdict verdict = checker.check(w);
  check.phi_final = fdp::phi(w);
  if (!verdict.legitimate()) {
    check.failure = "final state not legitimate: " + verdict.detail;
  } else if (check.phi_final > check.phi_initial) {
    check.failure = "phi grew from " + std::to_string(check.phi_initial) +
                    " to " + std::to_string(check.phi_final);
  }
  return check;
}

// ------------------------------------------------------------- sim_checked

fdp::ExperimentSpec checked_spec(const CheckedConfig& cfg) {
  fdp::ScenarioSpec scenario;
  scenario.config.n = cfg.n;
  scenario.config.topology = "gnp";
  scenario.config.leave_fraction = 0.3;
  scenario.config.invalid_mode_prob = 0.3;
  scenario.config.random_anchor_prob = 0.3;
  scenario.config.inflight_per_node = 1.0;
  fdp::ExperimentSpec spec;
  spec.scenario(std::move(scenario))
      .scheduler(fdp::SchedulerSpec::of(fdp::SchedulerKind::Random))
      .max_steps(3'000'000)
      .monitors(true, 1)
      .seeds(cfg.seed * 1000 + 1, cfg.trials)
      .seed_mix(977, cfg.n)
      .workers(cfg.workers);
  return spec;
}

double time_checked_setup(const CheckedConfig& cfg) {
  const fdp::ExperimentSpec spec = checked_spec(cfg);
  std::unique_ptr<fdp::World> reuse;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < spec.seed_count(); ++i) {
    fdp::Scenario sc = spec.scenario().build(spec.trial_seed(i),
                                             std::move(reuse));
    {
      const fdp::SafetyMonitor safety(*sc.world, spec.monitor_stride());
      const fdp::PotentialMonitor potential(*sc.world, spec.monitor_stride());
    }
    reuse = std::move(sc.world);
  }
  return seconds_between(t0, Clock::now());
}

namespace {

struct TrialClock {
  std::mutex m;
  std::vector<std::pair<std::uint64_t, double>> samples;  ///< guarded by m
};

}  // namespace

CheckedSweep run_checked(const CheckedConfig& cfg) {
  static std::atomic<std::uint64_t> sweeps{0};
  const std::uint64_t sweep = ++sweeps;
  auto clock = std::make_shared<TrialClock>();
  fdp::ExperimentSpec spec = checked_spec(cfg);
  spec.on_trial_start([sweep, clock](std::uint64_t seed) {
    // Per worker thread: the sweep and trial this thread last started,
    // and when.
    thread_local std::uint64_t open_sweep = 0;
    thread_local std::uint64_t open_seed = 0;
    thread_local Clock::time_point started;
    const Clock::time_point now = Clock::now();
    if (open_sweep == sweep) {
      const std::lock_guard<std::mutex> lock(clock->m);
      clock->samples.emplace_back(open_seed, seconds_between(started, now));
    }
    open_sweep = sweep;
    open_seed = seed;
    started = now;
  });
  CheckedSweep out;
  out.result = fdp::ExperimentDriver(cfg.workers).run(spec);
  out.trial_s = std::move(clock->samples);
  return out;
}

CheckedTrace run_checked_traced(const CheckedConfig& cfg) {
  const fdp::ExperimentSpec spec = checked_spec(cfg);
  fdp::ExperimentSpec bare = spec;
  bare.monitors(false);
  struct WorkerState {
    std::unique_ptr<fdp::World> world;
  };
  CheckedTrace out;
  const Clock::time_point origin = Clock::now();
  out.trials = fdp::parallel_map_with<WorkerState>(
      spec.seed_count(), spec.workers(),
      [&](std::uint64_t i, WorkerState& ws) {
        CheckedTrial t;
        t.worker = std::this_thread::get_id();
        t.rec = Recorder(origin);
        Recorder* rec = &t.rec;
        rec->set_trace(static_cast<std::uint32_t>(i));
        fdp::Scenario sc;
        {
          const ScopedSpan span(rec, "analysis.build");
          sc = spec.scenario().build(spec.trial_seed(i), std::move(ws.world));
        }
        fdp::World& w = *sc.world;
        OracleStats oracle(w.size(), 1);
        w.set_oracle(timed_oracle(fdp::make_single_oracle(), &oracle, rec));
        {
          const ScopedSpan span(rec, "sim.trial");
          std::unique_ptr<fdp::SafetyMonitor> safety;
          std::unique_ptr<fdp::PotentialMonitor> potential;
          {
            const LeafTimer timer(rec, Leaf::Safety);
            safety = std::make_unique<fdp::SafetyMonitor>(
                w, spec.monitor_stride());
          }
          {
            const LeafTimer timer(rec, Leaf::Potential);
            potential = std::make_unique<fdp::PotentialMonitor>(
                w, spec.monitor_stride());
          }
          fdp::PrimitiveAuditor audit;
          TimedObserver timed_safety(*safety, rec, Leaf::Safety);
          TimedObserver timed_potential(*potential, rec, Leaf::Potential);
          TimedObserver timed_audit(audit, rec, Leaf::Audit);
          FanOut monitors({&timed_safety, &timed_potential, &timed_audit});
          const fdp::RunResult res =
              fdp::run_to_legitimacy(sc, bare, &monitors);
          t.steps = res.steps;
          t.clean = res.reached_legitimate && safety->ok() &&
                    potential->ok() && audit.ok();
          t.safety_checks = safety->checks();
          t.safety_skipped = safety->skipped();
          t.phi_initial = res.phi_initial;
          t.phi_final = res.phi_final;
        }
        t.oracle_calls = oracle.calls();
        t.oracle_exits = oracle.exits();
        // The retired world still holds the timed oracle; the next build
        // installs SINGLE again before any consultation.
        ws.world = std::move(sc.world);
        return t;
      });
  out.wall_s = seconds_between(origin, Clock::now());

  std::map<std::thread::id, double> last_end;  // per worker
  for (const CheckedTrial& t : out.trials)
    for (const Span& s : t.rec.spans())
      last_end[t.worker] = std::max(last_end[t.worker], s.end);
  for (const auto& [worker, end] : last_end)
    out.tail_idle_s += out.wall_s - end;
  return out;
}

// -------------------------------------------------------------- live_churn

namespace {

/// Progress rule: once every lookup was issued, the run ends after this
/// many consecutive pumps without an exit or a verdict. Lookups still open
/// then are lost; leavers still present fail the run.
constexpr std::uint64_t kStallPumps = 200;

}  // namespace

fdp::ScenarioConfig churn_scenario(const ChurnConfig& cfg) {
  fdp::ScenarioConfig sc;
  sc.n = cfg.n;
  sc.topology = "gnp";
  sc.leave_fraction = 0.25;
  sc.invalid_mode_prob = 0.2;
  sc.random_anchor_prob = 0.1;
  sc.seed = cfg.seed;
  return sc;
}

ChurnRun run_churn(const ChurnConfig& cfg, Recorder* rec,
                   OracleStats* oracle) {
  ChurnRun run;
  std::unique_ptr<fdp::net::Transport> medium =
      std::make_unique<fdp::net::MemTransport>();
  if (rec != nullptr)
    medium = std::make_unique<TimedTransport>(std::move(medium), rec);
  const Clock::time_point t0 = Clock::now();
  {
    const ScopedSpan span(rec, "analysis.build");
    run.sc = fdp::net::build_live_framework_scenario(
        churn_scenario(cfg), "linearization", std::move(medium));
  }
  run.setup_s = seconds_between(t0, Clock::now());
  fdp::net::NetRuntime& net = *run.sc.net;
  if (oracle != nullptr)
    net.set_oracle(timed_oracle(fdp::make_single_oracle(), oracle, rec));

  fdp::WorkloadConfig wcfg;
  wcfg.total = cfg.lookups;
  wcfg.interval = 2;
  wcfg.absent_prob = 0.2;
  wcfg.seed = cfg.seed;
  std::vector<std::uint64_t> keys;
  keys.reserve(net.size());
  for (ProcessId p = 0; p < net.size(); ++p)
    keys.push_back(net.process(p).key());
  run.workload = std::make_unique<fdp::LookupWorkload>(
      run.sc.refs, std::move(keys), run.sc.leaving, wcfg);
  fdp::LookupWorkload& wl = *run.workload;
  if (rec != nullptr) {
    run.observer = std::make_unique<TimedObserver>(wl, rec, Leaf::Observe);
    net.add_observer(run.observer.get());
  } else {
    net.add_observer(&wl);
  }

  const Clock::time_point start = Clock::now();
  bool gone = false;
  std::uint64_t quiet = 0;
  std::uint64_t last_progress = 0;
  for (;;) {
    if (!wl.all_issued()) {
      const ScopedSpan span(rec, "analysis.lookup_issue");
      wl.pump(net);
    }
    {
      const ScopedSpan span(rec, "net.pump");
      net.pump(0);
    }
    ++run.pumps;
    if (!gone && fdp::all_leaving_gone(net)) {
      gone = true;
      run.gone_s = seconds_between(start, Clock::now());
      run.pumps_to_gone = run.pumps;
    }
    if (gone && wl.all_resolved()) {
      run.served_s = seconds_between(start, Clock::now());
      break;
    }
    const std::uint64_t progress = net.exits() + wl.issued() + wl.resolved();
    if (progress != last_progress) {
      quiet = 0;
      last_progress = progress;
      run.served_s = seconds_between(start, Clock::now());
    } else if (wl.all_issued() && ++quiet >= kStallPumps) {
      break;
    }
  }
  run.loop_s = seconds_between(start, Clock::now());
  run.report = wl.report();
  return run;
}

std::string check_churn(const ChurnConfig& cfg, const ChurnRun& run) {
  const fdp::net::NetRuntime& net = *run.sc.net;
  if (!fdp::all_leaving_gone(net))
    return "departures stalled: " + std::to_string(net.exits()) + " of " +
           std::to_string(run.sc.leaving_count) + " leavers exited";
  if (net.wire_errors() != 0)
    return std::to_string(net.wire_errors()) + " wire errors";
  if (net.retransmit_gave_up() != 0)
    return std::to_string(net.retransmit_gave_up()) + " retransmit give-ups";
  fdp::net::LiveScenario initial = fdp::net::build_live_framework_scenario(
      churn_scenario(cfg), "linearization",
      std::make_unique<fdp::net::MemTransport>());
  const fdp::LegitimacyChecker checker(*initial.net, fdp::Exclusion::Gone);
  initial.net.reset();
  const fdp::LegitimacyChecker::Verdict verdict = checker.check(net);
  if (!verdict.legitimate())
    return "final state not legitimate: " + verdict.detail;
  return "";
}

// --------------------------------------------------------------- udp_flood

namespace {

/// Allocation-free ping actor, the shape of bench_net_throughput's
/// generator: each timeout sends `fanout` one-ref frames spread over a
/// window of `width` consecutive peers, then slides the window. Several
/// frames per action to a handful of destinations is what gives sendmmsg
/// batches and same-destination coalescing something to do.
class PingProcess final : public fdp::Process {
 public:
  PingProcess(fdp::Ref self, fdp::Mode mode, std::uint64_t key)
      : Process(self, mode, key) {}

  void set_peers(std::vector<fdp::Ref> peers, std::size_t fanout,
                 std::size_t width) {
    peers_ = std::move(peers);
    fanout_ = fanout;
    width_ = std::max<std::size_t>(1, std::min(width, peers_.size()));
  }
  void on_timeout(fdp::Context& ctx) override {
    if (peers_.empty()) return;
    for (std::size_t k = 0; k < fanout_; ++k) {
      const fdp::Ref to = peers_[(next_ + k % width_) % peers_.size()];
      ctx.send(to, fdp::Message{fdp::Verb::User, 0, 0, {self_info()}});
    }
    next_ += width_;
  }
  void on_message(fdp::Context&, const fdp::Message&) override {}
  void collect_refs(std::vector<fdp::RefInfo>& out) const override {
    for (const fdp::Ref r : peers_)
      out.push_back(fdp::RefInfo{r, fdp::ModeInfo::Unknown, 0});
  }
  [[nodiscard]] const char* protocol_name() const override { return "ping"; }

 private:
  std::vector<fdp::Ref> peers_;
  std::size_t fanout_ = 1;
  std::size_t width_ = 1;
  std::size_t next_ = 0;
};

}  // namespace

FloodRig make_flood(std::uint64_t seed, Recorder* rec) {
  constexpr std::size_t kActors = 256;
  constexpr std::size_t kFanout = 16;
  constexpr std::size_t kWidth = 4;
  // Enough pumps for the outboxes and socket buffers to reach the
  // throttle's steady state before anything is measured.
  constexpr std::size_t kWarmupPumps = 1000;
  FloodRig rig;
  const Clock::time_point t0 = Clock::now();
  {
    const ScopedSpan span(rec, "net.setup");
    fdp::net::NetConfig rcfg;
    rcfg.seed = mix(seed, 0xF100D);
    std::unique_ptr<fdp::net::Transport> medium =
        std::make_unique<fdp::net::UdpTransport>(/*batching=*/true);
    if (rec != nullptr)
      medium = std::make_unique<TimedTransport>(std::move(medium), rec);
    rig.rt = std::make_unique<fdp::net::NetRuntime>(std::move(medium), rcfg);
    for (ProcessId id = 0; id < kActors; ++id)
      (void)rig.rt->spawn<PingProcess>(fdp::Mode::Staying, id + 1);
    // A seeded ring order: order[i] pings order[i+1], order[i+2], ...
    std::vector<ProcessId> order(kActors);
    std::iota(order.begin(), order.end(), ProcessId{0});
    fdp::Rng rng(seed);
    for (std::size_t i = kActors; i > 1; --i)
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.below(i))]);
    for (std::size_t i = 0; i < kActors; ++i) {
      std::vector<fdp::Ref> peers;
      peers.reserve(kActors - 1);
      for (std::size_t j = 1; j < kActors; ++j)
        peers.push_back(fdp::Ref::make(order[(i + j) % kActors]));
      rig.rt->process_as<PingProcess>(order[i]).set_peers(std::move(peers),
                                                          kFanout, kWidth);
    }
    const ScopedSpan start(rec, "net.start");
    rig.rt->start();
  }
  rig.setup_s = seconds_between(t0, Clock::now());
  rig.warmup_s = run_flood_window(*rig.rt, kWarmupPumps, rec).seconds;
  return rig;
}

FloodWindow run_flood_window(fdp::net::NetRuntime& rt, std::size_t pumps,
                             Recorder* rec) {
  FloodWindow w;
  const fdp::net::TransportStats s0 = rt.transport().stats();
  const std::uint64_t frames0 = rt.deliveries();
  const std::uint64_t admitted0 = rt.sends();
  const std::uint64_t failed0 = rt.retransmit_gave_up() + rt.wire_errors();
  const fdp::alloc_stats::Counters allocs0 = fdp::alloc_stats::snapshot();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < pumps; ++i) {
    const ScopedSpan span(rec, "net.pump");
    rt.pump(0);
  }
  w.seconds = seconds_between(t0, Clock::now());
  w.allocs = fdp::alloc_stats::allocs_since(allocs0);
  const fdp::net::TransportStats s1 = rt.transport().stats();
  w.frames = rt.deliveries() - frames0;
  w.admitted = rt.sends() - admitted0;
  w.failed = rt.retransmit_gave_up() + rt.wire_errors() - failed0;
  w.stats.send_calls = s1.send_calls - s0.send_calls;
  w.stats.recv_calls = s1.recv_calls - s0.recv_calls;
  w.stats.poll_calls = s1.poll_calls - s0.poll_calls;
  w.stats.frames_sent = s1.frames_sent - s0.frames_sent;
  w.stats.frames_received = s1.frames_received - s0.frames_received;
  return w;
}

}  // namespace perfbench
