// Out-of-program tracing for the benchmark's traced run.
//
// The benchmark records spans around its own calls into the library
// (scenario builders, the ShardedWorld constructor and each epoch(), each
// per-trial run_to_legitimacy, NetRuntime::start and pump,
// LookupWorkload::pump), and the decorators below time the library's
// public extension points: net::Transport, OracleFn and Observer. Nothing
// inside the library is instrumented.
//
// Calls that happen up to millions of times per run (oracle
// consultations, observer callbacks, per-batch sends, per-frame receive
// callbacks) are not recorded one span each. Each is a *leaf*: its time is
// added to a per-layer total and charged to the innermost open span, so
// that span's self time excludes it. A span's self time is its duration
// minus the time covered by its child spans and leaves.
//
// A Recorder is single-threaded. ShardedWorld consults the oracle from
// several threads; OracleStats measures that, with one slot per shard.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "sim/observer.hpp"
#include "sim/substrate.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// High-frequency calls, measured as per-layer totals.
enum class Leaf : std::uint8_t {
  Oracle,     ///< core: OracleFn consultations (single-threaded engines)
  Send,       ///< net: Transport::try_send / try_send_many
  Rx,         ///< net: the runtime's RxFn (decode plus ledger admission)
  Observe,    ///< analysis: LookupWorkload callbacks
  Safety,     ///< analysis: SafetyMonitor (construction and callbacks)
  Potential,  ///< analysis: PotentialMonitor (construction and callbacks)
  Audit,      ///< analysis: PrimitiveAuditor
  kCount,
};

struct LeafTotal {
  double seconds = 0;
  std::uint64_t calls = 0;
};

struct Span {
  const char* name = "";  ///< a string literal
  std::uint32_t parent = 0;
  std::uint32_t trace = 0;  ///< trial id, shared by every span of a trial
  double start = 0;         ///< seconds since the recorder's origin
  double end = 0;
  double child = 0;  ///< time covered by child spans and leaves
};

class Recorder {
 public:
  static constexpr std::uint32_t kNoSpan = ~std::uint32_t{0};

  explicit Recorder(Clock::time_point origin = Clock::now())
      : origin_(origin) {}

  /// Pre-size the span store so a measured window does not allocate.
  void reserve(std::size_t spans) { spans_.reserve(spans); }
  void set_trace(std::uint32_t id) { trace_ = id; }
  [[nodiscard]] std::uint32_t open(const char* name);
  void close(std::uint32_t span);
  void leaf(Leaf l, double seconds);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const LeafTotal& leaf_total(Leaf l) const {
    return leaves_[static_cast<std::size_t>(l)];
  }
  /// Sum of the durations / self times of every span called `name`.
  [[nodiscard]] double total(const char* name) const;
  [[nodiscard]] double self_total(const char* name) const;
  [[nodiscard]] std::vector<double> durations(const char* name) const;

  /// Append another recorder's spans and leaf totals (the per-trial
  /// recorders of one sweep share an origin).
  void merge(const Recorder& other);
  /// One JSON object per span, one per line.
  void write_spans(std::FILE* f) const;

 private:
  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t trace_ = 0;
  LeafTotal leaves_[static_cast<std::size_t>(Leaf::kCount)];
};

/// RAII span; with a null recorder it does nothing, so traced and
/// untraced runs share one code path.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* rec, const char* name)
      : rec_(rec), id_(rec != nullptr ? rec->open(name) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder* rec_;
  std::uint32_t id_;
};

/// RAII leaf timer; with a null recorder it does nothing.
class LeafTimer {
 public:
  LeafTimer(Recorder* rec, Leaf leaf)
      : rec_(rec),
        leaf_(leaf),
        t0_(rec != nullptr ? Clock::now() : Clock::time_point{}) {}
  ~LeafTimer() {
    if (rec_ != nullptr) rec_->leaf(leaf_, seconds_between(t0_, Clock::now()));
  }
  LeafTimer(const LeafTimer&) = delete;
  LeafTimer& operator=(const LeafTimer&) = delete;

 private:
  Recorder* rec_;
  Leaf leaf_;
  Clock::time_point t0_;
};

/// Oracle accounting keyed by id block, the way ShardedWorld partitions
/// processes: shard s owns ids [n*s/k, n*(s+1)/k). Phase 1 of an epoch
/// consults the oracle only for a shard's own processes, on that shard's
/// thread, so every slot has a single writer.
class OracleStats {
 public:
  struct alignas(64) Slot {
    double seconds = 0;
    std::uint64_t calls = 0;
    std::uint64_t exits = 0;  ///< consultations that allowed an exit
  };

  OracleStats(std::size_t n, unsigned shards);

  [[nodiscard]] Slot& slot_of(fdp::ProcessId p);
  [[nodiscard]] double seconds() const;
  [[nodiscard]] std::uint64_t calls() const;
  [[nodiscard]] std::uint64_t exits() const;
  /// Max over mean of the per-shard oracle time (1 = balanced).
  [[nodiscard]] double shard_skew() const;

 private:
  std::vector<fdp::ProcessId> lo_;  ///< first id of each shard
  std::vector<Slot> slots_;
};

/// Wrap an oracle so every consultation is counted in `stats`. With a
/// recorder (single-threaded engines only) it is also a Leaf::Oracle.
[[nodiscard]] fdp::OracleFn timed_oracle(fdp::OracleFn inner,
                                         OracleStats* stats, Recorder* rec);

/// Times every callback of one observer as `leaf`.
class TimedObserver final : public fdp::Observer {
 public:
  TimedObserver(fdp::Observer& inner, Recorder* rec, Leaf leaf)
      : inner_(inner), rec_(rec), leaf_(leaf) {}

  void on_action(const fdp::Substrate& sub,
                 const fdp::ActionRecord& rec) override;
  void on_inject(const fdp::Substrate& sub, fdp::ProcessId to,
                 const fdp::Message& m) override;
  void on_remove(const fdp::Substrate& sub, fdp::ProcessId from,
                 const fdp::Message& m) override;
  void on_fault(const fdp::Substrate& sub, fdp::FaultKind kind,
                fdp::ProcessId target, bool applied) override;

 private:
  fdp::Observer& inner_;
  Recorder* rec_;
  Leaf leaf_;
};

/// Forwards every callback to several observers, in order.
class FanOut final : public fdp::Observer {
 public:
  explicit FanOut(std::vector<fdp::Observer*> targets)
      : targets_(std::move(targets)) {}

  void on_action(const fdp::Substrate& sub,
                 const fdp::ActionRecord& rec) override;
  void on_inject(const fdp::Substrate& sub, fdp::ProcessId to,
                 const fdp::Message& m) override;
  void on_remove(const fdp::Substrate& sub, fdp::ProcessId from,
                 const fdp::Message& m) override;
  void on_fault(const fdp::Substrate& sub, fdp::FaultKind kind,
                fdp::ProcessId target, bool applied) override;

 private:
  std::vector<fdp::Observer*> targets_;
};

/// Transport decorator. Forwards every virtual, lossy() included:
/// NetRuntime samples lossy() at start() to decide whether to arm
/// retransmit timers, so inheriting the base `false` would silently turn
/// retransmission off on UDP. With a recorder, sends are Leaf::Send, each
/// poll() is a "net.poll" span, and the runtime's RxFn is wrapped so its
/// decode-plus-ledger time (Leaf::Rx) is split from the medium's time.
class TimedTransport final : public fdp::net::Transport {
 public:
  TimedTransport(std::unique_ptr<fdp::net::Transport> inner, Recorder* rec);

  void open(std::size_t n) override;
  bool try_send(fdp::ProcessId src, fdp::ProcessId dst,
                const std::uint8_t* data, std::size_t len) override;
  std::size_t try_send_many(fdp::ProcessId src,
                            const fdp::net::FrameView* frames,
                            std::size_t count) override;
  void poll(int timeout_ms, const fdp::net::RxFn& rx) override;
  [[nodiscard]] std::size_t in_medium() const override;
  [[nodiscard]] bool lossy() const override;
  [[nodiscard]] fdp::net::TransportStats stats() const override;
  [[nodiscard]] const char* name() const override;

 private:
  std::unique_ptr<fdp::net::Transport> inner_;
  Recorder* rec_;
  /// The RxFn rx_timed_ wraps. NetRuntime passes its own member, built
  /// once in start(), so the wrapper is rebuilt only if that changes.
  const fdp::net::RxFn* rx_src_ = nullptr;
  fdp::net::RxFn rx_timed_;
};

}  // namespace perfbench
