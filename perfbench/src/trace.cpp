#include "trace.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"

namespace perfbench {

// --- Recorder ---

std::uint32_t Recorder::open(const char* name) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? kNoSpan : stack_.back();
  s.trace = trace_;
  s.start = now();
  spans_.push_back(s);
  stack_.push_back(id);
  return id;
}

void Recorder::close(std::uint32_t span) {
  FDP_CHECK_MSG(!stack_.empty() && stack_.back() == span,
                "spans must close innermost first");
  stack_.pop_back();
  Span& s = spans_[span];
  s.end = now();
  if (s.parent != kNoSpan) spans_[s.parent].child += s.end - s.start;
}

void Recorder::leaf(Leaf l, double seconds) {
  LeafTotal& t = leaves_[static_cast<std::size_t>(l)];
  t.seconds += seconds;
  ++t.calls;
  if (!stack_.empty()) spans_[stack_.back()].child += seconds;
}

double Recorder::total(const char* name) const {
  double sum = 0;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) sum += s.end - s.start;
  return sum;
}

double Recorder::self_total(const char* name) const {
  double sum = 0;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) sum += s.end - s.start - s.child;
  return sum;
}

std::vector<double> Recorder::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) out.push_back(s.end - s.start);
  return out;
}

void Recorder::merge(const Recorder& other) {
  FDP_CHECK_MSG(other.stack_.empty(), "merging a recorder with open spans");
  const auto offset = static_cast<std::uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != kNoSpan) s.parent += offset;
    spans_.push_back(s);
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(Leaf::kCount); ++i) {
    leaves_[i].seconds += other.leaves_[i].seconds;
    leaves_[i].calls += other.leaves_[i].calls;
  }
}

void Recorder::write_spans(std::FILE* f) const {
  for (const Span& s : spans_) {
    const long long parent =
        s.parent == kNoSpan ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f,
                 "{\"name\": \"%s\", \"trace\": %u, \"parent\": %lld, "
                 "\"start\": %.9f, \"end\": %.9f, \"self\": %.9f}\n",
                 s.name, s.trace, parent, s.start, s.end,
                 s.end - s.start - s.child);
  }
}

// --- OracleStats ---

OracleStats::OracleStats(std::size_t n, unsigned shards) {
  std::size_t k = shards == 0 ? 1 : shards;
  if (n > 0 && k > n) k = n;  // ShardedWorld clamps k the same way
  for (std::size_t s = 0; s < k; ++s)
    lo_.push_back(static_cast<fdp::ProcessId>(n * s / k));
  slots_.resize(k);
}

OracleStats::Slot& OracleStats::slot_of(fdp::ProcessId p) {
  std::size_t s = lo_.size() - 1;
  while (s > 0 && p < lo_[s]) --s;
  return slots_[s];
}

double OracleStats::seconds() const {
  double sum = 0;
  for (const Slot& s : slots_) sum += s.seconds;
  return sum;
}

std::uint64_t OracleStats::calls() const {
  std::uint64_t sum = 0;
  for (const Slot& s : slots_) sum += s.calls;
  return sum;
}

std::uint64_t OracleStats::exits() const {
  std::uint64_t sum = 0;
  for (const Slot& s : slots_) sum += s.exits;
  return sum;
}

double OracleStats::shard_skew() const {
  const double mean = seconds() / static_cast<double>(slots_.size());
  if (mean <= 0) return 0;
  double max = 0;
  for (const Slot& s : slots_) max = std::max(max, s.seconds);
  return max / mean;
}

fdp::OracleFn timed_oracle(fdp::OracleFn inner, OracleStats* stats,
                           Recorder* rec) {
  FDP_CHECK_MSG(inner != nullptr && stats != nullptr,
                "timed_oracle needs an oracle and its stats");
  return [inner = std::move(inner), stats, rec](const fdp::Substrate& sub,
                                                fdp::ProcessId p) {
    const Clock::time_point t0 = Clock::now();
    const bool verdict = inner(sub, p);
    const double dt = seconds_between(t0, Clock::now());
    OracleStats::Slot& slot = stats->slot_of(p);
    slot.seconds += dt;
    ++slot.calls;
    if (verdict) ++slot.exits;
    if (rec != nullptr) rec->leaf(Leaf::Oracle, dt);
    return verdict;
  };
}

// --- observers ---

void TimedObserver::on_action(const fdp::Substrate& sub,
                              const fdp::ActionRecord& rec) {
  const LeafTimer timer(rec_, leaf_);
  inner_.on_action(sub, rec);
}

void TimedObserver::on_inject(const fdp::Substrate& sub, fdp::ProcessId to,
                              const fdp::Message& m) {
  const LeafTimer timer(rec_, leaf_);
  inner_.on_inject(sub, to, m);
}

void TimedObserver::on_remove(const fdp::Substrate& sub, fdp::ProcessId from,
                              const fdp::Message& m) {
  const LeafTimer timer(rec_, leaf_);
  inner_.on_remove(sub, from, m);
}

void TimedObserver::on_fault(const fdp::Substrate& sub, fdp::FaultKind kind,
                             fdp::ProcessId target, bool applied) {
  const LeafTimer timer(rec_, leaf_);
  inner_.on_fault(sub, kind, target, applied);
}

void FanOut::on_action(const fdp::Substrate& sub,
                       const fdp::ActionRecord& rec) {
  for (fdp::Observer* o : targets_) o->on_action(sub, rec);
}

void FanOut::on_inject(const fdp::Substrate& sub, fdp::ProcessId to,
                       const fdp::Message& m) {
  for (fdp::Observer* o : targets_) o->on_inject(sub, to, m);
}

void FanOut::on_remove(const fdp::Substrate& sub, fdp::ProcessId from,
                       const fdp::Message& m) {
  for (fdp::Observer* o : targets_) o->on_remove(sub, from, m);
}

void FanOut::on_fault(const fdp::Substrate& sub, fdp::FaultKind kind,
                      fdp::ProcessId target, bool applied) {
  for (fdp::Observer* o : targets_) o->on_fault(sub, kind, target, applied);
}

// --- TimedTransport ---

TimedTransport::TimedTransport(std::unique_ptr<fdp::net::Transport> inner,
                               Recorder* rec)
    : inner_(std::move(inner)), rec_(rec) {
  FDP_CHECK_MSG(inner_ != nullptr, "TimedTransport needs a transport");
}

void TimedTransport::open(std::size_t n) { inner_->open(n); }

bool TimedTransport::try_send(fdp::ProcessId src, fdp::ProcessId dst,
                              const std::uint8_t* data, std::size_t len) {
  const LeafTimer timer(rec_, Leaf::Send);
  return inner_->try_send(src, dst, data, len);
}

std::size_t TimedTransport::try_send_many(fdp::ProcessId src,
                                          const fdp::net::FrameView* frames,
                                          std::size_t count) {
  const LeafTimer timer(rec_, Leaf::Send);
  return inner_->try_send_many(src, frames, count);
}

void TimedTransport::poll(int timeout_ms, const fdp::net::RxFn& rx) {
  if (rec_ == nullptr) {
    inner_->poll(timeout_ms, rx);
    return;
  }
  if (rx_src_ != &rx) {
    rx_src_ = &rx;
    rx_timed_ = [this, &rx](fdp::ProcessId dst, const std::uint8_t* data,
                            std::size_t len) {
      const LeafTimer timer(rec_, Leaf::Rx);
      rx(dst, data, len);
    };
  }
  const ScopedSpan span(rec_, "net.poll");
  inner_->poll(timeout_ms, rx_timed_);
}

std::size_t TimedTransport::in_medium() const { return inner_->in_medium(); }

bool TimedTransport::lossy() const { return inner_->lossy(); }

fdp::net::TransportStats TimedTransport::stats() const {
  return inner_->stats();
}

const char* TimedTransport::name() const { return inner_->name(); }

}  // namespace perfbench
