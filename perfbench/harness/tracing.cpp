#include "harness/tracing.h"

#include <deque>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "harness/timing.h"
#include "src/des/event_queue.h"

namespace perfbench {

using namespace anyqos;

namespace {

constexpr std::size_t kAdmitSampleCap = 1'000'000;  // per system
constexpr std::uint8_t kOpSchedule = 0;
constexpr std::uint8_t kOpPop = 1;
constexpr std::uint8_t kOpCancel = 2;

const char* span_kind_name(int kind) {
  static constexpr const char* kNames[] = {"job", "dispatch", "admit", "attempt"};
  return kNames[kind];
}

}  // namespace

Tracer::Tracer(std::size_t span_capacity)
    : epoch_(Clock::now()), epoch_ticks_(now_ticks()), span_capacity_(span_capacity) {
  spans_.reserve(span_capacity_);
}

std::int64_t Tracer::now_ticks() {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
#endif
}

double Tracer::ns_per_tick() const {
  const double ticks = static_cast<double>(now_ticks() - epoch_ticks_);
  return ticks > 0.0 ? seconds_since(epoch_) * 1e9 / ticks : 1.0;
}

std::int32_t Tracer::open_span(SpanKind kind, std::uint16_t label, std::uint64_t ref,
                               std::int32_t parent, std::int64_t start) {
  if (spans_.size() >= span_capacity_) {
    ++spans_dropped_;
    return -1;
  }
  spans_.push_back(Span{start, start, ref, parent, label, kind});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close_span(std::int32_t index, std::int64_t end) {
  if (index >= 0) {
    spans_[static_cast<std::size_t>(index)].end = end;
  }
}

std::uint16_t Tracer::global_category(des::EventCategory category) {
  // Components intern categories as they attach (the governor inside
  // run()), so the local table can grow mid-job.
  if (category.id >= local_to_global_.size()) {
    const std::vector<std::string>& names = simulator_->category_names();
    for (std::size_t local = local_to_global_.size(); local < names.size(); ++local) {
      std::size_t global = 0;
      while (global < category_names_.size() && category_names_[global] != names[local]) {
        ++global;
      }
      if (global == category_names_.size()) {
        category_names_.push_back(names[local]);
        for (auto& per_system : categories_) {
          per_system.resize(category_names_.size());
        }
      }
      local_to_global_.push_back(static_cast<std::uint16_t>(global));
    }
  }
  return local_to_global_[category.id];
}

void Tracer::begin_job(des::Simulator& simulator, System system,
                       core::AdmissionObserver* forward) {
  simulator_ = &simulator;
  forward_ = forward;
  system_ = system;
  local_to_global_.clear();
  ops_.clear();
  dispatch_open_ = false;
  dispatch_seq_ = 0;
  request_seq_ = 0;
  job_span_ = open_span(SpanKind::kJob, static_cast<std::uint16_t>(system), jobs_++, -1,
                        now_ticks());
  simulator.set_kernel_sink(this);
}

void Tracer::close_dispatch(std::int64_t end) {
  if (!dispatch_open_) {
    return;
  }
  Ticks& totals = categories_[static_cast<std::size_t>(system_)][dispatch_category_];
  ++totals.dispatches;
  totals.self += end - dispatch_start_;
  totals.admit += dispatch_admit_;
  close_span(dispatch_span_, end);
  dispatch_open_ = false;
}

void Tracer::end_job(des::Simulator& simulator) {
  const std::int64_t end = now_ticks();
  close_dispatch(end);
  close_span(job_span_, end);
  simulator.set_kernel_sink(nullptr);
  counts_.events += simulator.dispatched_events();
  counts_.tombstones += simulator.tombstones_popped();
  counts_.peak_pending = std::max<std::uint64_t>(counts_.peak_pending,
                                                 simulator.peak_pending_events());
  simulator_ = nullptr;
  forward_ = nullptr;
}

void Tracer::on_scheduled(des::EventCategory category, double /*now*/, double when) {
  ++counts_.scheduled;
  ops_.push_back(QueueOp{when, global_category(category), kOpSchedule});
}

void Tracer::on_fired(des::EventCategory category, double /*scheduled_at*/, double /*now*/) {
  const std::int64_t t = now_ticks();
  close_dispatch(t);
  dispatch_open_ = true;
  dispatch_category_ = global_category(category);
  dispatch_start_ = t;
  dispatch_admit_ = 0;
  dispatch_span_ = open_span(SpanKind::kDispatch, dispatch_category_, dispatch_seq_++,
                             job_span_, t);
  ops_.push_back(QueueOp{0.0, dispatch_category_, kOpPop});
}

void Tracer::on_cancelled(des::EventCategory category, double /*now*/) {
  ++counts_.cancelled;
  ops_.push_back(QueueOp{0.0, global_category(category), kOpCancel});
}

void Tracer::on_request_begin(net::NodeId source) {
  admit_start_ = now_ticks();
  admit_span_ = open_span(SpanKind::kAdmit, static_cast<std::uint16_t>(system_),
                          ++request_seq_, dispatch_span_, admit_start_);
  attempt_span_ = -1;
  attempt_seq_ = 0;
  if (forward_ != nullptr) {
    forward_->on_request_begin(source);
  }
}

void Tracer::on_attempt(net::NodeId source, std::size_t member_index) {
  const std::int64_t t = now_ticks();
  close_span(attempt_span_, t);
  attempt_span_ = open_span(SpanKind::kAttempt, static_cast<std::uint16_t>(member_index),
                            ++attempt_seq_, admit_span_, t);
  ++admits_[static_cast<std::size_t>(system_)].attempts;
  if (forward_ != nullptr) {
    forward_->on_attempt(source, member_index);
  }
}

void Tracer::on_decision(net::NodeId source, const core::AdmissionDecision& decision,
                         std::size_t max_attempts, std::size_t group_size) {
  if (forward_ != nullptr) {
    forward_->on_decision(source, decision, max_attempts, group_size);
  }
  const std::int64_t t = now_ticks();
  close_span(attempt_span_, t);
  close_span(admit_span_, t);
  attempt_span_ = -1;
  admit_span_ = -1;
  const std::int64_t span = t - admit_start_;
  dispatch_admit_ += span;
  AdmitTicks& totals = admits_[static_cast<std::size_t>(system_)];
  ++totals.requests;
  totals.admitted += decision.admitted ? 1 : 0;
  if (totals.admit.size() < kAdmitSampleCap) {
    totals.admit.push_back(span);
  }
}

void Tracer::replay_queue() {
  // Resolve the stream into a replayable plan first (untimed): the sink
  // reports a cancel by category only, so each cancel is matched to the
  // oldest live event of that category, and a pop the bare queue cannot
  // serve (events scheduled before the sink attached) is skipped. Event ids
  // of a fresh queue are sequential, so the timed pass on a second fresh
  // queue reproduces the plan's ids exactly.
  struct PlanOp {
    double time;
    std::uint64_t id;
    std::uint16_t category;
    std::uint8_t kind;
  };
  std::vector<PlanOp> plan;
  plan.reserve(ops_.size());
  {
    des::EventQueue queue;
    std::vector<std::deque<std::uint64_t>> live_by_category(category_names_.size());
    std::vector<char> live(1, 0);
    for (const QueueOp& op : ops_) {
      if (op.kind == kOpSchedule) {
        const des::EventHandle handle =
            queue.schedule(op.time, des::Action([] {}), des::EventCategory{op.category});
        live.push_back(1);
        live_by_category[op.category].push_back(handle.id);
        plan.push_back(PlanOp{op.time, 0, op.category, kOpSchedule});
      } else if (op.kind == kOpPop) {
        if (queue.empty()) {
          continue;
        }
        const des::EventQueue::Fired fired = queue.pop();
        live[fired.id] = 0;
        plan.push_back(PlanOp{0.0, 0, 0, kOpPop});
      } else {
        std::deque<std::uint64_t>& ids = live_by_category[op.category];
        while (!ids.empty() && live[ids.front()] == 0) {
          ids.pop_front();
        }
        if (ids.empty()) {
          continue;
        }
        const std::uint64_t id = ids.front();
        ids.pop_front();
        live[id] = 0;
        (void)queue.cancel(des::EventHandle{id});
        plan.push_back(PlanOp{0.0, id, 0, kOpCancel});
      }
    }
  }
  // Timed pass: the same calls the kernel makes per operation (a pop is
  // next_time() then pop(), as in Simulator::run_until), with a callable of
  // the model's usual capture size.
  des::EventQueue queue;
  std::uint64_t fired_count = 0;
  const Clock::time_point start = Clock::now();
  for (const PlanOp& op : plan) {
    if (op.kind == kOpSchedule) {
      (void)queue.schedule(op.time, des::Action([&fired_count, op] { fired_count += op.id; }),
                           des::EventCategory{op.category});
    } else if (op.kind == kOpPop) {
      keep(queue.next_time());
      des::EventQueue::Fired fired = queue.pop();
      fired.action();
    } else {
      keep(queue.cancel(des::EventHandle{op.id}));
    }
  }
  replay_ns_ += seconds_since(start) * 1e9;
  keep(fired_count);
  replay_ops_ += plan.size();
}

CategoryTotals Tracer::category(System system, const std::string& name) const {
  const double scale = ns_per_tick();
  for (std::size_t global = 0; global < category_names_.size(); ++global) {
    if (category_names_[global] == name) {
      const Ticks& ticks = categories_[static_cast<std::size_t>(system)][global];
      return {ticks.dispatches, double(ticks.self) * scale, double(ticks.admit) * scale};
    }
  }
  return {};
}

double Tracer::total_self_ns() const {
  std::int64_t total = 0;
  for (const auto& per_system : categories_) {
    for (const Ticks& ticks : per_system) {
      total += ticks.self;
    }
  }
  return double(total) * ns_per_tick();
}

AdmitTotals Tracer::admits(System system) const {
  const AdmitTicks& ticks = admits_[static_cast<std::size_t>(system)];
  AdmitTotals totals{ticks.requests, ticks.attempts, ticks.admitted, {}};
  const double scale = ns_per_tick();
  totals.admit_ns.reserve(ticks.admit.size());
  for (const std::int64_t span : ticks.admit) {
    totals.admit_ns.push_back(double(span) * scale);
  }
  return totals;
}

void Tracer::write_spans(std::ostream& out) const {
  const double scale = ns_per_tick();
  const auto ns = [&](std::int64_t ticks) {
    return static_cast<std::int64_t>(double(ticks - epoch_ticks_) * scale);
  };
  for (const Span& span : spans_) {
    out << "{\"kind\":\"" << span_kind_name(static_cast<int>(span.kind)) << "\",\"label\":\"";
    switch (span.kind) {
      case SpanKind::kJob:
      case SpanKind::kAdmit:
        out << system_tag(static_cast<System>(span.label));
        break;
      case SpanKind::kDispatch:
        out << category_names_[span.label];
        break;
      case SpanKind::kAttempt:
        out << "member" << span.label;
        break;
    }
    out << "\",\"ref\":" << span.ref << ",\"parent\":" << span.parent
        << ",\"start_ns\":" << ns(span.start) << ",\"end_ns\":" << ns(span.end) << "}\n";
  }
  if (spans_dropped_ > 0) {
    out << "{\"kind\":\"truncated\",\"spans_dropped\":" << spans_dropped_ << "}\n";
  }
}

}  // namespace perfbench
