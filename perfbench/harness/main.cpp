// perfbench: runs one workload as a closed loop of jobs for a time budget and
// prints one JSON object — end-to-end metrics (--trace 0, nothing attached)
// or per-layer metrics (--trace 1, the tracer attached from outside).
//
//   perfbench --workload paper_sweep --seed 1 --seconds 55 --trace 0
//             [--jobs-out FILE] [--spans-out FILE] [--max-jobs N]
//
// Whole passes only: the loop starts another pass of the workload's job
// list while the time used plus the last pass's duration fits the budget,
// so every run measures the same mix of jobs. --jobs-out receives one JSON
// line per job (statistics included, for the reference check); --max-jobs
// truncates each pass for quick self-tests.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/ladder.h"
#include "harness/timing.h"
#include "harness/tracing.h"
#include "harness/workloads.h"
#include "src/signaling/message.h"
#include "src/util/json.h"

namespace {

using namespace perfbench;
using anyqos::util::JsonValue;
using anyqos::signaling::MessageKind;

constexpr std::size_t kSpanCapacity = 200'000;
constexpr double kFlowBandwidthBps = 64'000.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string jobs_out;
  std::string spans_out;
  std::size_t max_jobs = 0;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--jobs-out") {
      options.jobs_out = value;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else if (flag == "--max-jobs") {
      options.max_jobs = std::stoull(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return options;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// The harness's own peak resident set (VmHWM). getrusage's ru_maxrss is
/// not used: Linux carries it across exec, so a harness started by a larger
/// parent (run.py's Python) would report the parent's peak instead.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

JsonValue stats_json(const JobStats& stats) {
  JsonValue out = JsonValue::object();
  out.set("offered", JsonValue::number(static_cast<double>(stats.offered)));
  out.set("admitted", JsonValue::number(static_cast<double>(stats.admitted)));
  out.set("shed", JsonValue::number(static_cast<double>(stats.shed)));
  JsonValue messages = JsonValue::object();
  for (std::size_t k = 0; k < stats.messages.size(); ++k) {
    messages.set(anyqos::signaling::to_string(static_cast<MessageKind>(k)),
                 JsonValue::number(static_cast<double>(stats.messages[k])));
  }
  out.set("messages", std::move(messages));
  JsonValue per_destination = JsonValue::array();
  for (const std::uint64_t count : stats.per_destination) {
    per_destination.push_back(JsonValue::number(static_cast<double>(count)));
  }
  out.set("per_destination", std::move(per_destination));
  return out;
}

class MetricSet {
 public:
  void add(const std::string& name, double value, const char* unit) {
    JsonValue metric = JsonValue::object();
    metric.set("value", JsonValue::number(value));
    metric.set("unit", JsonValue::string(unit));
    metrics_.set(name, std::move(metric));
  }
  JsonValue take() { return std::move(metrics_); }

 private:
  JsonValue metrics_ = JsonValue::object();
};

/// Sums over the traced run that the per-layer metrics are ratios of.
struct TraceTotals {
  double traced_wall_s = 0.0;   // traced jobs, setup included
  double traced_work_s = 0.0;   // traced jobs, setup excluded
  double plain_work_s = 0.0;    // the same jobs untraced, setup excluded
  double scenario_load_s = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t requests = 0;
  std::uint64_t reconvergences = 0;
  std::uint64_t retransmits = 0;
  std::array<std::uint64_t, anyqos::signaling::kMessageKindCount> messages{};
  double stack_full_s = 0.0;
  double stack_no_audit_s = 0.0;
  double stack_no_obs_s = 0.0;
  // Pass 0 only: exact, seed-determined counts.
  KernelCounts pass0_kernel;
  std::uint64_t pass0_orphans_reclaimed = 0;
};

void add_layer_metrics(MetricSet& metrics, const Tracer& tracer, const TraceTotals& totals,
                       const LadderCosts& ladder) {
  const KernelCounts& k = totals.pass0_kernel;
  metrics.add("des.events", static_cast<double>(k.events), "count");
  metrics.add("des.cancel_share", ratio(double(k.cancelled), double(k.scheduled)), "fraction");
  metrics.add("des.tombstones", static_cast<double>(k.tombstones), "count");
  metrics.add("des.peak_pending", static_cast<double>(k.peak_pending), "count");
  const double queue_ns = ratio(tracer.replay_ns(), double(tracer.replay_ops()));
  metrics.add("des.queue_ns_per_op", queue_ns, "ns");

  const auto per_dispatch = [&](System system, const std::string& name) {
    const CategoryTotals c = tracer.category(system, name);
    return ratio(c.self_ns, double(c.dispatches));
  };
  const auto all_systems = [&](std::initializer_list<const char*> names) {
    CategoryTotals sum;
    for (const System system : kAllSystems) {
      for (const char* name : names) {
        const CategoryTotals c = tracer.category(system, name);
        sum.dispatches += c.dispatches;
        sum.self_ns += c.self_ns;
      }
    }
    return ratio(sum.self_ns, double(sum.dispatches));
  };

  double ladder_ns = tracer.replay_ns();
  std::uint64_t attempts = 0;
  std::uint64_t admitted = 0;
  std::uint64_t requests = 0;
  for (const System system : kAllSystems) {
    const std::string tag = system_tag(system);
    metrics.add("sim.arrival_self_ns." + tag, per_dispatch(system, "sim.arrival"), "ns");
    metrics.add("sim.departure_self_ns." + tag, per_dispatch(system, "sim.departure"), "ns");
    if (system == System::kGdi) {
      continue;  // no admission observer on the GDI oracle, so no admit span
    }
    const CategoryTotals arrival = tracer.category(system, "sim.arrival");
    metrics.add("sim.arrival_glue_ns." + tag,
                ratio(arrival.self_ns - arrival.admit_ns, double(arrival.dispatches)),
                "ns");
    const AdmitTotals admits = tracer.admits(system);
    metrics.add("core.admit_ns_p50." + tag, quantile(admits.admit_ns, 0.50), "ns");
    metrics.add("core.admit_ns_p99." + tag, quantile(admits.admit_ns, 0.99), "ns");
    const std::size_t index = static_cast<std::size_t>(system);
    metrics.add("core.select_ns." + tag, ladder.select_ns[index], "ns");
    attempts += admits.attempts;
    admitted += admits.admitted;
    requests += admits.requests;
    // WD/D+B's select() probes; its probe hops are priced by the probe rung.
    const double select_net_ns = std::max(
        0.0, ladder.select_ns[index] - ladder.select_probe_hops[index] * ladder.probe_ns_per_hop);
    ladder_ns += select_net_ns * double(admits.attempts);
  }
  metrics.add("sim.fault_self_us", all_systems({"fault.link", "fault.node", "fault.churn"}) / 1e3,
              "us");
  metrics.add("sim.scenario_load_us", ratio(totals.scenario_load_s * 1e6, double(totals.jobs)),
              "us");
  metrics.add("core.attempts_per_request", ratio(double(attempts), double(requests)), "count");
  metrics.add("core.admitted_per_attempt", ratio(double(admitted), double(attempts)),
              "fraction");

  static constexpr std::pair<MessageKind, const char*> kKinds[] = {
      {MessageKind::kPath, "path"},   {MessageKind::kResv, "resv"},
      {MessageKind::kPathErr, "path_err"}, {MessageKind::kTear, "tear"},
      {MessageKind::kProbe, "probe"}, {MessageKind::kProbeReply, "probe_reply"}};
  std::uint64_t all_messages = 0;
  for (const auto& [kind, name] : kKinds) {
    const double count = double(totals.messages[static_cast<std::size_t>(kind)]);
    all_messages += totals.messages[static_cast<std::size_t>(kind)];
    metrics.add(std::string("signaling.messages_per_request.") + name,
                ratio(count, double(totals.requests)), "count");
  }
  const auto hops = [&](MessageKind kind) {
    return double(totals.messages[static_cast<std::size_t>(kind)]);
  };
  const double probe_hops = hops(MessageKind::kProbe) + hops(MessageKind::kProbeReply);
  const double walk_hops = hops(MessageKind::kPath) + hops(MessageKind::kResv) +
                           hops(MessageKind::kPathErr) + hops(MessageKind::kTear);
  metrics.add("signaling.probe_share", ratio(probe_hops, double(all_messages)), "fraction");
  metrics.add("signaling.walk_ns_per_hop", ladder.walk_ns_per_hop, "ns");
  metrics.add("signaling.probe_ns_per_hop", ladder.probe_ns_per_hop, "ns");
  metrics.add("signaling.orphan_self_ns", all_systems({"signaling.orphan"}), "ns");
  metrics.add("signaling.retransmits_per_request",
              ratio(double(totals.retransmits), double(totals.requests)), "count");
  metrics.add("signaling.orphans_reclaimed", double(totals.pass0_orphans_reclaimed), "count");
  metrics.add("net.route_table_ms", ladder.route_table_ms, "ms");
  metrics.add("net.reconverge_self_ms", all_systems({"net.reconverge"}) / 1e6, "ms");

  metrics.add("audit.overhead_share",
              ratio(totals.stack_full_s - totals.stack_no_audit_s, totals.stack_full_s),
              "fraction");
  metrics.add("obs.overhead_share",
              ratio(totals.stack_full_s - totals.stack_no_obs_s, totals.stack_full_s),
              "fraction");
  metrics.add("audit.checkpoint_self_ms", all_systems({"audit.checkpoint"}) / 1e6, "ms");
  metrics.add("control.self_ms", all_systems({"control.window", "control.breaker"}) / 1e6,
              "ms");

  metrics.add("trace.overhead_share",
              ratio(totals.traced_work_s - totals.plain_work_s, totals.plain_work_s), "fraction");
  metrics.add("trace.unattributed_share",
              1.0 - ratio(tracer.total_self_ns() / 1e9, totals.traced_wall_s), "fraction");
  ladder_ns += ladder.walk_ns_per_hop * walk_hops + ladder.probe_ns_per_hop * probe_hops +
               ladder.route_table_ms * 1e6 * double(totals.jobs) +
               ladder.recompute_ms * 1e6 * double(totals.reconvergences);
  metrics.add("trace.ladder_residual", 1.0 - ratio(ladder_ns / 1e9, totals.traced_wall_s),
              "fraction");
}

/// Every timing of one job slot across the run's passes.
struct SlotSamples {
  std::vector<double> wall_s;
  std::vector<double> setup_s;
  std::vector<double> work_s;  // wall minus setup
  std::uint64_t requests = 0;
  JobStats stats;  // pass 0; later passes must reproduce it exactly
};

double min_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

/// The end-to-end metrics. Each slot runs on identical inputs in every pass,
/// so every timing takes each slot's fastest pass: a shared host only ever
/// adds time, in bursts that outlast single jobs (see README.md, "Noise").
void add_end_to_end_metrics(MetricSet& metrics, const std::vector<SlotSamples>& slots) {
  double requests = 0.0;
  double work_s = 0.0;
  double setup_s = 0.0;
  std::vector<double> job_ms;
  for (const SlotSamples& slot : slots) {
    requests += double(slot.requests);
    work_s += min_of(slot.work_s);
    setup_s += min_of(slot.setup_s);
    job_ms.push_back(min_of(slot.wall_s) * 1e3);
  }
  metrics.add("requests_per_s", ratio(requests, work_s), "req/s");
  metrics.add("job_ms_p50", quantile(job_ms, 0.50), "ms");
  metrics.add("job_ms_p90", quantile(job_ms, 0.90), "ms");
  metrics.add("setup_s", setup_s, "s");
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
}

int run(const Options& options) {
  std::ofstream jobs_out;
  if (!options.jobs_out.empty()) {
    jobs_out.open(options.jobs_out);
    if (!jobs_out) {
      throw std::runtime_error("cannot write " + options.jobs_out);
    }
  }
  std::vector<JobSpec> jobs = make_pass(options.workload, options.seed);
  if (options.max_jobs > 0 && jobs.size() > options.max_jobs) {
    jobs.resize(options.max_jobs);
  }
  std::vector<System> systems;
  for (const JobSpec& job : jobs) {
    if (std::find(systems.begin(), systems.end(), job.system) == systems.end()) {
      systems.push_back(job.system);
    }
  }
  Tracer tracer(options.trace ? kSpanCapacity : 0);
  TraceTotals totals;
  std::vector<SlotSamples> slots(jobs.size());
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t passes = 0;
  JsonValue failures = JsonValue::array();

  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t slot = 0; slot < jobs.size(); ++slot) {
      const JobSpec& job = jobs[slot];
      JobOutcome outcome;
      if (options.trace) {
        const JobOutcome traced = run_job(job, &tracer);
        tracer.replay_queue();
        outcome = run_job(job, nullptr);
        if (outcome.ok && !traced.ok) {
          outcome.ok = false;
          outcome.error = "traced run: " + traced.error;
        } else if (outcome.ok && !(traced.stats == outcome.stats)) {
          outcome.ok = false;
          outcome.error = "traced and untraced statistics differ";
        }
        totals.traced_wall_s += traced.wall_s;
        totals.traced_work_s += traced.wall_s - traced.setup_s;
        totals.plain_work_s += outcome.wall_s - outcome.setup_s;
        totals.scenario_load_s += traced.scenario_load_s;
        totals.jobs += 1;
        totals.requests += traced.requests;
        totals.reconvergences += traced.reconvergences;
        totals.retransmits += traced.retransmits;
        for (std::size_t k = 0; k < totals.messages.size(); ++k) {
          totals.messages[k] += traced.stats.messages[k];
        }
        if (pass == 0) {
          totals.pass0_orphans_reclaimed += traced.orphans_reclaimed;
        }
        if (job.chaos() && (slot / 2) % 4 == 0) {
          // On every fourth pair of cells (both algorithms), price the
          // oracle's attachments by leaving each out, alternating the order
          // so drift does not favour one variant.
          const bool forward = (slot / 8 + pass) % 2 == 0;
          double full = 0.0;
          double no_audit = 0.0;
          double no_obs = 0.0;
          if (forward) {
            full = chaos_stack_seconds(job, true, true);
            no_audit = chaos_stack_seconds(job, false, true);
            no_obs = chaos_stack_seconds(job, true, false);
          } else {
            no_obs = chaos_stack_seconds(job, true, false);
            no_audit = chaos_stack_seconds(job, false, true);
            full = chaos_stack_seconds(job, true, true);
          }
          totals.stack_full_s += full;
          totals.stack_no_audit_s += no_audit;
          totals.stack_no_obs_s += no_obs;
        }
      } else {
        outcome = run_job(job, nullptr);
      }
      SlotSamples& samples = slots[slot];
      if (pass == 0) {
        samples.stats = outcome.stats;
        samples.requests = outcome.requests;
      } else if (outcome.ok && !(outcome.stats == samples.stats)) {
        outcome.ok = false;
        outcome.error = "statistics differ from pass 0 on identical inputs";
      }
      ++attempted;
      if (!outcome.ok) {
        ++failed;
        if (failures.as_array().size() < 20) {
          failures.push_back(JsonValue::string(job.name + ": " + outcome.error));
        }
      }
      samples.wall_s.push_back(outcome.wall_s);
      samples.setup_s.push_back(outcome.setup_s);
      samples.work_s.push_back(outcome.wall_s - outcome.setup_s);
      if (jobs_out) {
        JsonValue record = JsonValue::object();
        record.set("pass", JsonValue::number(double(pass)));
        record.set("slot", JsonValue::number(double(slot)));
        record.set("name", JsonValue::string(job.name));
        record.set("system", JsonValue::string(system_tag(job.system)));
        record.set("seed", JsonValue::number(double(job.seed)));
        record.set("ok", JsonValue::boolean(outcome.ok));
        record.set("error", JsonValue::string(outcome.error));
        record.set("wall_ms", JsonValue::number(outcome.wall_s * 1e3));
        record.set("setup_ms", JsonValue::number(outcome.setup_s * 1e3));
        record.set("requests", JsonValue::number(double(outcome.requests)));
        record.set("stats", stats_json(outcome.stats));
        jobs_out << record.dump() << '\n';
      }
    }
    if (pass == 0) {
      totals.pass0_kernel = tracer.counts();
    }
    passes = pass + 1;
    const double pass_s = seconds_since(pass_start);
    if (seconds_since(start) + pass_s > options.seconds) {
      break;
    }
  }
  const double loop_s = seconds_since(start);

  MetricSet metrics;
  if (options.trace) {
    const LadderCosts ladder = measure_ladder(job_model(jobs.front()), systems, kFlowBandwidthBps);
    add_layer_metrics(metrics, tracer, totals, ladder);
    if (!options.spans_out.empty()) {
      std::ofstream spans(options.spans_out);
      tracer.write_spans(spans);
    }
  } else {
    add_end_to_end_metrics(metrics, slots);
  }

  JsonValue info = JsonValue::object();
  info.set("passes", JsonValue::number(double(passes)));
  info.set("jobs_per_pass", JsonValue::number(double(jobs.size())));
  info.set("loop_s", JsonValue::number(loop_s));
  info.set("failures", std::move(failures));

  JsonValue result = JsonValue::object();
  result.set("attempted", JsonValue::number(double(attempted)));
  result.set("failed", JsonValue::number(double(failed)));
  result.set("metrics", metrics.take());
  result.set("info", std::move(info));
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 2;
  }
}
