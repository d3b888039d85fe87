// Fault recovery time series: what an outage looks like to an anycast
// service, minute by minute.
//
// Runs the paper model with one scheduled backbone outage, samples it with
// the windowed telemetry timeline (obs/timeline.h) plus one custom gauge,
// and prints an ASCII strip chart of active flows and mean link utilization
// around the failure/repair — the view an operator's dashboard would show.
//
//   $ ./fault_recovery --fail-at=3000 --repair-at=4500
#include <iostream>

#include "src/obs/timeline.h"
#include "src/sim/experiment.h"
#include "src/sim/faults.h"
#include "src/util/cli.h"
#include "src/util/strings.h"

namespace {

using namespace anyqos;

/// Charts the timeline column `name`, one row per sample.
void strip_chart(const obs::Timeline& timeline, const std::string& name, double fail_at,
                 double repair_at) {
  std::size_t column = 0;
  while (timeline.columns()[column].name != name) {
    ++column;
  }
  double peak = 1.0;
  for (const obs::TimelineSample& sample : timeline.samples()) {
    peak = std::max(peak, sample.values[column]);
  }
  constexpr int kWidth = 60;
  for (const obs::TimelineSample& sample : timeline.samples()) {
    const double value = sample.values[column];
    const int bar = static_cast<int>(value / peak * kWidth);
    std::string line(static_cast<std::size_t>(bar), '#');
    const double t = sample.time;
    const char* marker = "";
    if (t >= fail_at && t < fail_at + 120.0) {
      marker = "  <- LINK DOWN";
    } else if (t >= repair_at && t < repair_at + 120.0) {
      marker = "  <- REPAIRED";
    }
    std::cout << util::format_fixed(t, 0) << "s\t" << line << " " << util::format_fixed(value, 0)
              << marker << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags("fault_recovery", "Time series of an outage on the paper model");
  flags.add_double("lambda", 25.0, "arrival rate, requests/s");
  flags.add_double("fail-at", 3'000.0, "outage start, simulated seconds");
  flags.add_double("repair-at", 4'500.0, "outage end, simulated seconds");
  flags.add_double("horizon", 7'000.0, "total simulated seconds");
  flags.add_double("sample", 120.0, "sampling period, seconds");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }
  const double fail_at = flags.get_double("fail-at");
  const double repair_at = flags.get_double("repair-at");

  const sim::ExperimentModel model = sim::paper_model();
  sim::SimulationConfig config = model.base_config(flags.get_double("lambda"));
  config.algorithm = core::SelectionAlgorithm::kDistanceHistory;
  config.max_tries = 2;
  config.warmup_s = 1'000.0;
  config.measure_s = flags.get_double("horizon") - config.warmup_s;
  config.seed = 5;
  // Kill the busiest central link (CHI-DCA in the MCI-like map).
  config.faults.push_back(sim::single_fault(8, 12, fail_at, repair_at));

  obs::TimelineOptions timeline_options;
  timeline_options.interval_s = flags.get_double("sample");
  obs::Timeline timeline(timeline_options);
  config.timeline = &timeline;
  sim::Simulation simulation(model.topology, config);
  // active_flows is a standard column; mean utilization is a custom gauge.
  timeline.add_gauge("mean_utilization_pct", [&] {
    double total = 0.0;
    for (net::LinkId id = 0; id < model.topology.link_count(); ++id) {
      total += simulation.ledger().utilization(id);
    }
    return 100.0 * total / static_cast<double>(model.topology.link_count());
  });
  const sim::SimulationResult result = simulation.run();

  std::cout << "Outage of link CHI-DCA from t=" << fail_at << "s to t=" << repair_at
            << "s under <WD/D+H,2> at lambda=" << flags.get_double("lambda") << "/s\n\n"
            << "Active flows over time:\n";
  strip_chart(timeline, "active_flows", fail_at, repair_at);
  std::cout << "\nMean link utilization (%) over time:\n";
  strip_chart(timeline, "mean_utilization_pct", fail_at, repair_at);
  std::cout << "\nRun summary: AP " << util::format_fixed(result.admission_probability, 4)
            << ", dropped by the outage " << result.dropped << " flows, avg tries "
            << util::format_fixed(result.average_attempts, 3) << "\n"
            << "\nThe dip at the failure is flows dropped mid-life; the recovery is\n"
            << "retrial control steering new flows to members the outage left\n"
            << "reachable. Repairing restores the original operating point.\n";
  return 0;
}
