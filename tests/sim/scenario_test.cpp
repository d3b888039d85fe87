#include "src/sim/scenario.h"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

namespace anyqos::sim {
namespace {

/// A scenario exercising every block and entry list the format defines.
Scenario full_scenario() {
  Scenario scenario;
  scenario.name = "kitchen-sink";
  scenario.topology = "mci";
  scenario.seed = 7;
  scenario.lambda = 25.0;
  scenario.mean_holding_s = 60.0;
  scenario.flow_bandwidth_bps = 64'000.0;
  scenario.sources = {0, 3, 5};
  scenario.algorithm = "WD/D+H";
  scenario.max_tries = 3;
  scenario.alpha = 0.25;
  scenario.anycast_share = 0.4;
  scenario.group = {2, 11, 18};
  scenario.failover_readmit = true;
  scenario.path_repair = true;
  scenario.warmup_s = 10.0;
  scenario.measure_s = 200.0;
  scenario.drain_max_events = 1'000'000;
  scenario.drain_max_sim_s = 500.0;
  scenario.resilience.emplace();
  scenario.resilience->loss_probability = 0.05;
  scenario.resilience->hop_delay_s = 0.01;
  scenario.reconvergence.emplace();
  scenario.reconvergence->policy = "flooding";
  scenario.reconvergence->param_s = 0.05;
  scenario.governor.emplace();
  scenario.governor->min_tries = 1;
  scenario.governor->breaker_cooldown_s = 30.0;
  scenario.axes.link_rate = 0.02;
  scenario.axes.link_mean_repair_s = 40.0;
  scenario.link_faults.push_back(single_fault(0, 1, 40.0, 80.0));
  scenario.churn.push_back(single_churn(1, 60.0, 100.0));
  scenario.node_faults.push_back(single_node_fault(9, 150.0, 190.0));
  scenario.regional_outages.push_back(RegionalOutageSpec{17, 1, 120.0, 160.0});
  control::TimedDirective directive;
  directive.apply_at = 50.0;
  directive.directive.knob = control::Knob::kRetrialCeiling;
  directive.directive.value = 2.0;
  scenario.ops.push_back(directive);
  return scenario;
}

/// `text` with its first `from` replaced by `to` must fail to load, with
/// `needle` in the loader's message.
void expect_rejected(std::string text, std::string_view from, std::string_view to,
                     std::string_view needle) {
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  text.replace(at, from.size(), to);
  try {
    (void)load_scenario(text);
    ADD_FAILURE() << to << " was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos) << error.what();
  }
}

TEST(Scenario, SaveLoadRoundTripIsByteIdentical) {
  const std::string first = save_scenario(full_scenario());
  const std::string second = save_scenario(load_scenario(first));
  EXPECT_EQ(first, second);
}

TEST(Scenario, DefaultScenarioRoundTrips) {
  const Scenario scenario;
  EXPECT_EQ(save_scenario(scenario), save_scenario(load_scenario(save_scenario(scenario))));
}

TEST(Scenario, OmitsAbsentOptionalBlocks) {
  const std::string text = save_scenario(Scenario{});
  EXPECT_EQ(text.find("resilience"), std::string::npos);
  EXPECT_EQ(text.find("governor"), std::string::npos);
  EXPECT_EQ(text.find("axes"), std::string::npos);
  EXPECT_EQ(text.find("link_faults"), std::string::npos);
  const Scenario loaded = load_scenario(text);
  EXPECT_FALSE(loaded.resilience.has_value());
  EXPECT_FALSE(loaded.governor.has_value());
  EXPECT_EQ(loaded.fault_entries(), 0U);
}

TEST(Scenario, RejectsMissingOrWrongSchema) {
  EXPECT_THROW(load_scenario("{}"), std::invalid_argument);
  EXPECT_THROW(load_scenario(R"({"schema":"anyqos.scenario/999"})"),
               std::invalid_argument);
  EXPECT_THROW(load_scenario("[]"), std::invalid_argument);
  // The header's name may not be empty either.
  expect_rejected(save_scenario(full_scenario()), R"("name": "kitchen-sink")",
                  R"("name": "")", R"("name" must be non-empty)");
}

TEST(Scenario, RejectsUnknownKeys) {
  // Root level.
  std::string text = save_scenario(Scenario{});
  text.insert(text.rfind('}'), R"(,"surprise": 1)");
  EXPECT_THROW(load_scenario(text), std::invalid_argument);
  // Nested block: misspelled workload knob.
  Scenario scenario;
  std::string nested = save_scenario(scenario);
  const std::string needle = "\"lambda\"";
  nested.replace(nested.find(needle), needle.size(), "\"lamdba\"");
  EXPECT_THROW(load_scenario(nested), std::invalid_argument);
}

TEST(Scenario, RejectsInvalidFaultWindows) {
  const std::string full = save_scenario(full_scenario());
  // Flip the seeded link fault's window: fail after repair (40/80 -> 90/80).
  // Every entry list names the key that is out of order.
  expect_rejected(full, R"("fail_at": 40)", R"("fail_at": 90)",
                  "link_faults: repair_at must follow");
  expect_rejected(full, R"("down_at": 60)", R"("down_at": 110)", "churn: up_at must follow");
  expect_rejected(full, R"("fail_at": 150)", R"("fail_at": -1)",
                  "node_faults: repair_at must follow a non-negative fail_at");
  // The random axes and the retransmission jitter keep their domains, even
  // where a zero rate never reads them.
  expect_rejected(full, R"("churn_mean_down_s": 120)", R"("churn_mean_down_s": -1)",
                  R"("churn_mean_down_s" must be positive)");
  expect_rejected(full, R"("node_rate": 0)", R"("node_rate": -1)",
                  R"("node_rate" must be non-negative)");
  expect_rejected(full, R"("backoff_jitter": 0.10000000000000001)", R"("backoff_jitter": 2)",
                  R"("backoff_jitter" must be in [0,1])");
}

TEST(Scenario, RejectsBadOps) {
  const std::string base = save_scenario(full_scenario());
  // Unsorted directives.
  std::string unsorted = base;
  const std::string ops_entry = R"("t": 50,)";
  ASSERT_NE(unsorted.find(ops_entry), std::string::npos);
  std::string doubled = unsorted;
  doubled.replace(
      doubled.find("\"ops\": ["), 8,
      "\"ops\": [{\"t\": 60, \"knob\": \"retrial-ceiling\", \"value\": 2},");
  EXPECT_THROW(load_scenario(doubled), std::invalid_argument);
  // Unknown knob.
  std::string unknown = base;
  const std::string knob = "retrial-ceiling";
  unknown.replace(unknown.find(knob), knob.size(), "warp-factor");
  EXPECT_THROW(load_scenario(unknown), std::invalid_argument);
  // Out-of-domain value (retrial-ceiling must be a positive integer).
  std::string zero = base;
  const std::string value = "\"value\": 2";
  zero.replace(zero.find(value), value.size(), "\"value\": 0");
  EXPECT_THROW(load_scenario(zero), std::invalid_argument);
  // A negative time has its own message, not the sort order's.
  expect_rejected(base, R"("t": 50)", R"("t": -5)", R"("t" must be non-negative)");
  // A system knob outside its domain, as for the directive values: alpha is
  // checked whatever the algorithm (ED ignores it when it runs).
  std::string ed = base;
  ed.replace(ed.find("WD/D+H"), 6, "ED");
  expect_rejected(ed, R"("alpha": 0.25)", R"("alpha": 3)", R"("alpha" must be in [0,1])");
}

TEST(Scenario, RejectsBadReconvergencePolicy) {
  std::string text = save_scenario(full_scenario());
  const std::string policy = "\"policy\": \"flooding\"";
  text.replace(text.find(policy), policy.size(), "\"policy\": \"psychic\"");
  EXPECT_THROW(load_scenario(text), std::invalid_argument);
  expect_rejected(save_scenario(full_scenario()), R"("param_s": 0.050000000000000003)", R"("param_s": -1)",
                  R"("param_s" must be non-negative)");
}

TEST(Scenario, BuildsEveryTopologyFamily) {
  EXPECT_EQ(build_scenario_topology("mci").router_count(), 19U);
  EXPECT_EQ(build_scenario_topology("line:4").router_count(), 4U);
  EXPECT_EQ(build_scenario_topology("ring:5").router_count(), 5U);
  EXPECT_EQ(build_scenario_topology("star:6").router_count(), 6U);
  EXPECT_EQ(build_scenario_topology("grid:2x3").router_count(), 6U);
  EXPECT_THROW(build_scenario_topology("torus:4"), std::invalid_argument);
  EXPECT_THROW(build_scenario_topology("grid:4"), std::invalid_argument);
}

TEST(Scenario, RejectsBadTopologySpecsByName) {
  for (const std::string spec :
       {"ring:x", "ring:", "line:-3", "star:3x4", "grid:3", "grid:3xb", "waxman:5", "torus:4"}) {
    try {
      (void)build_scenario_topology(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("'" + spec + "'"), std::string::npos)
          << spec << ": " << error.what();
    }
  }
}

TEST(Scenario, FileSpecLoadsATopologyFile) {
  const std::string path = ::testing::TempDir() + "scenario_test_triangle.topo";
  {
    std::ofstream out(path);
    out << "node 0 A\nnode 1 B\nnode 2 C\n"
           "link 0 1 100000000\nlink 1 2 100000000\nlink 2 0 100000000\n";
  }
  const net::Topology topology = build_scenario_topology("file:" + path);
  EXPECT_EQ(topology.router_count(), 3U);
  EXPECT_EQ(topology.duplex_link_count(), 3U);
  EXPECT_THROW(build_scenario_topology("file:" + path + ".missing"), std::invalid_argument);
}

TEST(Scenario, MakeScenarioRunValidatesCrossFieldConstraints) {
  Scenario scenario = full_scenario();
  scenario.group.clear();
  EXPECT_THROW(make_scenario_run(scenario), std::invalid_argument);

  scenario = full_scenario();
  scenario.reconvergence.reset();  // path_repair still set
  EXPECT_THROW(make_scenario_run(scenario), std::invalid_argument);

  scenario = full_scenario();
  scenario.governor.reset();  // ops still present
  EXPECT_THROW(make_scenario_run(scenario), std::invalid_argument);
}

TEST(Scenario, MaterializeRandomAxesMatchesLazyExpansion) {
  Scenario original = full_scenario();
  original.axes.link_rate = 0.05;
  original.axes.churn_rate = 0.02;
  original.axes.node_rate = 0.01;

  Scenario expanded = original;
  const net::Topology topology = build_scenario_topology(original.topology);
  materialize_random_axes(expanded, topology);
  EXPECT_EQ(expanded.axes.link_rate, 0.0);
  EXPECT_EQ(expanded.axes.churn_rate, 0.0);
  EXPECT_EQ(expanded.axes.node_rate, 0.0);
  EXPECT_GE(expanded.fault_entries(), original.fault_entries());

  // Idempotent once the axes are zero.
  Scenario again = expanded;
  materialize_random_axes(again, topology);
  EXPECT_EQ(save_scenario(again), save_scenario(expanded));

  // The lowered configs draw identical schedules either way.
  const auto lazy = make_scenario_run(original);
  const auto eager = make_scenario_run(expanded);
  ASSERT_EQ(lazy->config.faults.size(), eager->config.faults.size());
  for (std::size_t i = 0; i < lazy->config.faults.size(); ++i) {
    EXPECT_EQ(lazy->config.faults[i].a, eager->config.faults[i].a);
    EXPECT_EQ(lazy->config.faults[i].b, eager->config.faults[i].b);
    EXPECT_EQ(lazy->config.faults[i].fail_at, eager->config.faults[i].fail_at);
    EXPECT_EQ(lazy->config.faults[i].repair_at, eager->config.faults[i].repair_at);
  }
  ASSERT_EQ(lazy->config.churn.size(), eager->config.churn.size());
  for (std::size_t i = 0; i < lazy->config.churn.size(); ++i) {
    EXPECT_EQ(lazy->config.churn[i].member_index, eager->config.churn[i].member_index);
    EXPECT_EQ(lazy->config.churn[i].down_at, eager->config.churn[i].down_at);
    EXPECT_EQ(lazy->config.churn[i].up_at, eager->config.churn[i].up_at);
  }
  ASSERT_EQ(lazy->config.node_faults.size(), eager->config.node_faults.size());
  for (std::size_t i = 0; i < lazy->config.node_faults.size(); ++i) {
    EXPECT_EQ(lazy->config.node_faults[i].node, eager->config.node_faults[i].node);
    EXPECT_EQ(lazy->config.node_faults[i].fail_at, eager->config.node_faults[i].fail_at);
    EXPECT_EQ(lazy->config.node_faults[i].repair_at,
              eager->config.node_faults[i].repair_at);
  }
}

}  // namespace
}  // namespace anyqos::sim
