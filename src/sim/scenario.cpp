#include "src/sim/scenario.h"

#include <cmath>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "src/core/selector.h"
#include "src/net/topologies.h"
#include "src/net/topology_io.h"
#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::sim {
namespace {

using util::JsonValue;

[[noreturn]] void fail(std::string_view where, const std::string& what) {
  throw std::invalid_argument("scenario: " + std::string(where) + ": " + what);
}

/// Fails with `"key" problem`. Built by appending: GCC 12 misreports the
/// equivalent operator+ chain as overlapping memcpy (-Wrestrict, GCC bug 105329).
[[noreturn]] void fail_key(std::string_view where, std::string_view key,
                           std::string_view problem) {
  std::string what = "\"";
  what += key;
  what += "\" ";
  what += problem;
  fail(where, what);
}

/// Typo safety for repro files: every object's keys must come from its
/// schema — a misspelled knob silently falling back to a default would make
/// a committed repro lie about what it reproduces.
void check_keys(const JsonValue& object, std::string_view where,
                std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : object.as_object()) {
    bool known = false;
    for (const std::string_view candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      fail(where, "unknown key \"" + key + "\"");
    }
  }
}

double get_number(const JsonValue& object, std::string_view where, std::string_view key,
                  double fallback) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    return fallback;
  }
  if (!value->is_number()) {
    fail_key(where, key, "must be a number");
  }
  return value->as_number();
}

std::uint64_t get_uint(const JsonValue& object, std::string_view where, std::string_view key,
                       std::uint64_t fallback) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    return fallback;
  }
  if (!value->is_number() || value->as_number() < 0.0 ||
      value->as_number() != std::floor(value->as_number())) {
    fail_key(where, key, "must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(value->as_number());
}

bool get_bool(const JsonValue& object, std::string_view where, std::string_view key,
              bool fallback) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    return fallback;
  }
  if (!value->is_bool()) {
    fail_key(where, key, "must be a boolean");
  }
  return value->as_bool();
}

std::string get_string(const JsonValue& object, std::string_view where, std::string_view key,
                       std::string fallback) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    return fallback;
  }
  if (!value->is_string()) {
    fail_key(where, key, "must be a string");
  }
  return value->as_string();
}

std::vector<net::NodeId> get_nodes(const JsonValue& object, std::string_view where,
                                   std::string_view key) {
  const JsonValue* value = object.find(key);
  std::vector<net::NodeId> nodes;
  if (value == nullptr) {
    return nodes;
  }
  if (!value->is_array()) {
    fail_key(where, key, "must be an array of node ids");
  }
  for (const JsonValue& element : value->as_array()) {
    if (!element.is_number() || element.as_number() < 0.0 ||
        element.as_number() != std::floor(element.as_number())) {
      fail_key(where, key, "entries must be non-negative integers");
    }
    nodes.push_back(static_cast<net::NodeId>(element.as_number()));
  }
  return nodes;
}

JsonValue nodes_to_json(const std::vector<net::NodeId>& nodes) {
  JsonValue array = JsonValue::array();
  for (const net::NodeId node : nodes) {
    array.push_back(JsonValue::number(static_cast<double>(node)));
  }
  return array;
}

bool axes_enabled(const FaultAxes& axes) {
  return axes.link_rate > 0.0 || axes.churn_rate > 0.0 || axes.node_rate > 0.0;
}

}  // namespace

net::Topology build_scenario_topology(const std::string& spec) {
  const auto bad_spec = [&spec] {
    std::string message = "bad topology spec '";  // append form: GCC 12 -Wrestrict
    message += spec;
    message += "' (mci, line:N, ring:N, star:N, grid:RxC, waxman:NxSEED, file:PATH)";
    return message;
  };
  // The 'x'-separated sizes after a "<family>:" prefix: exactly `count`
  // non-negative integers, else the spec is rejected by name.
  const auto sizes = [&](std::size_t prefix, std::size_t count) {
    std::vector<std::size_t> values;
    for (const std::string& field : util::split(std::string_view(spec).substr(prefix), 'x')) {
      const auto value = util::parse_unsigned(field);
      util::require(value.has_value(), bad_spec);
      values.push_back(static_cast<std::size_t>(*value));
    }
    util::require(values.size() == count, bad_spec);
    return values;
  };
  if (spec == "mci") {
    return net::topologies::mci_backbone();
  }
  if (util::starts_with(spec, "file:")) {
    return net::load_topology(spec.substr(5));
  }
  if (util::starts_with(spec, "line:")) {
    return net::topologies::line(sizes(5, 1)[0]);
  }
  if (util::starts_with(spec, "ring:")) {
    return net::topologies::ring(sizes(5, 1)[0]);
  }
  if (util::starts_with(spec, "star:")) {
    return net::topologies::star(sizes(5, 1)[0]);
  }
  if (util::starts_with(spec, "grid:")) {
    const std::vector<std::size_t> dims = sizes(5, 2);
    return net::topologies::grid(dims[0], dims[1]);
  }
  if (util::starts_with(spec, "waxman:")) {
    const std::vector<std::size_t> parts = sizes(7, 2);
    return net::topologies::waxman(parts[0], 0.6, 0.5, parts[1]);
  }
  util::require(false, bad_spec);
  util::unreachable("build_scenario_topology");
}

util::JsonValue scenario_to_json(const Scenario& scenario) {
  JsonValue root = JsonValue::object();
  root.set("schema", JsonValue::string(std::string(kScenarioSchema)));
  root.set("name", JsonValue::string(scenario.name));
  root.set("topology", JsonValue::string(scenario.topology));
  root.set("seed", JsonValue::number(static_cast<double>(scenario.seed)));

  JsonValue workload = JsonValue::object();
  workload.set("lambda", JsonValue::number(scenario.lambda));
  workload.set("mean_holding_s", JsonValue::number(scenario.mean_holding_s));
  workload.set("flow_bandwidth_bps", JsonValue::number(scenario.flow_bandwidth_bps));
  workload.set("sources", nodes_to_json(scenario.sources));
  root.set("workload", std::move(workload));

  JsonValue system = JsonValue::object();
  system.set("algorithm", JsonValue::string(scenario.algorithm));
  system.set("max_tries", JsonValue::number(static_cast<double>(scenario.max_tries)));
  system.set("alpha", JsonValue::number(scenario.alpha));
  system.set("anycast_share", JsonValue::number(scenario.anycast_share));
  system.set("group", nodes_to_json(scenario.group));
  system.set("failover_readmit", JsonValue::boolean(scenario.failover_readmit));
  system.set("path_repair", JsonValue::boolean(scenario.path_repair));
  root.set("system", std::move(system));

  JsonValue run = JsonValue::object();
  run.set("warmup_s", JsonValue::number(scenario.warmup_s));
  run.set("measure_s", JsonValue::number(scenario.measure_s));
  run.set("drain_to_quiescence", JsonValue::boolean(scenario.drain_to_quiescence));
  run.set("drain_max_events",
          JsonValue::number(static_cast<double>(scenario.drain_max_events)));
  run.set("drain_max_sim_s", JsonValue::number(scenario.drain_max_sim_s));
  root.set("run", std::move(run));

  if (scenario.resilience.has_value()) {
    const ScenarioResilience& r = *scenario.resilience;
    JsonValue block = JsonValue::object();
    block.set("loss_probability", JsonValue::number(r.loss_probability));
    block.set("hop_delay_s", JsonValue::number(r.hop_delay_s));
    block.set("hop_jitter_s", JsonValue::number(r.hop_jitter_s));
    block.set("retransmit_timeout_s", JsonValue::number(r.retransmit_timeout_s));
    block.set("backoff_factor", JsonValue::number(r.backoff_factor));
    block.set("backoff_jitter", JsonValue::number(r.backoff_jitter));
    block.set("max_retransmits",
              JsonValue::number(static_cast<double>(r.max_retransmits)));
    block.set("orphan_hold_s", JsonValue::number(r.orphan_hold_s));
    root.set("resilience", std::move(block));
  }
  if (scenario.reconvergence.has_value()) {
    JsonValue block = JsonValue::object();
    block.set("policy", JsonValue::string(scenario.reconvergence->policy));
    block.set("param_s", JsonValue::number(scenario.reconvergence->param_s));
    root.set("reconvergence", std::move(block));
  }
  if (scenario.governor.has_value()) {
    const ScenarioGovernor& g = *scenario.governor;
    JsonValue block = JsonValue::object();
    block.set("adaptive_retrial", JsonValue::boolean(g.adaptive_retrial));
    block.set("member_breakers", JsonValue::boolean(g.member_breakers));
    block.set("window_s", JsonValue::number(g.window_s));
    block.set("min_tries", JsonValue::number(static_cast<double>(g.min_tries)));
    block.set("breaker_threshold",
              JsonValue::number(static_cast<double>(g.breaker_threshold)));
    block.set("breaker_cooldown_s", JsonValue::number(g.breaker_cooldown_s));
    block.set("shed_budget_msgs_per_s", JsonValue::number(g.shed_budget_msgs_per_s));
    block.set("shed_burst_msgs", JsonValue::number(g.shed_burst_msgs));
    root.set("governor", std::move(block));
  }
  if (axes_enabled(scenario.axes)) {
    JsonValue block = JsonValue::object();
    block.set("link_rate", JsonValue::number(scenario.axes.link_rate));
    block.set("link_mean_repair_s", JsonValue::number(scenario.axes.link_mean_repair_s));
    block.set("churn_rate", JsonValue::number(scenario.axes.churn_rate));
    block.set("churn_mean_down_s", JsonValue::number(scenario.axes.churn_mean_down_s));
    block.set("node_rate", JsonValue::number(scenario.axes.node_rate));
    block.set("node_mean_repair_s", JsonValue::number(scenario.axes.node_mean_repair_s));
    root.set("axes", std::move(block));
  }

  if (!scenario.link_faults.empty()) {
    JsonValue array = JsonValue::array();
    for (const LinkFault& fault : scenario.link_faults) {
      JsonValue entry = JsonValue::object();
      entry.set("a", JsonValue::number(static_cast<double>(fault.a)));
      entry.set("b", JsonValue::number(static_cast<double>(fault.b)));
      entry.set("fail_at", JsonValue::number(fault.fail_at));
      entry.set("repair_at", JsonValue::number(fault.repair_at));
      array.push_back(std::move(entry));
    }
    root.set("link_faults", std::move(array));
  }
  if (!scenario.churn.empty()) {
    JsonValue array = JsonValue::array();
    for (const MemberChurnEvent& event : scenario.churn) {
      JsonValue entry = JsonValue::object();
      entry.set("member", JsonValue::number(static_cast<double>(event.member_index)));
      entry.set("down_at", JsonValue::number(event.down_at));
      entry.set("up_at", JsonValue::number(event.up_at));
      array.push_back(std::move(entry));
    }
    root.set("churn", std::move(array));
  }
  if (!scenario.node_faults.empty()) {
    JsonValue array = JsonValue::array();
    for (const NodeFault& fault : scenario.node_faults) {
      JsonValue entry = JsonValue::object();
      entry.set("node", JsonValue::number(static_cast<double>(fault.node)));
      entry.set("fail_at", JsonValue::number(fault.fail_at));
      entry.set("repair_at", JsonValue::number(fault.repair_at));
      array.push_back(std::move(entry));
    }
    root.set("node_faults", std::move(array));
  }
  if (!scenario.regional_outages.empty()) {
    JsonValue array = JsonValue::array();
    for (const RegionalOutageSpec& outage : scenario.regional_outages) {
      JsonValue entry = JsonValue::object();
      entry.set("epicenter", JsonValue::number(static_cast<double>(outage.epicenter)));
      entry.set("radius_hops",
                JsonValue::number(static_cast<double>(outage.radius_hops)));
      entry.set("fail_at", JsonValue::number(outage.fail_at));
      entry.set("repair_at", JsonValue::number(outage.repair_at));
      array.push_back(std::move(entry));
    }
    root.set("regional_outages", std::move(array));
  }
  if (!scenario.ops.empty()) {
    JsonValue array = JsonValue::array();
    for (const control::TimedDirective& timed : scenario.ops) {
      JsonValue entry = JsonValue::object();
      entry.set("t", JsonValue::number(timed.apply_at));
      entry.set("knob", JsonValue::string(control::to_string(timed.directive.knob)));
      entry.set("value", JsonValue::number(timed.directive.value));
      array.push_back(std::move(entry));
    }
    root.set("ops", std::move(array));
  }
  return root;
}

Scenario scenario_from_json(const util::JsonValue& document) {
  if (!document.is_object()) {
    fail("document", "top level must be an object");
  }
  check_keys(document, "document",
             {"schema", "name", "topology", "seed", "workload", "system", "run",
              "resilience", "reconvergence", "governor", "axes", "link_faults", "churn",
              "node_faults", "regional_outages", "ops"});
  const std::string schema = get_string(document, "document", "schema", "");
  if (schema != kScenarioSchema) {
    fail("document", "schema must be \"" + std::string(kScenarioSchema) + "\" (got \"" +
                         schema + "\")");
  }

  Scenario scenario;
  scenario.name = get_string(document, "document", "name", scenario.name);
  scenario.topology = get_string(document, "document", "topology", scenario.topology);
  scenario.seed = get_uint(document, "document", "seed", scenario.seed);

  if (const JsonValue* workload = document.find("workload"); workload != nullptr) {
    check_keys(*workload, "workload",
               {"lambda", "mean_holding_s", "flow_bandwidth_bps", "sources"});
    scenario.lambda = get_number(*workload, "workload", "lambda", scenario.lambda);
    scenario.mean_holding_s =
        get_number(*workload, "workload", "mean_holding_s", scenario.mean_holding_s);
    scenario.flow_bandwidth_bps = get_number(*workload, "workload", "flow_bandwidth_bps",
                                             scenario.flow_bandwidth_bps);
    scenario.sources = get_nodes(*workload, "workload", "sources");
  }
  if (const JsonValue* system = document.find("system"); system != nullptr) {
    check_keys(*system, "system",
               {"algorithm", "max_tries", "alpha", "anycast_share", "group",
                "failover_readmit", "path_repair"});
    scenario.algorithm = get_string(*system, "system", "algorithm", scenario.algorithm);
    scenario.max_tries = static_cast<std::size_t>(
        get_uint(*system, "system", "max_tries", scenario.max_tries));
    scenario.alpha = get_number(*system, "system", "alpha", scenario.alpha);
    scenario.anycast_share =
        get_number(*system, "system", "anycast_share", scenario.anycast_share);
    scenario.group = get_nodes(*system, "system", "group");
    scenario.failover_readmit =
        get_bool(*system, "system", "failover_readmit", scenario.failover_readmit);
    scenario.path_repair = get_bool(*system, "system", "path_repair", scenario.path_repair);
  }
  if (const JsonValue* run = document.find("run"); run != nullptr) {
    check_keys(*run, "run",
               {"warmup_s", "measure_s", "drain_to_quiescence", "drain_max_events",
                "drain_max_sim_s"});
    scenario.warmup_s = get_number(*run, "run", "warmup_s", scenario.warmup_s);
    scenario.measure_s = get_number(*run, "run", "measure_s", scenario.measure_s);
    scenario.drain_to_quiescence =
        get_bool(*run, "run", "drain_to_quiescence", scenario.drain_to_quiescence);
    scenario.drain_max_events = static_cast<std::size_t>(
        get_uint(*run, "run", "drain_max_events", scenario.drain_max_events));
    scenario.drain_max_sim_s =
        get_number(*run, "run", "drain_max_sim_s", scenario.drain_max_sim_s);
  }
  if (const JsonValue* block = document.find("resilience"); block != nullptr) {
    check_keys(*block, "resilience",
               {"loss_probability", "hop_delay_s", "hop_jitter_s", "retransmit_timeout_s",
                "backoff_factor", "backoff_jitter", "max_retransmits", "orphan_hold_s"});
    ScenarioResilience r;
    r.loss_probability =
        get_number(*block, "resilience", "loss_probability", r.loss_probability);
    r.hop_delay_s = get_number(*block, "resilience", "hop_delay_s", r.hop_delay_s);
    r.hop_jitter_s = get_number(*block, "resilience", "hop_jitter_s", r.hop_jitter_s);
    r.retransmit_timeout_s =
        get_number(*block, "resilience", "retransmit_timeout_s", r.retransmit_timeout_s);
    r.backoff_factor = get_number(*block, "resilience", "backoff_factor", r.backoff_factor);
    r.backoff_jitter = get_number(*block, "resilience", "backoff_jitter", r.backoff_jitter);
    r.max_retransmits = static_cast<std::size_t>(
        get_uint(*block, "resilience", "max_retransmits", r.max_retransmits));
    r.orphan_hold_s = get_number(*block, "resilience", "orphan_hold_s", r.orphan_hold_s);
    scenario.resilience = r;
  }
  if (const JsonValue* block = document.find("reconvergence"); block != nullptr) {
    check_keys(*block, "reconvergence", {"policy", "param_s"});
    ScenarioReconvergence r;
    r.policy = get_string(*block, "reconvergence", "policy", r.policy);
    r.param_s = get_number(*block, "reconvergence", "param_s", r.param_s);
    if (r.policy != "instant" && r.policy != "fixed" && r.policy != "flooding") {
      fail("reconvergence", "policy must be instant, fixed, or flooding");
    }
    scenario.reconvergence = r;
  }
  if (const JsonValue* block = document.find("governor"); block != nullptr) {
    check_keys(*block, "governor",
               {"adaptive_retrial", "member_breakers", "window_s", "min_tries",
                "breaker_threshold", "breaker_cooldown_s", "shed_budget_msgs_per_s",
                "shed_burst_msgs"});
    ScenarioGovernor g;
    g.adaptive_retrial = get_bool(*block, "governor", "adaptive_retrial", g.adaptive_retrial);
    g.member_breakers = get_bool(*block, "governor", "member_breakers", g.member_breakers);
    g.window_s = get_number(*block, "governor", "window_s", g.window_s);
    g.min_tries =
        static_cast<std::size_t>(get_uint(*block, "governor", "min_tries", g.min_tries));
    g.breaker_threshold = static_cast<std::size_t>(
        get_uint(*block, "governor", "breaker_threshold", g.breaker_threshold));
    g.breaker_cooldown_s =
        get_number(*block, "governor", "breaker_cooldown_s", g.breaker_cooldown_s);
    g.shed_budget_msgs_per_s =
        get_number(*block, "governor", "shed_budget_msgs_per_s", g.shed_budget_msgs_per_s);
    g.shed_burst_msgs = get_number(*block, "governor", "shed_burst_msgs", g.shed_burst_msgs);
    scenario.governor = g;
  }
  if (const JsonValue* block = document.find("axes"); block != nullptr) {
    check_keys(*block, "axes",
               {"link_rate", "link_mean_repair_s", "churn_rate", "churn_mean_down_s",
                "node_rate", "node_mean_repair_s"});
    scenario.axes.link_rate = get_number(*block, "axes", "link_rate", 0.0);
    scenario.axes.link_mean_repair_s =
        get_number(*block, "axes", "link_mean_repair_s", scenario.axes.link_mean_repair_s);
    scenario.axes.churn_rate = get_number(*block, "axes", "churn_rate", 0.0);
    scenario.axes.churn_mean_down_s =
        get_number(*block, "axes", "churn_mean_down_s", scenario.axes.churn_mean_down_s);
    scenario.axes.node_rate = get_number(*block, "axes", "node_rate", 0.0);
    scenario.axes.node_mean_repair_s =
        get_number(*block, "axes", "node_mean_repair_s", scenario.axes.node_mean_repair_s);
  }

  if (const JsonValue* array = document.find("link_faults"); array != nullptr) {
    for (const JsonValue& element : array->as_array()) {
      check_keys(element, "link_faults", {"a", "b", "fail_at", "repair_at"});
      scenario.link_faults.push_back(single_fault(
          static_cast<net::NodeId>(get_uint(element, "link_faults", "a", 0)),
          static_cast<net::NodeId>(get_uint(element, "link_faults", "b", 0)),
          get_number(element, "link_faults", "fail_at", 0.0),
          get_number(element, "link_faults", "repair_at", 0.0)));
    }
  }
  if (const JsonValue* array = document.find("churn"); array != nullptr) {
    for (const JsonValue& element : array->as_array()) {
      check_keys(element, "churn", {"member", "down_at", "up_at"});
      scenario.churn.push_back(single_churn(
          static_cast<std::size_t>(get_uint(element, "churn", "member", 0)),
          get_number(element, "churn", "down_at", 0.0),
          get_number(element, "churn", "up_at", 0.0)));
    }
  }
  if (const JsonValue* array = document.find("node_faults"); array != nullptr) {
    for (const JsonValue& element : array->as_array()) {
      check_keys(element, "node_faults", {"node", "fail_at", "repair_at"});
      scenario.node_faults.push_back(single_node_fault(
          static_cast<net::NodeId>(get_uint(element, "node_faults", "node", 0)),
          get_number(element, "node_faults", "fail_at", 0.0),
          get_number(element, "node_faults", "repair_at", 0.0)));
    }
  }
  if (const JsonValue* array = document.find("regional_outages"); array != nullptr) {
    for (const JsonValue& element : array->as_array()) {
      check_keys(element, "regional_outages",
                 {"epicenter", "radius_hops", "fail_at", "repair_at"});
      RegionalOutageSpec outage;
      outage.epicenter =
          static_cast<net::NodeId>(get_uint(element, "regional_outages", "epicenter", 0));
      outage.radius_hops = static_cast<std::size_t>(
          get_uint(element, "regional_outages", "radius_hops", 0));
      outage.fail_at = get_number(element, "regional_outages", "fail_at", 0.0);
      outage.repair_at = get_number(element, "regional_outages", "repair_at", 0.0);
      if (!(outage.repair_at > outage.fail_at) || outage.fail_at < 0.0) {
        fail("regional_outages", "repair_at must follow a non-negative fail_at");
      }
      scenario.regional_outages.push_back(outage);
    }
  }
  if (const JsonValue* array = document.find("ops"); array != nullptr) {
    double last_t = 0.0;
    for (const JsonValue& element : array->as_array()) {
      check_keys(element, "ops", {"t", "knob", "value"});
      control::TimedDirective timed;
      timed.apply_at = get_number(element, "ops", "t", 0.0);
      if (timed.apply_at < last_t) {
        fail("ops", "directives must be sorted by t");
      }
      last_t = timed.apply_at;
      const std::string knob = get_string(element, "ops", "knob", "");
      const auto parsed = control::parse_knob(knob);
      if (!parsed.has_value()) {
        fail("ops", "unknown knob \"" + knob + "\"");
      }
      timed.directive.knob = *parsed;
      timed.directive.value = get_number(element, "ops", "value", 0.0);
      if (const auto error =
              control::validate_directive(timed.directive.knob, timed.directive.value);
          error.has_value()) {
        fail("ops", *error);
      }
      scenario.ops.push_back(timed);
    }
  }
  return scenario;
}

std::string save_scenario(const Scenario& scenario) {
  return scenario_to_json(scenario).dump(/*pretty=*/true);
}

Scenario load_scenario(std::string_view text) {
  return scenario_from_json(util::parse_json(text));
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  util::require(in.good(), [&] { return "cannot open scenario file: " + path; });
  std::ostringstream text;
  text << in.rdbuf();
  return load_scenario(text.str());
}

std::vector<net::NodeId> parse_node_list(std::string_view text, std::string_view what) {
  std::vector<net::NodeId> nodes;
  for (const std::string& field : util::split(text, ',')) {
    const auto value = util::parse_unsigned(field);
    util::require(value.has_value(),
                  [&] { return std::string(what) + " must be a comma list of node ids"; });
    nodes.push_back(static_cast<net::NodeId>(*value));
  }
  return nodes;
}

void materialize_random_axes(Scenario& scenario, const net::Topology& topology) {
  if (!axes_enabled(scenario.axes)) {
    return;
  }
  const double horizon = scenario.warmup_s + scenario.measure_s;
  ScenarioSchedules drawn = scenario_schedules(topology, scenario.group.size(), horizon,
                                               scenario.axes, scenario.seed);
  // Append after the explicit entries, matching make_scenario_run's order,
  // so the materialized scenario runs byte-identically to the original.
  scenario.churn.insert(scenario.churn.end(), drawn.churn.begin(), drawn.churn.end());
  scenario.link_faults.insert(scenario.link_faults.end(), drawn.link_faults.begin(),
                              drawn.link_faults.end());
  scenario.node_faults.insert(scenario.node_faults.end(), drawn.node_faults.begin(),
                              drawn.node_faults.end());
  scenario.axes = FaultAxes{};
}

std::unique_ptr<ScenarioRun> make_scenario_run(const Scenario& scenario) {
  auto run = std::make_unique<ScenarioRun>();
  run->topology = build_scenario_topology(scenario.topology);
  const net::Topology& topology = run->topology;
  util::require(!scenario.group.empty(), "scenario needs a non-empty group");
  util::require(!scenario.sources.empty(), "scenario needs a non-empty source set");

  SimulationConfig config;
  config.traffic.arrival_rate = scenario.lambda;
  config.traffic.mean_holding_s = scenario.mean_holding_s;
  config.traffic.flow_bandwidth_bps = scenario.flow_bandwidth_bps;
  config.traffic.sources = scenario.sources;
  config.group_members = scenario.group;
  config.anycast_share = scenario.anycast_share;
  config.algorithm = core::parse_algorithm(scenario.algorithm);
  config.max_tries = scenario.max_tries;
  config.alpha = scenario.alpha;
  config.warmup_s = scenario.warmup_s;
  config.measure_s = scenario.measure_s;
  config.seed = scenario.seed;
  config.failover_readmit = scenario.failover_readmit;
  config.path_repair = scenario.path_repair;
  config.drain_to_quiescence = scenario.drain_to_quiescence;
  config.drain_max_events = scenario.drain_max_events;
  config.drain_max_sim_s = scenario.drain_max_sim_s;

  if (scenario.resilience.has_value()) {
    const ScenarioResilience& r = *scenario.resilience;
    signaling::ResilienceOptions options;
    options.faults.loss_probability = r.loss_probability;
    options.faults.hop_delay_s = r.hop_delay_s;
    options.faults.hop_jitter_s = r.hop_jitter_s;
    options.retransmit_timeout_s = r.retransmit_timeout_s;
    options.backoff_factor = r.backoff_factor;
    options.backoff_jitter = r.backoff_jitter;
    options.max_retransmits = r.max_retransmits;
    options.orphan_hold_s = r.orphan_hold_s;
    config.resilience = options;
  }

  // Explicit entries first, then the axes' draws — the order
  // materialize_random_axes preserves.
  config.faults = scenario.link_faults;
  config.churn = scenario.churn;
  config.node_faults = scenario.node_faults;
  if (axes_enabled(scenario.axes)) {
    const double horizon = scenario.warmup_s + scenario.measure_s;
    ScenarioSchedules drawn = scenario_schedules(topology, scenario.group.size(), horizon,
                                                 scenario.axes, scenario.seed);
    config.churn.insert(config.churn.end(), drawn.churn.begin(), drawn.churn.end());
    config.faults.insert(config.faults.end(), drawn.link_faults.begin(),
                         drawn.link_faults.end());
    config.node_faults.insert(config.node_faults.end(), drawn.node_faults.begin(),
                              drawn.node_faults.end());
  }
  for (const RegionalOutageSpec& outage : scenario.regional_outages) {
    const std::vector<NodeFault> expanded = regional_outage(
        topology, outage.epicenter, outage.radius_hops, outage.fail_at, outage.repair_at);
    config.node_faults.insert(config.node_faults.end(), expanded.begin(), expanded.end());
  }

  if (scenario.reconvergence.has_value()) {
    const ScenarioReconvergence& r = *scenario.reconvergence;
    if (r.policy == "instant") {
      run->reconvergence = std::make_unique<net::InstantReconvergence>();
    } else if (r.policy == "fixed") {
      run->reconvergence = std::make_unique<net::FixedReconvergence>(r.param_s);
    } else if (r.policy == "flooding") {
      run->reconvergence = std::make_unique<net::FloodingReconvergence>(r.param_s);
    } else {
      util::require(false, "unknown reconvergence policy '" + r.policy + "'");
    }
    config.reconvergence = run->reconvergence.get();
  }
  util::require(!scenario.path_repair || run->reconvergence != nullptr,
                "scenario: path_repair requires a reconvergence block");

  if (scenario.governor.has_value()) {
    const ScenarioGovernor& g = *scenario.governor;
    control::GovernorOptions options;
    options.adaptive_retrial = g.adaptive_retrial;
    options.member_breakers = g.member_breakers;
    options.window_s = g.window_s;
    options.min_tries = g.min_tries;
    options.breaker.failure_threshold = g.breaker_threshold;
    options.breaker.cooldown_s = g.breaker_cooldown_s;
    options.shed_budget_msgs_per_s = g.shed_budget_msgs_per_s;
    options.shed_burst_msgs = g.shed_burst_msgs;
    run->governor = std::make_unique<control::OverloadGovernor>(options);
    config.governor = run->governor.get();
  }
  util::require(scenario.ops.empty() || run->governor != nullptr,
                "scenario: ops directives require a governor block");
  config.ops_replay = scenario.ops;

  run->config = std::move(config);
  return run;
}

}  // namespace anyqos::sim
