#include "src/net/topology_io.h"

#include <fstream>
#include <sstream>

#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::net {

namespace {

[[noreturn]] void fail_at(std::size_t line, const std::string& message) {
  throw std::invalid_argument("topology line " + std::to_string(line) + ": " + message);
}

}  // namespace

Topology parse_topology(std::istream& in) {
  Topology topo;
  std::string raw;
  std::size_t line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    const std::string_view stripped = util::trim(raw);
    if (stripped.empty() || stripped.front() == '#') {
      continue;
    }
    std::istringstream fields{std::string(stripped)};
    std::string keyword;
    fields >> keyword;
    if (keyword == "node") {
      unsigned long long id = 0;
      if (!(fields >> id)) {
        fail_at(line_number, "node needs an id");
      }
      if (id != topo.router_count()) {
        fail_at(line_number, "node ids must be dense and in order (expected " +
                                 std::to_string(topo.router_count()) + ", got " +
                                 std::to_string(id) + ")");
      }
      std::string name;
      fields >> name;  // optional
      topo.add_router(std::move(name));
    } else if (keyword == "link") {
      unsigned long long a = 0;
      unsigned long long b = 0;
      double capacity = 0.0;
      if (!(fields >> a >> b >> capacity)) {
        fail_at(line_number, "link needs: <a> <b> <capacity_bps>");
      }
      if (a >= topo.router_count() || b >= topo.router_count()) {
        fail_at(line_number, "link references an undeclared node");
      }
      if (capacity <= 0.0) {
        fail_at(line_number, "link capacity must be positive");
      }
      try {
        topo.add_duplex_link(static_cast<NodeId>(a), static_cast<NodeId>(b), capacity);
      } catch (const std::invalid_argument& error) {
        fail_at(line_number, error.what());
      }
    } else {
      fail_at(line_number, "unknown keyword '" + keyword + "'");
    }
    // Trailing garbage detection.
    std::string rest;
    if (fields >> rest) {
      fail_at(line_number, "unexpected trailing field '" + rest + "'");
    }
  }
  util::require(topo.router_count() > 0, "topology file declares no nodes");
  return topo;
}

Topology parse_topology_text(const std::string& text) {
  std::istringstream in(text);
  return parse_topology(in);
}

Topology load_topology(const std::string& path) {
  std::ifstream in(path);
  util::require(in.good(), [&] { return "cannot open topology file: " + path; });
  return parse_topology(in);
}

std::string topology_to_text(const Topology& topology) {
  std::ostringstream out;
  out << "# anyqos topology: " << topology.router_count() << " nodes, "
      << topology.duplex_link_count() << " duplex links\n";
  for (NodeId id = 0; id < topology.router_count(); ++id) {
    out << "node " << id;
    const std::string name = topology.router_name(id);
    std::string default_name = "r";  // append form: see Topology::router_name
    default_name += std::to_string(id);
    if (name != default_name) {
      out << ' ' << name;
    }
    out << '\n';
  }
  // Each duplex pair is stored as consecutive directed links; emit the
  // forward direction only.
  for (LinkId id = 0; id < topology.link_count(); id += 2) {
    const Arc& arc = topology.link(id);
    out << "link " << arc.from << ' ' << arc.to << ' ' << topology.capacity(id) << '\n';
  }
  return out.str();
}

void save_topology(const Topology& topology, const std::string& path) {
  std::ofstream out(path);
  util::require(out.good(), [&] { return "cannot open file for writing: " + path; });
  out << topology_to_text(topology);
  util::require(out.good(), [&] { return "failed writing topology file: " + path; });
}

}  // namespace anyqos::net
