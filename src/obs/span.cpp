#include "src/obs/span.h"

#include <ostream>

#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::obs {

std::vector<AttemptSpan> MemorySpanSink::attempts_for(std::uint64_t request_id) const {
  std::vector<AttemptSpan> children;
  for (const AttemptSpan& span : attempts_) {
    if (span.request_id == request_id) {
      children.push_back(span);
    }
  }
  return children;
}

void MemorySpanSink::clear() {
  attempts_.clear();
  decisions_.clear();
}

void append_jsonl(std::string& out, const AttemptSpan& span) {
  out += "{\"span\":\"attempt\",\"request\":";
  util::append_decimal(out, span.request_id);
  out += ",\"id\":";
  util::append_decimal(out, span.span_id);
  out += ",\"attempt\":";
  util::append_decimal(out, span.attempt_number);
  out += ",\"time\":";
  util::append_json_number(out, span.time);
  out += ",\"member\":";
  util::append_decimal(out, span.member_index);
  out += ",\"node\":";
  util::append_decimal(out, span.member_node);
  out += ",\"weights\":[";
  for (std::size_t i = 0; i < span.weights.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    util::append_json_number(out, span.weights[i]);
  }
  out += "],\"hops\":";
  util::append_decimal(out, span.route_hops);
  out += ",\"bottleneck_bps\":";
  util::append_json_number(out, span.bottleneck_bps);
  out += ",\"admitted\":";
  out += span.admitted ? "true" : "false";
  out += ",\"blocking_link\":";
  if (span.blocking_link.has_value()) {
    util::append_decimal(out, *span.blocking_link);
  } else {
    out += "null";
  }
  out += ",\"messages\":";
  util::append_decimal(out, span.messages);
  out += ",\"retransmits\":";
  util::append_decimal(out, span.retransmits);
  out += ",\"retries_remaining\":";
  util::append_decimal(out, span.retries_remaining);
  out += "}\n";
}

void append_jsonl(std::string& out, const DecisionSpan& span) {
  out += "{\"span\":\"decision\",\"request\":";
  util::append_decimal(out, span.request_id);
  out += ",\"time\":";
  util::append_json_number(out, span.start_time);
  out += ",\"source\":";
  util::append_decimal(out, span.source);
  out += ",\"bandwidth_bps\":";
  util::append_json_number(out, span.bandwidth_bps);
  out += ",\"algorithm\":\"";
  util::append_json_escaped(out, span.algorithm);
  out += "\",\"admitted\":";
  out += span.admitted ? "true" : "false";
  out += ",\"destination\":";
  if (span.destination_index.has_value()) {
    util::append_decimal(out, *span.destination_index);
  } else {
    out += "null";
  }
  out += ",\"attempts\":";
  util::append_decimal(out, span.attempts);
  out += ",\"messages\":";
  util::append_decimal(out, span.messages);
  out += ",\"max_attempts\":";
  util::append_decimal(out, span.max_attempts);
  out += ",\"group_size\":";
  util::append_decimal(out, span.group_size);
  out += "}\n";
}

JsonlSpanSink::JsonlSpanSink(std::ostream& out) : out_(&out) {}

void JsonlSpanSink::on_attempt(const AttemptSpan& span) {
  line_.clear();
  append_jsonl(line_, span);
  out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

void JsonlSpanSink::on_decision(const DecisionSpan& span) {
  line_.clear();
  append_jsonl(line_, span);
  out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

void DecisionTracer::begin_request(std::uint64_t request_id, net::NodeId source,
                                   net::Bandwidth bandwidth_bps, std::string algorithm,
                                   std::size_t max_attempts, std::size_t group_size) {
  util::require(sink_ != nullptr, "tracer calls require an attached sink");
  util::require(!in_request_, "previous request span still open");
  in_request_ = true;
  current_ = DecisionSpan{};
  current_.request_id = request_id;
  current_.start_time = now();
  current_.source = source;
  current_.bandwidth_bps = bandwidth_bps;
  current_.algorithm = std::move(algorithm);
  current_.max_attempts = max_attempts;
  current_.group_size = group_size;
}

void DecisionTracer::record_attempt(std::size_t member_index, net::NodeId member_node,
                                    std::vector<double> weights, std::size_t route_hops,
                                    net::Bandwidth bottleneck_bps, bool admitted,
                                    std::optional<net::LinkId> blocking_link,
                                    std::uint64_t messages, std::uint64_t retransmits,
                                    std::size_t retries_remaining) {
  util::require(in_request_, "attempt span outside a request span");
  AttemptSpan span;
  span.request_id = current_.request_id;
  span.span_id = next_span_id_++;
  span.attempt_number = ++current_.attempts;
  span.time = now();
  span.member_index = member_index;
  span.member_node = member_node;
  span.weights = std::move(weights);
  span.route_hops = route_hops;
  span.bottleneck_bps = bottleneck_bps;
  span.admitted = admitted;
  span.blocking_link = blocking_link;
  span.messages = messages;
  span.retransmits = retransmits;
  span.retries_remaining = retries_remaining;
  sink_->on_attempt(span);
  ++spans_emitted_;
}

void DecisionTracer::end_request(bool admitted, std::optional<std::size_t> destination_index,
                                 std::uint64_t messages) {
  util::require(in_request_, "decision span closed twice");
  in_request_ = false;
  current_.admitted = admitted;
  current_.destination_index = destination_index;
  current_.messages = messages;
  sink_->on_decision(current_);
  ++spans_emitted_;
}

}  // namespace anyqos::obs
