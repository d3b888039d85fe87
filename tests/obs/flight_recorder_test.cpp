#include "src/obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/span.h"
#include "src/util/strings.h"

namespace anyqos::obs {
namespace {

DecisionSpan decision_span(std::uint64_t request_id) {
  DecisionSpan span;
  span.request_id = request_id;
  span.algorithm = "ED";
  return span;
}

AttemptSpan attempt_span(std::uint64_t request_id) {
  AttemptSpan span;
  span.request_id = request_id;
  return span;
}

/// The flow-note detail as the simulation's trace funnel once formatted it
/// eagerly, before notes carried raw fields.
std::string eager_flow_detail(std::uint64_t flow, net::NodeId source, net::NodeId destination,
                              std::size_t attempts, double bandwidth_bps, std::size_t active) {
  std::string detail = "flow=";
  detail += std::to_string(flow);
  detail += " src=";
  detail += std::to_string(source);
  detail += " dst=";
  if (destination == net::kInvalidNode) {
    detail += '-';
  } else {
    detail += std::to_string(destination);
  }
  detail += " attempts=";
  detail += std::to_string(attempts);
  detail += " bw_bps=";
  detail += util::format_fixed(bandwidth_bps, 0);
  detail += " active=";
  detail += std::to_string(active);
  return detail;
}

void flow_note(FlightRecorder& recorder, double time, std::uint64_t flow, net::NodeId source,
               net::NodeId destination, std::size_t attempts, double bandwidth_bps,
               std::size_t active) {
  const NoteField fields[] = {NoteField::number("flow", flow),
                              NoteField::number("src", source),
                              NoteField::node("dst", destination),
                              NoteField::number("attempts", attempts),
                              NoteField::rounded("bw_bps", bandwidth_bps),
                              NoteField::number("active", active)};
  recorder.note(time, "DROPPED", fields);
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(FlightRecorder, RejectsZeroDepth) {
  EXPECT_THROW(FlightRecorder(FlightRecorderOptions{0, 1}), std::invalid_argument);
}

TEST(FlightRecorder, RingKeepsTheMostRecentDepthEntries) {
  FlightRecorder recorder(FlightRecorderOptions{3, 16});
  for (std::uint64_t id = 1; id <= 5; ++id) {
    recorder.span_sink().on_decision(decision_span(id));
  }
  EXPECT_EQ(recorder.entries(), 3u);

  std::ostringstream out;
  recorder.set_output(&out);
  EXPECT_EQ(recorder.trigger(10.0, "probe"), 3u);
  // Oldest-first: requests 1 and 2 were overwritten by the wrap.
  const std::string text = out.str();
  EXPECT_EQ(text.find("\"request\":1,"), std::string::npos);
  EXPECT_EQ(text.find("\"request\":2,"), std::string::npos);
  const std::size_t third = text.find("\"request\":3");
  const std::size_t fourth = text.find("\"request\":4");
  const std::size_t fifth = text.find("\"request\":5");
  ASSERT_NE(third, std::string::npos);
  ASSERT_NE(fourth, std::string::npos);
  ASSERT_NE(fifth, std::string::npos);
  EXPECT_LT(third, fourth);
  EXPECT_LT(fourth, fifth);
}

TEST(FlightRecorder, ForwardsSpansToTheDownstreamSink) {
  FlightRecorder recorder;
  MemorySpanSink downstream;
  recorder.set_forward(&downstream);
  recorder.span_sink().on_attempt(attempt_span(7));
  recorder.span_sink().on_decision(decision_span(7));
  EXPECT_EQ(recorder.entries(), 2u);
  ASSERT_EQ(downstream.attempts().size(), 1u);
  ASSERT_EQ(downstream.decisions().size(), 1u);
  EXPECT_EQ(downstream.decisions()[0].request_id, 7u);

  recorder.set_forward(nullptr);
  recorder.span_sink().on_decision(decision_span(8));
  EXPECT_EQ(recorder.entries(), 3u);
  EXPECT_EQ(downstream.decisions().size(), 1u);  // detached: ring only
}

TEST(FlightRecorder, SnapshotCarriesHeaderSpansAndEvents) {
  FlightRecorder recorder;
  recorder.span_sink().on_attempt(attempt_span(42));
  recorder.span_sink().on_decision(decision_span(42));
  recorder.note(12.5, "link_down", "r0->r1");

  std::ostringstream out;
  recorder.set_output(&out);
  EXPECT_EQ(recorder.trigger(13.0, "link_fault 0->1"), 3u);
  EXPECT_EQ(recorder.triggers(), 1u);
  EXPECT_EQ(recorder.dumps_written(), 1u);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line,
            "{\"flight\":\"snapshot\",\"reason\":\"link_fault 0->1\",\"t\":13,"
            "\"seq\":1,\"entries\":3}");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"span\":\"attempt\""), std::string::npos);
  EXPECT_NE(line.find("\"request\":42"), std::string::npos);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"span\":\"decision\""), std::string::npos);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line,
            "{\"flight\":\"event\",\"t\":12.5,\"kind\":\"link_down\","
            "\"detail\":\"r0->r1\"}");
  EXPECT_FALSE(std::getline(lines, line));

  // The ring is not cleared by a trigger: a second one sees the same window.
  out.str("");
  EXPECT_EQ(recorder.trigger(14.0, "again"), 3u);
  EXPECT_NE(out.str().find("\"seq\":2"), std::string::npos);
}

TEST(FlightRecorder, SuppressesDumpsWithoutOutputOrPastTheCap) {
  FlightRecorder recorder(FlightRecorderOptions{8, 2});
  recorder.note(1.0, "noted", "x");
  // No output attached: the trigger counts but writes nothing.
  EXPECT_EQ(recorder.trigger(1.0, "early"), 0u);
  EXPECT_EQ(recorder.triggers(), 1u);
  EXPECT_EQ(recorder.dumps_written(), 0u);

  std::ostringstream out;
  recorder.set_output(&out);
  EXPECT_EQ(recorder.trigger(2.0, "first"), 1u);
  EXPECT_EQ(recorder.trigger(3.0, "second"), 1u);
  // max_dumps = 2 exhausted: later triggers only count.
  EXPECT_EQ(recorder.trigger(4.0, "third"), 0u);
  EXPECT_EQ(recorder.triggers(), 4u);
  EXPECT_EQ(recorder.dumps_written(), 2u);
  EXPECT_EQ(out.str().find("third"), std::string::npos);
}

TEST(FlightRecorder, ClearDropsEntriesButKeepsCounters) {
  FlightRecorder recorder(FlightRecorderOptions{2, 16});
  recorder.note(1.0, "a", "");
  recorder.note(2.0, "b", "");
  recorder.note(3.0, "c", "");  // wraps
  std::ostringstream out;
  recorder.set_output(&out);
  EXPECT_EQ(recorder.trigger(3.0, "full"), 2u);

  recorder.clear();
  EXPECT_EQ(recorder.entries(), 0u);
  out.str("");
  EXPECT_EQ(recorder.trigger(4.0, "empty"), 0u);  // header-only snapshot
  EXPECT_NE(out.str().find("\"entries\":0"), std::string::npos);
  EXPECT_EQ(recorder.triggers(), 2u);
  EXPECT_EQ(recorder.dumps_written(), 2u);
  // Post-clear pushes start a fresh ring (no stale rotation).
  recorder.note(5.0, "d", "");
  out.str("");
  EXPECT_EQ(recorder.trigger(5.0, "fresh"), 1u);
  EXPECT_EQ(recorder.triggers(), 3u);
  EXPECT_EQ(recorder.dumps_written(), 3u);
  EXPECT_NE(out.str().find("\"kind\":\"d\""), std::string::npos);
}

TEST(FlightRecorder, FlowNoteRendersWhatTheEagerFormatterWrote) {
  constexpr std::uint64_t kLargeFlow = std::numeric_limits<std::uint64_t>::max();
  FlightRecorder recorder;
  flow_note(recorder, 2.5, kLargeFlow, 3, net::kInvalidNode, 0, 64000.0, 7);  // dst=-
  flow_note(recorder, 3.25, 12, 4, 9, 2, 1234.5, 0);   // %.0f rounds half to even
  flow_note(recorder, 4.0, 13, 5, 0, 1, 1235.5, 1);    // ... both ways
  flow_note(recorder, 5.0, 14, 6, 8, 3, 99.75, 12);
  std::ostringstream out;
  recorder.set_output(&out);
  ASSERT_EQ(recorder.trigger(6.0, "golden"), 4u);

  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[1],
            "{\"flight\":\"event\",\"t\":2.5,\"kind\":\"DROPPED\",\"detail\":"
            "\"flow=18446744073709551615 src=3 dst=- attempts=0 bw_bps=64000 active=7\"}");
  EXPECT_EQ(lines[2],
            "{\"flight\":\"event\",\"t\":3.25,\"kind\":\"DROPPED\",\"detail\":"
            "\"flow=12 src=4 dst=9 attempts=2 bw_bps=1234 active=0\"}");
  EXPECT_EQ(lines[3],
            "{\"flight\":\"event\",\"t\":4,\"kind\":\"DROPPED\",\"detail\":"
            "\"flow=13 src=5 dst=0 attempts=1 bw_bps=1236 active=1\"}");
  EXPECT_EQ(lines[4],
            "{\"flight\":\"event\",\"t\":5,\"kind\":\"DROPPED\",\"detail\":"
            "\"flow=14 src=6 dst=8 attempts=3 bw_bps=100 active=12\"}");
  // Byte for byte what the eager formatter produced for the same events.
  EXPECT_NE(lines[1].find(eager_flow_detail(kLargeFlow, 3, net::kInvalidNode, 0, 64000.0, 7)),
            std::string::npos);
  EXPECT_NE(lines[2].find(eager_flow_detail(12, 4, 9, 2, 1234.5, 0)), std::string::npos);
  EXPECT_NE(lines[3].find(eager_flow_detail(13, 5, 0, 1, 1235.5, 1)), std::string::npos);
  EXPECT_NE(lines[4].find(eager_flow_detail(14, 6, 8, 3, 99.75, 12)), std::string::npos);
}

TEST(FlightRecorder, OverlappingDumpsRenderEachEntryOnce) {
  FlightRecorder recorder(FlightRecorderOptions{4, 16});
  recorder.span_sink().on_attempt(attempt_span(1));
  recorder.span_sink().on_decision(decision_span(1));
  recorder.note(1.0, "a", "first");
  recorder.note(2.0, "b", "second");
  std::ostringstream out;
  recorder.set_output(&out);
  ASSERT_EQ(recorder.trigger(2.0, "one"), 4u);
  EXPECT_EQ(recorder.lines_rendered(), 4u);
  const std::vector<std::string> first = lines_of(out.str());

  // Overwrites the oldest slot (the attempt span); the other three keep
  // their lines.
  recorder.note(3.0, "c", "third");
  out.str("");
  ASSERT_EQ(recorder.trigger(3.0, "two"), 4u);
  EXPECT_EQ(recorder.lines_rendered(), 5u);
  const std::vector<std::string> second = lines_of(out.str());
  ASSERT_EQ(first.size(), 5u);
  ASSERT_EQ(second.size(), 5u);
  EXPECT_EQ(second[1], first[2]);
  EXPECT_EQ(second[2], first[3]);
  EXPECT_EQ(second[3], first[4]);
  EXPECT_EQ(second[4],
            "{\"flight\":\"event\",\"t\":3,\"kind\":\"c\",\"detail\":\"third\"}");

  // A third dump over an unchanged ring renders nothing new.
  out.str("");
  ASSERT_EQ(recorder.trigger(4.0, "three"), 4u);
  EXPECT_EQ(recorder.lines_rendered(), 5u);
  EXPECT_EQ(lines_of(out.str())[4], second[4]);
}

TEST(FlightRecorder, ClearAfterADumpLeavesNoStaleLine) {
  FlightRecorder recorder(FlightRecorderOptions{2, 16});
  recorder.note(1.0, "old", "stale");
  recorder.note(2.0, "old", "stale too");
  std::ostringstream out;
  recorder.set_output(&out);
  ASSERT_EQ(recorder.trigger(2.0, "before"), 2u);

  recorder.clear();
  recorder.note(3.0, "new", "fresh");  // reuses the slot "stale" was rendered in
  out.str("");
  ASSERT_EQ(recorder.trigger(3.0, "after"), 1u);
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1],
            "{\"flight\":\"event\",\"t\":3,\"kind\":\"new\",\"detail\":\"fresh\"}");
  EXPECT_EQ(out.str().find("stale"), std::string::npos);
}

TEST(FlightRecorder, TriggerPastTheCapOnlyCounts) {
  FlightRecorder recorder(FlightRecorderOptions{8, 1});
  recorder.note(1.0, "noted", "x");
  std::ostringstream out;
  recorder.set_output(&out);
  ASSERT_EQ(recorder.trigger(1.0, "first"), 1u);
  const std::string written = out.str();
  const std::uint64_t rendered = recorder.lines_rendered();

  recorder.note(2.0, "noted", "y");
  bool reason_built = false;
  EXPECT_EQ(recorder.trigger(2.0,
                             [&](std::string& reason) {
                               reason_built = true;
                               reason += "late";
                             }),
            0u);
  EXPECT_FALSE(reason_built);
  EXPECT_EQ(recorder.triggers(), 2u);
  EXPECT_EQ(recorder.dumps_written(), 1u);
  EXPECT_EQ(recorder.lines_rendered(), rendered);
  EXPECT_EQ(out.str(), written);
}

TEST(FlightRecorder, LazyReasonIsWrittenIntoTheHeader) {
  FlightRecorder recorder;
  const NoteField fields[] = {NoteField::number("dst", 4), NoteField::number("hops", 2),
                              NoteField::number("retransmits", 3)};
  recorder.note(7.0, "retransmit_exhaustion", fields);
  std::ostringstream out;
  recorder.set_output(&out);
  ASSERT_EQ(recorder.trigger(7.0,
                             [&](std::string& reason) {
                               reason += "retransmit_exhaustion ";
                               append_note_detail(reason, fields);
                             }),
            1u);
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "{\"flight\":\"snapshot\",\"reason\":\"retransmit_exhaustion dst=4 hops=2 "
            "retransmits=3\",\"t\":7,\"seq\":1,\"entries\":1}");
  EXPECT_EQ(lines[1],
            "{\"flight\":\"event\",\"t\":7,\"kind\":\"retransmit_exhaustion\","
            "\"detail\":\"dst=4 hops=2 retransmits=3\"}");
}

TEST(FlightRecorder, RejectsANoteWithTooManyFields) {
  FlightRecorder recorder;
  std::vector<NoteField> fields(FlightRecorder::kMaxNoteFields + 1, NoteField::number("n", 1));
  EXPECT_THROW(recorder.note(1.0, "wide", fields), std::invalid_argument);
  EXPECT_EQ(recorder.entries(), 0u);
}

}  // namespace
}  // namespace anyqos::obs
