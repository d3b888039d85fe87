#include "src/signaling/resilient.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/util/annotations.h"
#include "src/util/require.h"

namespace anyqos::signaling {

std::string_view to_string(RecoveryKind kind) {
  return kind == RecoveryKind::kOrphanExpiry ? "orphan_expiry" : "retransmit_exhaustion";
}

ResilientReservationProtocol::ResilientReservationProtocol(
    net::BandwidthLedger& ledger, MessageCounter& counter, des::Simulator& simulator,
    des::RandomStream& rng, ResilienceOptions options)
    : ReservationProtocol(ledger, counter),
      simulator_(&simulator),
      cat_orphan_(simulator.category("signaling.orphan")),
      rng_(&rng),
      options_(options),
      plane_(ledger, rng, options.faults) {
  util::require(options.retransmit_timeout_s > 0.0, "retransmit timeout must be positive");
  util::require(options.backoff_factor >= 1.0, "backoff factor must be at least 1");
  util::require(options.backoff_jitter >= 0.0, "backoff jitter must be non-negative");
  util::require(options.orphan_hold_s > 0.0, "orphan hold time must be positive");
}

ResilientReservationProtocol::~ResilientReservationProtocol() {
  // Orphan timers capture `this`; cancel them so a reclaim cannot fire into
  // a destroyed protocol if the simulator keeps running. The bandwidth stays
  // reserved — whoever destroys the protocol mid-run owns that state.
  ANYQOS_DETLINT_ALLOW(unordered_artifact_iteration, "order-insensitive cancel");
  for (auto& [id, orphan] : orphans_) {
    simulator_->cancel(orphan.timer);
  }
}

void ResilientReservationProtocol::count_hops(MessageKind kind, std::uint64_t hops) {
  message_counter().count(kind, hops);
  stats_.hops_counted += hops;
}

void ResilientReservationProtocol::wait_timeout(std::size_t retransmit_index) {
  ++stats_.timeouts;
  double timeout = options_.retransmit_timeout_s *
                   std::pow(options_.backoff_factor, static_cast<double>(retransmit_index));
  if (options_.backoff_jitter > 0.0) {
    timeout *= 1.0 + options_.backoff_jitter * rng_->uniform01();
  }
  pending_wait_s_ += timeout;
}

ReservationResult ResilientReservationProtocol::reserve(const net::Path& route,
                                                        net::Bandwidth bandwidth) {
  util::require(bandwidth > 0.0, "reservation bandwidth must be positive");
  const net::Topology& topology = ledger().topology();
  ReservationResult result;
  std::uint64_t charged = 0;  // hops this decision put on the wire
  const double delay_before = plane_.delay_injected_s();
  // Each iteration is one PATH send: the original plus max_retransmits
  // re-sends, every one a full (attempted) PATH/RESV or PATH/PATH_ERR
  // exchange through the fault plane.
  for (std::size_t send = 0; send <= options_.max_retransmits; ++send) {
    if (send > 0) {
      ++stats_.retransmits;
      ++result.retransmits;
    }
    // Downstream PATH walk: dies on a lost/outaged hop, stops at the first
    // link that cannot admit the flow, or reaches the destination.
    std::uint64_t traversed = 0;
    bool died = false;
    std::optional<net::LinkId> blocked;
    net::Bandwidth bottleneck = std::numeric_limits<net::Bandwidth>::infinity();
    for (const net::LinkId id : route.links) {
      ++traversed;  // the PATH message crosses this link (or dies on it)
      if (plane_.traverse(id) != HopOutcome::kDelivered) {
        died = true;
        break;
      }
      bottleneck = std::min(bottleneck, ledger().available(id));
      if (ledger().available(id) < bandwidth) {
        blocked = id;
        break;
      }
    }
    count_hops(MessageKind::kPath, traversed);
    charged += traversed;
    if (died) {
      // No response will ever come: the source times out and retransmits.
      wait_timeout(send);
      continue;
    }
    // The last walk that completed defines the diagnostic view.
    result.bottleneck_bps = bottleneck;
    result.blocking_link = blocked;
    if (blocked.has_value()) {
      // PATH_ERR unwinds upstream over the links already traversed; if it is
      // lost the source cannot distinguish rejection from loss and must
      // retransmit the PATH.
      std::uint64_t err_hops = 0;
      bool err_died = false;
      for (std::size_t i = traversed; i-- > 0;) {
        ++err_hops;
        if (plane_.traverse(topology.reverse_link(route.links[i])) != HopOutcome::kDelivered) {
          err_died = true;
          break;
        }
      }
      count_hops(MessageKind::kPathErr, err_hops);
      charged += err_hops;
      if (err_died) {
        wait_timeout(send);
        continue;
      }
      result.messages = charged;
      pending_wait_s_ += plane_.delay_injected_s() - delay_before;
      return result;  // definitive rejection
    }
    // Every hop admits the flow: install the reservation, confirm upstream.
    const bool ok = ledger().reserve(route, bandwidth);
    util::ensure(ok, "RESV failed after PATH admitted every hop");
    std::uint64_t resv_hops = 0;
    bool resv_died = false;
    for (std::size_t i = route.links.size(); i-- > 0;) {
      ++resv_hops;
      if (plane_.traverse(topology.reverse_link(route.links[i])) != HopOutcome::kDelivered) {
        resv_died = true;
        break;
      }
    }
    count_hops(MessageKind::kResv, resv_hops);
    charged += resv_hops;
    if (resv_died) {
      // The reservation is installed downstream but the source never learns:
      // orphaned state, reclaimed by soft-state expiry. The source times out
      // and retransmits (against capacity its own orphan now consumes).
      ++stats_.resv_orphans;
      add_orphan(route, bandwidth);
      wait_timeout(send);
      continue;
    }
    result.admitted = true;
    result.messages = charged;
    pending_wait_s_ += plane_.delay_injected_s() - delay_before;
    return result;
  }
  ++stats_.give_ups;
  if (recovery_hook_ != nullptr) {
    RecoveryEvent event;
    event.kind = RecoveryKind::kRetransmitExhaustion;
    event.destination = route.destination;
    event.hops = route.links.size();
    event.retransmits = result.retransmits;
    recovery_hook_(simulator_->now(), event);
  }
  result.messages = charged;
  pending_wait_s_ += plane_.delay_injected_s() - delay_before;
  return result;
}

void ResilientReservationProtocol::teardown(const net::Path& route, net::Bandwidth bandwidth) {
  // TEAR travels downstream; RSVP teardown is unacknowledged, so a lost TEAR
  // is never retransmitted — the leaked reservation waits for soft-state
  // expiry (or for an explicit reclaim_pending()).
  std::uint64_t hops = 0;
  bool died = false;
  for (const net::LinkId id : route.links) {
    ++hops;
    if (plane_.traverse(id) != HopOutcome::kDelivered) {
      died = true;
      break;
    }
  }
  count_hops(MessageKind::kTear, hops);
  if (died) {
    ++stats_.tear_orphans;
    add_orphan(route, bandwidth);
    return;
  }
  ledger().release(route, bandwidth);
}

void ResilientReservationProtocol::add_orphan(const net::Path& route, net::Bandwidth bandwidth) {
  const std::uint64_t id = next_orphan_id_++;
  Orphan orphan;
  orphan.route = route;
  orphan.bandwidth = bandwidth;
  orphan.timer =
      simulator_->schedule_in(options_.orphan_hold_s, cat_orphan_,
                              [this, id] { reclaim_orphan(id, /*expired=*/true); });
  orphans_.emplace(id, std::move(orphan));
}

void ResilientReservationProtocol::reclaim_orphan(std::uint64_t id, bool expired) {
  const auto it = orphans_.find(id);
  util::ensure(it != orphans_.end(), "orphan reclaim fired for an unknown orphan");
  // Soft-state expiry is silent — routers drop the state locally, no TEAR.
  ledger().release(it->second.route, it->second.bandwidth);
  ++stats_.orphans_reclaimed;
  stats_.orphaned_bandwidth_reclaimed_bps += it->second.bandwidth;
  if (expired && recovery_hook_ != nullptr) {
    RecoveryEvent event;
    event.kind = RecoveryKind::kOrphanExpiry;
    event.destination = it->second.route.destination;
    event.hops = it->second.route.links.size();
    event.bandwidth_bps = it->second.bandwidth;
    recovery_hook_(simulator_->now(), event);
  }
  orphans_.erase(it);
}

void ResilientReservationProtocol::on_link_failing(net::LinkId id) {
  // State crossing a dying link vanishes with the link; reclaim now so the
  // ledger's fail_link() precondition (nothing reserved) holds.
  std::vector<std::uint64_t> crossing;
  ANYQOS_DETLINT_ALLOW(unordered_artifact_iteration, "sorted-key extraction");
  for (const auto& [orphan_id, orphan] : orphans_) {
    if (std::find(orphan.route.links.begin(), orphan.route.links.end(), id) !=
        orphan.route.links.end()) {
      crossing.push_back(orphan_id);
    }
  }
  std::sort(crossing.begin(), crossing.end());  // deterministic order
  for (const std::uint64_t orphan_id : crossing) {
    simulator_->cancel(orphans_.at(orphan_id).timer);
    reclaim_orphan(orphan_id, /*expired=*/false);
  }
}

double ResilientReservationProtocol::consume_pending_wait() {
  const double wait = pending_wait_s_;
  pending_wait_s_ = 0.0;
  return wait;
}

net::Bandwidth ResilientReservationProtocol::orphaned_bandwidth_bps() const {
  net::Bandwidth total = 0.0;
  ANYQOS_DETLINT_ALLOW(unordered_artifact_iteration, "order-insensitive sum");
  for (const auto& [id, orphan] : orphans_) {
    total += orphan.bandwidth;
  }
  return total;
}

std::size_t ResilientReservationProtocol::reclaim_pending() {
  std::vector<std::uint64_t> ids;
  ids.reserve(orphans_.size());
  ANYQOS_DETLINT_ALLOW(unordered_artifact_iteration, "sorted-key extraction");
  for (const auto& [id, orphan] : orphans_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const std::uint64_t id : ids) {
    simulator_->cancel(orphans_.at(id).timer);
    reclaim_orphan(id, /*expired=*/false);
  }
  return ids.size();
}

ResilienceStats ResilientReservationProtocol::stats() const {
  ResilienceStats stats = stats_;
  stats.messages_lost = plane_.messages_lost();
  stats.messages_killed_by_outage = plane_.messages_killed_by_outage();
  return stats;
}

}  // namespace anyqos::signaling
