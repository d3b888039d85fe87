// Failure-aware RSVP: timeouts, retransmission with backoff, orphan reclaim.
//
// Section 3 notes the fault-free assumption "can be extended to deal with
// the situation when this assumption does not hold"; this is that extension
// for the signaling plane. The resilient protocol runs the same two-pass
// PATH/RESV walk as the base ReservationProtocol, but every hop goes through
// a FaultPlane that may lose, delay, or outage-kill the message. The source
// recovers the way RSVP sources do:
//
//   * A walk that dies in flight (lost PATH, lost PATH_ERR, lost RESV, or a
//     message swallowed by a link outage) produces no response, so the
//     source times out and retransmits with exponential backoff plus jitter,
//     up to a bounded number of retransmissions.
//   * A lost RESV leaves the reservation *installed* but unconfirmed — an
//     orphan. Orphans are reclaimed by soft-state expiry: a des::Simulator
//     timer releases the bandwidth orphan_hold_s later, exactly like routers
//     timing out unrefreshed state.
//   * A lost TEAR leaves a departed flow's bandwidth leaked until the same
//     soft-state expiry reclaims it. (State is path-granular here, so the
//     whole route is reclaimed at once; per-hop partial teardown is below
//     this model's resolution.)
//   * When a link is about to be taken out of service, on_link_failing()
//     immediately reclaims every orphan crossing it — state on a dead link
//     vanishes with the link, and the ledger requires failed links idle.
//
// Every walk — original or retransmitted — is charged to the shared
// MessageCounter at hop granularity, so the paper's overhead metric
// naturally includes the retry traffic. ResilienceStats mirrors the hops
// this protocol contributed, letting tests reconcile the two tallies
// exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/des/random.h"
#include "src/des/simulator.h"
#include "src/signaling/fault_plane.h"
#include "src/signaling/rsvp.h"

namespace anyqos::signaling {

/// Recovery knobs layered on top of the FaultPlane's injection knobs.
struct ResilienceOptions {
  FaultPlaneOptions faults;            ///< what the network does to messages
  double retransmit_timeout_s = 1.0;   ///< wait before the first retransmit
  double backoff_factor = 2.0;         ///< timeout multiplier per retransmit
  double backoff_jitter = 0.1;         ///< uniform extra fraction of timeout
  std::size_t max_retransmits = 3;     ///< re-sends after the original PATH
  /// Soft-state hold time before an orphaned reservation (lost RESV or lost
  /// TEAR) is reclaimed and its bandwidth released.
  double orphan_hold_s = 30.0;
};

/// Control-plane recovery tallies, reconcilable against the MessageCounter.
struct ResilienceStats {
  std::uint64_t timeouts = 0;          ///< source waits that expired unanswered
  std::uint64_t retransmits = 0;       ///< PATH re-sends after a timeout
  std::uint64_t give_ups = 0;          ///< reservations abandoned on budget exhaustion
  std::uint64_t resv_orphans = 0;      ///< reservations orphaned by a lost RESV
  std::uint64_t tear_orphans = 0;      ///< reservations leaked by a lost TEAR
  std::uint64_t orphans_reclaimed = 0; ///< soft-state expiries that released state
  std::uint64_t messages_lost = 0;     ///< hop traversals lost to random loss
  std::uint64_t messages_killed_by_outage = 0;  ///< traversals onto a dead link
  /// Total bandwidth released by orphan reclamation, bit/s summed per event.
  net::Bandwidth orphaned_bandwidth_reclaimed_bps = 0.0;
  /// Hop traversals this protocol charged to the MessageCounter; equals the
  /// counter's total when nothing else (probes, soft-state refreshes) shares
  /// the counter. The exact-reconciliation hook for chaos tests.
  std::uint64_t hops_counted = 0;
};

/// The two diagnosable give-up moments of the recovery machinery.
enum class RecoveryKind : std::uint8_t {
  kRetransmitExhaustion,  ///< a reservation abandoned with its retransmit budget spent
  kOrphanExpiry,          ///< a soft-state timer reclaimed an orphaned reservation
};

/// "retransmit_exhaustion" or "orphan_expiry".
std::string_view to_string(RecoveryKind kind);

/// One give-up moment as raw fields: the recovery hook's payload.
struct RecoveryEvent {
  RecoveryKind kind = RecoveryKind::kRetransmitExhaustion;
  net::NodeId destination = net::kInvalidNode;  ///< the route's destination
  std::size_t hops = 0;                         ///< the route's length
  std::uint64_t retransmits = 0;                ///< kRetransmitExhaustion only
  net::Bandwidth bandwidth_bps = 0.0;           ///< kOrphanExpiry only
};

/// ReservationProtocol with fault injection and timeout/retransmission
/// recovery. Drop-in for the base class anywhere a ReservationProtocol& is
/// taken (AdmissionController, CentralizedController, Simulation).
class ResilientReservationProtocol final : public ReservationProtocol {
 public:
  /// All references must outlive the protocol. `simulator` hosts the orphan
  /// soft-state timers; `rng` drives loss, jitter, and backoff draws.
  ResilientReservationProtocol(net::BandwidthLedger& ledger, MessageCounter& counter,
                               des::Simulator& simulator, des::RandomStream& rng,
                               ResilienceOptions options);
  ~ResilientReservationProtocol() override;

  [[nodiscard]] ReservationResult reserve(const net::Path& route,
                                          net::Bandwidth bandwidth) override;
  void teardown(const net::Path& route, net::Bandwidth bandwidth) override;
  void on_link_failing(net::LinkId id) override;
  [[nodiscard]] double consume_pending_wait() override;

  /// Orphaned reservations still holding bandwidth (reclaim timer pending).
  [[nodiscard]] std::size_t pending_orphans() const { return orphans_.size(); }
  /// Bandwidth currently held by pending orphans, bit/s summed per orphan.
  [[nodiscard]] net::Bandwidth orphaned_bandwidth_bps() const;

  /// Leak repair: releases every pending orphan immediately (cancelling its
  /// timer) and returns how many were reclaimed. A drained run must not
  /// need it: the chaos oracle fails a cell with orphans left at quiescence.
  std::size_t reclaim_pending();

  /// Observer for the two diagnosable give-up moments of the recovery
  /// machinery (see RecoveryEvent). Cancelled-timer reclaims (link
  /// failing, reclaim_pending) are repairs, not expiries, and do not fire
  /// the hook. The simulation wires this to the flight recorder so both
  /// moments trigger a causal snapshot. nullptr detaches.
  using RecoveryHook = std::function<void(double time, const RecoveryEvent& event)>;
  void set_recovery_hook(RecoveryHook hook) { recovery_hook_ = std::move(hook); }

  /// Recovery tallies so far (loss counts folded in from the FaultPlane).
  [[nodiscard]] ResilienceStats stats() const;

  [[nodiscard]] const ResilienceOptions& options() const { return options_; }
  [[nodiscard]] const FaultPlane& fault_plane() const { return plane_; }

 private:
  /// Charges the shared counter and mirrors the contribution into
  /// ResilienceStats::hops_counted; force_teardown() funnels through here
  /// too, so forced fault-drop TEARs stay reconcilable.
  void count_hops(MessageKind kind, std::uint64_t hops) override;
  /// Registers an orphaned (still installed) reservation for reclamation.
  void add_orphan(const net::Path& route, net::Bandwidth bandwidth);
  /// `expired` distinguishes a soft-state timer firing (fires the recovery
  /// hook) from a cancelled-timer repair path (silent).
  void reclaim_orphan(std::uint64_t id, bool expired);
  /// Waits out timeout number `retransmit_index` (0 = original send).
  void wait_timeout(std::size_t retransmit_index);

  struct Orphan {
    net::Path route;
    net::Bandwidth bandwidth = 0.0;
    des::EventHandle timer;
  };

  des::Simulator* simulator_;
  des::EventCategory cat_orphan_;  // "signaling.orphan" kernel tag
  des::RandomStream* rng_;
  ResilienceOptions options_;
  FaultPlane plane_;
  ResilienceStats stats_;
  std::unordered_map<std::uint64_t, Orphan> orphans_;
  std::uint64_t next_orphan_id_ = 1;
  RecoveryHook recovery_hook_;
  double pending_wait_s_ = 0.0;
  double plane_delay_seen_s_ = 0.0;  // FaultPlane delay already drained
};

}  // namespace anyqos::signaling
