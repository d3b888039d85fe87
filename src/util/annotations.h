// In-tree annotations consumed by tools/detlint (see DESIGN.md §12).
//
// The determinism contract over src/ is machine-enforced: detlint scans the
// tree and fails CI on any unsuppressed finding. Real exceptions exist — the
// ops server's wall-clock /healthz rate is the canonical one — and they are
// documented where they live with ANYQOS_DETLINT_ALLOW(rule, "reason"). The
// macro compiles away to a compile-time check that the reason is non-empty,
// so a suppression can never silently lose its justification.
//
// Usage (same line as the finding, or the line directly above it):
//
//   ANYQOS_DETLINT_ALLOW(wall_clock, "events/s in /healthz is wall-clock by definition");
//   const auto now = std::chrono::steady_clock::now();
//
// Rule identifiers (underscored forms of the detlint rule ids):
//   global_state                  mutable global / function-static state
//   rng_ownership                 RNG engine constructed outside des/random
//   wall_clock                    host clock read in simulation code
//   unordered_artifact_iteration  unordered-container iteration on an
//                                 artifact-writing path
//   hot_path_std_function         std::function in a hot-path file
//
// detlint reports unknown rule ids and unused suppressions as findings of
// their own, so stale ALLOWs cannot accumulate.
#pragma once

// The rule identifier is consumed by detlint, not by the compiler; the
// static_assert only pins the reason to a non-empty string literal.
#define ANYQOS_DETLINT_ALLOW(rule, reason) \
  static_assert((reason)[0] != '\0', "detlint suppression requires a reason")
