#ifndef TASTI_SERVE_DEADLINE_H_
#define TASTI_SERVE_DEADLINE_H_

/// \file deadline.h
/// Per-query deadlines and cancellation for the serving stack.
///
/// A Deadline is a copyable token whose copies share one budget; it rides
/// on the query through every phase (admission, proxy scoring, oracle
/// sampling) so any layer can ask "is there time left?" and stop early
/// with whatever it has. Two accounting modes exist:
///
///  - wall mode (WallAfter): remaining time is measured against a
///    steady_clock anchor — production semantics;
///  - virtual mode (VirtualBudget): time only advances via explicit
///    Charge() calls, so tests and deterministic serving replay the exact
///    same expiry point regardless of host speed or thread interleaving.
///
/// DeadlineOracle is the enforcement point on the oracle path: it rejects
/// calls once the deadline is exhausted (without consulting the inner
/// labeler) and, in virtual mode, charges a flat per-call cost. Charging a
/// fixed cost per *logical* call — rather than the measured latency of
/// whichever request physically hit the oracle — keeps expiry independent
/// of scheduler cache/dedup interleavings, which is what makes degraded
/// answers bit-reproducible.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "labeler/labeler.h"
#include "util/status.h"

namespace tasti::serve {

/// How much of its statistical guarantee a response retained.
enum class GuaranteeLevel {
  /// Full guarantee: the algorithm ran to its configured target.
  kFull = 0,
  /// Reduced: the deadline cut sampling short; the interval/threshold is
  /// honest for the samples taken but wider/weaker than requested.
  kReduced = 1,
};

/// Short stable name for logs and exposition labels.
const char* GuaranteeLevelName(GuaranteeLevel level);

/// Copyable deadline/cancellation token; copies share the same state.
/// A default-constructed Deadline is unbounded and never expires, so
/// plumbing it through options structs costs nothing when unused.
/// Thread-safe: all state is atomic.
class Deadline {
 public:
  Deadline() = default;

  /// Never expires (same as a default-constructed token).
  static Deadline Unbounded();
  /// Expires `budget_ms` of wall time after this call.
  static Deadline WallAfter(double budget_ms);
  /// Expires after Charge() calls accumulate `budget_ms` of virtual time.
  static Deadline VirtualBudget(double budget_ms);

  bool unbounded() const { return state_ == nullptr; }
  /// Total budget in ms; +inf when unbounded.
  double budget_ms() const;

  /// Advances virtual time by `ms`. No-op on unbounded or wall deadlines.
  void Charge(double ms);

  /// Time consumed so far: charged virtual ms, or wall ms since creation.
  double spent_ms() const;
  /// Budget remaining; +inf when unbounded, clamped at 0 once expired.
  double remaining_ms() const;
  /// True once spent_ms() has reached the budget.
  bool expired() const;

  /// Cooperative cancellation, observed at the same phase boundaries as
  /// expiry. Sticky; no-op on an unbounded token.
  void Cancel();
  bool cancelled() const;

  /// True when work should stop: cancelled or expired.
  bool exhausted() const { return cancelled() || expired(); }

  /// How many of `calls` back-to-back calls, each charging `ms_per_call`
  /// after it returns, would start before the token is exhausted: none
  /// once exhausted, all of them on an unbounded token or when the calls
  /// charge nothing (a wall deadline, or `ms_per_call` <= 0), otherwise
  /// exactly as many as a loop of exhausted() checks and Charge() calls
  /// would let through.
  size_t AdmittedCalls(size_t calls, double ms_per_call) const;

 private:
  struct State {
    bool virtual_time = false;
    double budget_ms = 0.0;
    std::chrono::steady_clock::time_point start;
    std::atomic<int64_t> spent_us{0};
    std::atomic<bool> cancelled{false};
  };

  std::shared_ptr<State> state_;
};

/// FallibleLabeler wrapper enforcing a Deadline on the oracle path.
///
/// Sits at the top of the per-query oracle chain (above caching and the
/// shared scheduler). Once the deadline is exhausted every call is
/// rejected with DeadlineExceeded *without* reaching the inner labeler —
/// rejected calls are counted here but never attributed as oracle cost.
/// The remaining budget is forwarded to the inner chain via
/// TryLabelWithin so retry backoff (ResilientLabeler) can cap itself.
///
/// A batch is checked once, at its start: the prefix the deadline admits
/// (Deadline::AdmittedCalls at the per-call charge) goes to the inner
/// chain as one batch carrying the remaining budget, and the rejected
/// tail gets no result at all. In virtual mode the prefix is exactly the
/// calls a one-at-a-time loop would have forwarded.
class DeadlineOracle : public labeler::FallibleLabeler {
 public:
  /// `virtual_ms_per_call` > 0 charges that flat cost per forwarded call
  /// (virtual-mode accounting); 0 leaves charging to wall time.
  DeadlineOracle(labeler::FallibleLabeler* inner, Deadline deadline,
                 double virtual_ms_per_call = 0.0);

  Result<data::LabelerOutput> TryLabel(size_t index) override;
  Result<data::LabelerOutput> TryLabelWithin(size_t index,
                                             double budget_ms) override;
  /// Results for the admitted prefix only; see the class comment.
  std::vector<Result<data::LabelerOutput>> TryLabelBatch(
      const std::vector<size_t>& indices) override;
  std::vector<Result<data::LabelerOutput>> TryLabelBatchWithin(
      const std::vector<size_t>& indices, double budget_ms) override;
  size_t num_records() const override { return inner_->num_records(); }
  size_t invocations() const override { return inner_->invocations(); }
  void ResetInvocations() override { inner_->ResetInvocations(); }
  double last_call_latency_ms() const override {
    return inner_->last_call_latency_ms();
  }

  const Deadline& deadline() const { return deadline_; }
  /// Calls rejected because the deadline was already exhausted.
  size_t rejected_calls() const { return rejected_; }
  /// Calls forwarded to the inner labeler.
  size_t forwarded_calls() const { return forwarded_; }

 private:
  labeler::FallibleLabeler* inner_;
  Deadline deadline_;
  double virtual_ms_per_call_;
  size_t rejected_ = 0;
  size_t forwarded_ = 0;
};

}  // namespace tasti::serve

#endif  // TASTI_SERVE_DEADLINE_H_
