#ifndef LCAKNAP_SERVE_REQUEST_H
#define LCAKNAP_SERVE_REQUEST_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>

/// \file request.h
/// The request vocabulary of the concurrent serving engine (src/serve/).
///
/// The paper's LCA model is a serving contract: independent replicas answer
/// point queries "is item i in the solution?" consistently from a shared
/// seed (Definition 2.3).  The engine makes that contract operational — a
/// request is one membership query travelling queue → batcher → cache on
/// the worker that swept it, and its `Response` reports both the answer and
/// the admission outcome (a production serving path may legitimately say
/// "no capacity" or "too late" instead of an answer; it must never say two
/// different answers for the same item).
///
/// Completion travels back one way: the request's completion callback,
/// invoked exactly once for every submitted request.  The network front-end
/// (`src/net/`) marshals it onto connection write queues; the engine's
/// `std::future<Response>` submit overloads are adapters that fulfil a
/// promise from such a callback.
///
/// Deadlines are *semantic* time and therefore run on the engine's injected
/// `util::Clock` (`EngineConfig::clock`): microsecond instants compared
/// against `clock->now_us()`.  Under a `util::VirtualClock`, wire-level
/// timeout tests advance time explicitly and shedding becomes deterministic
/// instead of wall-clock flaky.  (Queue waits and batch linger remain real
/// time: they are throughput/latency dials, not request semantics.)

namespace lcaknap::serve {

/// Engine-wide monotonic clock; deadlines and linger windows use it.
using Clock = std::chrono::steady_clock;

/// How a request left the engine.
enum class Outcome {
  kOk,                ///< answered (from the cache or a fresh evaluation)
  kOverloaded,        ///< rejected at admission: queue full or engine drained
  kDeadlineExceeded,  ///< shed: its deadline passed before evaluation
  kDegraded,          ///< answered from the degradation chain: the oracle was
                      ///< unavailable (retries exhausted or breaker open) and
                      ///< the engine fell back to its O(1) warm-state rule
  kError,             ///< evaluation failed (e.g. the oracle stayed unavailable)
};

/// Stable label for metrics (`serve_requests_total{outcome=...}`) and logs.
[[nodiscard]] constexpr const char* outcome_name(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kOverloaded: return "overloaded";
    case Outcome::kDeadlineExceeded: return "deadline";
    case Outcome::kDegraded: return "degraded";
    case Outcome::kError: return "error";
  }
  return "unknown";
}

/// What the submitter gets back, exactly once per submitted request.
struct Response {
  Outcome outcome = Outcome::kError;
  bool answer = false;     ///< membership decision; meaningful iff kOk or
                           ///< kDegraded (degraded answers are best-effort:
                           ///< consistent but possibly below LCA quality)
  bool cache_hit = false;  ///< answered from the sharded cache
  /// Instance epoch the answer was derived under (0 for static instances).
  /// Under live updates (src/dyn), a request admitted under epoch N may
  /// legally complete with either epoch's answer across an advance — but
  /// the epoch actually served must be attributed here and in the
  /// certificate record.
  std::uint64_t epoch_id = 0;
};

/// How a completed request reaches its submitter on the callback path.  May
/// be invoked from any engine worker, or from the submitting thread itself
/// for admission rejections; it must not block and must not throw (a
/// throwing callback is swallowed, never allowed to take down a worker).
using CompletionCallback = std::function<void(const Response&)>;

/// One in-flight membership query.
struct Request {
  /// Deadline sentinel: never expires.
  static constexpr std::uint64_t kNoDeadline = UINT64_MAX;

  std::size_t item = 0;
  Clock::time_point enqueued_at{};
  /// Absolute instant on the engine's `util::Clock` (`now_us()` scale) after
  /// which the request is shed with kDeadlineExceeded; `kNoDeadline` means
  /// no deadline.
  std::uint64_t deadline_us = kNoDeadline;
  CompletionCallback callback;

  [[nodiscard]] bool expired(std::uint64_t now_us) const noexcept {
    return deadline_us <= now_us;
  }
};

}  // namespace lcaknap::serve

#endif  // LCAKNAP_SERVE_REQUEST_H
