#ifndef LCAKNAP_SERVE_BATCHER_H
#define LCAKNAP_SERVE_BATCHER_H

#include <chrono>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "serve/request.h"

/// \file batcher.h
/// Micro-batching by item index.
///
/// Every request for the same item has, by Definition 2.3, the same answer:
/// the membership rule is a deterministic function of the shared seed.  The
/// batcher exploits that by holding requests briefly and grouping them per
/// item, so a burst of duplicate hot-key queries costs ONE LCA evaluation
/// (one oracle read) regardless of fan-in.  A batch closes when it reaches
/// `max_batch_size` or when it has lingered `max_linger` since its first
/// request — the classic throughput/latency dial.  Lingering only pays while
/// another request could join, so an engine sweep closes its batches at once
/// (`flush_all`) when they hold every unfinished request in the engine: a
/// lone caller never waits out `max_linger`.
///
/// The batcher carries no locking of its own: the engine hands it, under its
/// mutex, to one sweeping worker at a time, and only that worker calls it.

namespace lcaknap::serve {

struct BatcherConfig {
  /// Batch closes at this many requests.  1 disables grouping.
  std::size_t max_batch_size = 64;
  /// Batch closes this long after its first request.  0 closes every batch
  /// on the next `collect_expired` sweep.  The engine applies it only while
  /// other requests are in flight.
  std::chrono::microseconds max_linger{200};
};

/// A closed group of same-item requests, evaluated as one unit.
struct Batch {
  std::size_t item = 0;
  Clock::time_point opened_at{};
  std::vector<Request> requests;
};

class Batcher {
 public:
  explicit Batcher(const BatcherConfig& config);

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Files `request` under its item; appends to `ready` any batch this
  /// closes (a full one for this item).
  void add(Request&& request, Clock::time_point now, std::vector<Batch>& ready);

  /// Closes every open batch whose linger window has passed.
  void collect_expired(Clock::time_point now, std::vector<Batch>& ready);

  /// Closes every open batch regardless of age (drain path).
  void flush_all(std::vector<Batch>& ready);

  /// Requests currently held in open batches.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] const BatcherConfig& config() const noexcept { return config_; }

 private:
  BatcherConfig config_;
  std::unordered_map<std::size_t, Batch> open_;  // item -> open batch
  std::size_t pending_ = 0;
};

}  // namespace lcaknap::serve

#endif  // LCAKNAP_SERVE_BATCHER_H
