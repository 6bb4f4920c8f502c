#ifndef LCAKNAP_STORE_STATE_STORE_H
#define LCAKNAP_STORE_STATE_STORE_H

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/lca_kp.h"
#include "metrics/metrics.h"
#include "store/snapshot.h"

/// \file state_store.h
/// Multi-tenant warm-state store: many `(L(Ĩ), EPS)` instances, one process.
///
/// `ServeEngine` holds exactly one warm instance; a real serving process
/// hosts many tenants, each with its own instance, seed, and warm-up tape.
/// `StateStore` manages those warm states by instance id:
///
///  * **capacity-bounded LRU** of in-memory warm runs — the memory bound is
///    the number of simultaneously-warm tenants, not request volume;
///  * **miss path** that first tries to rehydrate from the snapshot
///    directory (fingerprint- and CRC-verified; any rejection is counted
///    and the snapshot is *never* served) and otherwise falls back to a
///    live warm-up, persisting the result for the next process;
///  * **single-flight** hydration — concurrent requests for a cold
///    instance trigger exactly one warm-up; every other caller waits for
///    and shares that result (Lemma 4.9 makes sharing sound: the state is
///    a pure function of the tenant's seed and tape, so there is nothing
///    request-specific to recompute);
///  * `store_*` metrics: hits/misses/evictions, hydrations by source,
///    snapshot load/save/warm-up latency, and rejections by reason
///    (see docs/OBSERVABILITY.md and docs/PERSISTENCE.md).
///
/// Thread-safe.  The returned runs are shared and immutable — exactly the
/// read-only state the engine's workers already consume concurrently.

namespace lcaknap::store {

struct StateStoreConfig {
  /// Maximum warm states held in memory; beyond it, least-recently-used
  /// tenants are evicted (their snapshots, if any, stay on disk).
  std::size_t capacity = 8;
  /// Snapshot directory; empty disables persistence (memory-only store).
  std::string snapshot_dir;
  /// Persist a freshly warmed state to `snapshot_dir` so the next process
  /// (or the next eviction victim) rehydrates instead of re-warming.
  bool persist_after_warmup = true;
  /// Threads for live warm-ups (0 = the tenant LcaKp's own config).
  std::size_t warmup_threads = 0;
};

/// Point-in-time counters (also exported as `store_*` metric families).
struct StateStoreStats {
  std::uint64_t hits = 0;        ///< get() served from the in-memory LRU
  std::uint64_t misses = 0;      ///< get() that had to hydrate
  std::uint64_t coalesced = 0;   ///< get() that waited on another's hydration
  std::uint64_t evictions = 0;   ///< warm states dropped by the LRU bound
  std::uint64_t snapshot_hydrations = 0;  ///< misses served from a snapshot
  std::uint64_t live_warmups = 0;         ///< misses served by a live warm-up
  std::uint64_t snapshots_saved = 0;
  std::uint64_t rejected_mismatch = 0;   ///< fingerprint of another context
  std::uint64_t rejected_corrupt = 0;    ///< CRC/magic/version/structure
  std::uint64_t rejected_truncated = 0;
  std::uint64_t rejected_io = 0;         ///< unreadable / failed save
};

class StateStore {
 public:
  explicit StateStore(StateStoreConfig config,
                      metrics::Registry& registry = metrics::global_registry());

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// The warm state for tenant `id`, hydrating it if cold.  `lca` is the
  /// tenant's configured algorithm (it must outlive the call, not the
  /// store); `tape_seed` is the warm-up tape of Theorem 4.1's one-time run.
  /// The (id -> lca, tape_seed) binding is the caller's contract: the store
  /// verifies snapshots against `fingerprint_of(lca, tape_seed)`, so a
  /// stale or foreign snapshot under this id is rejected and re-warmed,
  /// never served.  Throws only what the tenant's oracle throws (snapshot
  /// failures fall back to live warm-up); `id` must pass `util::valid_id`,
  /// 1-64 bytes of [A-Za-z0-9._-] (it names the snapshot file), or the call
  /// throws std::invalid_argument.
  [[nodiscard]] std::shared_ptr<const core::LcaKpRun> get(
      const std::string& id, const core::LcaKp& lca, std::uint64_t tape_seed);

  /// Whether `id` is currently warm in memory (does not touch LRU order).
  [[nodiscard]] bool contains(const std::string& id) const;
  /// Warm states currently in memory.
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] StateStoreStats stats() const;
  [[nodiscard]] const StateStoreConfig& config() const noexcept {
    return config_;
  }
  /// Where `id`'s snapshot lives (valid even with persistence disabled);
  /// `store::snapshot_path` of the configured directory.
  [[nodiscard]] std::string snapshot_path(const std::string& id) const;

 private:
  struct Flight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const core::LcaKpRun> result;
    std::exception_ptr error;
  };
  struct Entry {
    std::string id;
    std::shared_ptr<const core::LcaKpRun> run;
  };

  /// The miss path, run outside `mutex_` by exactly one caller per cold id.
  [[nodiscard]] std::shared_ptr<const core::LcaKpRun> hydrate(
      const std::string& id, const core::LcaKp& lca, std::uint64_t tape_seed);
  void insert_and_evict(const std::string& id,
                        std::shared_ptr<const core::LcaKpRun> run);
  void count_rejection(const SnapshotError& error);

  StateStoreConfig config_;

  metrics::Counter* hits_;
  metrics::Counter* misses_;
  metrics::Counter* coalesced_;
  metrics::Counter* evictions_;
  metrics::Counter* hydrations_snapshot_;
  metrics::Counter* hydrations_warmup_;
  metrics::Counter* snapshots_saved_;
  metrics::Counter* rejected_mismatch_;
  metrics::Counter* rejected_corrupt_;
  metrics::Counter* rejected_truncated_;
  metrics::Counter* rejected_io_;
  metrics::Histogram* load_us_;
  metrics::Histogram* save_us_;
  metrics::Histogram* warmup_us_;
  metrics::Gauge* entries_;

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> by_id_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> inflight_;
  StateStoreStats stats_;
};

}  // namespace lcaknap::store

#endif  // LCAKNAP_STORE_STATE_STORE_H
