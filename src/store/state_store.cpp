#include "store/state_store.h"

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace lcaknap::store {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] bool valid_id(const std::string& id) noexcept {
  if (id.empty()) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

[[nodiscard]] double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since).count();
}

[[nodiscard]] std::vector<double> store_latency_buckets() {
  // 10 us .. ~80 s: snapshot loads land low, cold warm-ups can be seconds.
  return metrics::Histogram::exponential_buckets(10.0, 2.0, 23);
}

}  // namespace

StateStore::StateStore(StateStoreConfig config, metrics::Registry& registry)
    : config_(std::move(config)),
      hits_(&registry.counter("store_hits_total",
                              "StateStore lookups served from the in-memory LRU")),
      misses_(&registry.counter("store_misses_total",
                                "StateStore lookups that had to hydrate")),
      coalesced_(&registry.counter(
          "store_coalesced_waits_total",
          "StateStore lookups that waited on another caller's hydration "
          "(single-flight)")),
      evictions_(&registry.counter("store_evictions_total",
                                   "Warm states evicted by the LRU bound")),
      hydrations_snapshot_(&registry.counter(
          "store_hydrations_total", "Cold instances made warm, by source",
          {{"source", "snapshot"}})),
      hydrations_warmup_(&registry.counter(
          "store_hydrations_total", "Cold instances made warm, by source",
          {{"source", "warmup"}})),
      snapshots_saved_(&registry.counter(
          "store_snapshots_saved_total",
          "Warm states persisted to the snapshot directory")),
      rejected_mismatch_(&registry.counter(
          "store_snapshot_rejected_total",
          "Snapshots refused at load, by reason (never served)",
          {{"reason", "mismatch"}})),
      rejected_corrupt_(&registry.counter(
          "store_snapshot_rejected_total",
          "Snapshots refused at load, by reason (never served)",
          {{"reason", "corrupt"}})),
      rejected_truncated_(&registry.counter(
          "store_snapshot_rejected_total",
          "Snapshots refused at load, by reason (never served)",
          {{"reason", "truncated"}})),
      rejected_io_(&registry.counter(
          "store_snapshot_rejected_total",
          "Snapshots refused at load, by reason (never served)",
          {{"reason", "io"}})),
      load_us_(&registry.histogram("store_snapshot_load_us",
                                   "Snapshot read+verify+decode latency",
                                   store_latency_buckets())),
      save_us_(&registry.histogram("store_snapshot_save_us",
                                   "Snapshot encode+write+rename latency",
                                   store_latency_buckets())),
      warmup_us_(&registry.histogram("store_warmup_us",
                                     "Live warm-up latency on the miss path",
                                     store_latency_buckets())),
      entries_(&registry.gauge("store_entries",
                               "Warm states currently held in memory")) {
  if (config_.capacity == 0) {
    throw std::invalid_argument("StateStore: capacity must be positive");
  }
}

std::string StateStore::snapshot_path(const std::string& id) const {
  const std::string dir =
      config_.snapshot_dir.empty() ? std::string(".") : config_.snapshot_dir;
  return dir + "/" + id + ".snap";
}

std::shared_ptr<const core::LcaKpRun> StateStore::get(const std::string& id,
                                                      const core::LcaKp& lca,
                                                      std::uint64_t tape_seed) {
  if (!valid_id(id)) {
    throw std::invalid_argument(
        "StateStore: instance id must be non-empty [A-Za-z0-9._-]: '" + id +
        "'");
  }
  std::shared_ptr<Flight> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = by_id_.find(id); it != by_id_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      hits_->inc();
      return it->second->run;
    }
    if (const auto fit = inflight_.find(id); fit != inflight_.end()) {
      flight = fit->second;
      ++stats_.coalesced;
      coalesced_->inc();
    } else {
      flight = std::make_shared<Flight>();
      inflight_.emplace(id, flight);
      owner = true;
      ++stats_.misses;
      misses_->inc();
    }
  }

  if (!owner) {
    std::unique_lock<std::mutex> lock(flight->mutex);
    flight->cv.wait(lock, [&flight] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->result;
  }

  // Single-flight owner: hydrate outside the store lock so a slow warm-up
  // never blocks hits on other (warm) tenants.
  std::shared_ptr<const core::LcaKpRun> run;
  try {
    run = hydrate(id, lca, tape_seed);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(id);
    }
    {
      std::lock_guard<std::mutex> lock(flight->mutex);
      flight->error = std::current_exception();
      flight->done = true;
    }
    flight->cv.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    insert_and_evict(id, run);
    inflight_.erase(id);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    flight->result = run;
    flight->done = true;
  }
  flight->cv.notify_all();
  return run;
}

std::shared_ptr<const core::LcaKpRun> StateStore::hydrate(
    const std::string& id, const core::LcaKp& lca, std::uint64_t tape_seed) {
  const SnapshotFingerprint expected = fingerprint_of(lca, tape_seed);
  const bool persist = !config_.snapshot_dir.empty();
  std::error_code ec;
  // A missing file is the normal cold-start path, not a rejection; only an
  // *existing* snapshot that fails verification is worth an operator's alarm.
  if (persist && std::filesystem::exists(snapshot_path(id), ec) && !ec) {
    const auto load_start = Clock::now();
    try {
      auto run = std::make_shared<core::LcaKpRun>(
          read_snapshot(snapshot_path(id), &expected));
      load_us_->observe(elapsed_us(load_start));
      hydrations_snapshot_->inc();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.snapshot_hydrations;
      }
      return run;
    } catch (const SnapshotError& error) {
      // Count the rejection reason so operators see corruption and drift;
      // the snapshot is never served — fall through to live warm-up.
      count_rejection(error);
    }
  }

  const auto warmup_start = Clock::now();
  auto run = std::make_shared<core::LcaKpRun>(
      lca.run_warmup(tape_seed, config_.warmup_threads));
  warmup_us_->observe(elapsed_us(warmup_start));
  hydrations_warmup_->inc();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.live_warmups;
  }

  if (persist && config_.persist_after_warmup) {
    const auto save_start = Clock::now();
    try {
      write_snapshot(snapshot_path(id), expected, *run);
      save_us_->observe(elapsed_us(save_start));
      snapshots_saved_->inc();
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.snapshots_saved;
    } catch (const SnapshotError&) {
      // Persistence is best-effort: a full disk must not fail the request
      // the warm state was just computed for.
      rejected_io_->inc();
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.rejected_io;
    }
  }
  return run;
}

void StateStore::count_rejection(const SnapshotError& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dynamic_cast<const SnapshotMismatch*>(&error) != nullptr) {
    ++stats_.rejected_mismatch;
    rejected_mismatch_->inc();
  } else if (dynamic_cast<const SnapshotTruncated*>(&error) != nullptr) {
    ++stats_.rejected_truncated;
    rejected_truncated_->inc();
  } else if (dynamic_cast<const SnapshotCorrupt*>(&error) != nullptr) {
    ++stats_.rejected_corrupt;
    rejected_corrupt_->inc();
  } else {
    // SnapshotIoError: the file exists but could not be read.
    ++stats_.rejected_io;
    rejected_io_->inc();
  }
}

void StateStore::insert_and_evict(const std::string& id,
                                  std::shared_ptr<const core::LcaKpRun> run) {
  lru_.push_front(Entry{id, std::move(run)});
  by_id_[id] = lru_.begin();
  while (by_id_.size() > config_.capacity) {
    const auto& victim = lru_.back();
    by_id_.erase(victim.id);
    lru_.pop_back();
    ++stats_.evictions;
    evictions_->inc();
  }
  entries_->set(static_cast<double>(by_id_.size()));
}

bool StateStore::contains(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return by_id_.find(id) != by_id_.end();
}

std::size_t StateStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return by_id_.size();
}

StateStoreStats StateStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace lcaknap::store
