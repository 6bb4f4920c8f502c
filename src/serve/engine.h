#ifndef LCAKNAP_SERVE_ENGINE_H
#define LCAKNAP_SERVE_ENGINE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cert/cert_log.h"
#include "core/lca_kp.h"
#include "metrics/metrics.h"
#include "serve/answer_cache.h"
#include "serve/batcher.h"
#include "util/virtual_clock.h"

/// \file engine.h
/// The concurrent serving engine: bounded queue → batcher → workers → cache.
///
/// This engine is the request path the paper's model promises is possible:
/// per-query work independent of n and of the query interleaving.  One
/// warm-up pipeline execution happens at construction (the Theorem 4.1
/// one-time cost); afterwards every admitted
/// request is answered from the shared `LcaKpRun` — a read-only membership
/// rule all workers consult concurrently, which is exactly the shared-seed
/// replica of Definition 2.3.
///
/// Request lifecycle:
///   submit() ── admission ──> bounded queue (full or drained ⇒ kOverloaded)
///   a free worker, which first takes a closed dispatch group if one waits,
///   else sweeps:
///            ── sweep ──────> Batcher (group by item; close on size or
///                             linger; a sweep that holds every unfinished
///                             request, with no batch open, closes at once);
///                             the closed batches are cut into dispatch
///                             groups, the sweeper keeps one and wakes one
///                             idle worker per group left over
///            ── evaluate ───> execute_batch_group, once per dispatch group
///                             of batches (a group of one is just a group):
///                             one shard-grouped AnswerCache get → the
///                             misses through `core::BatchEval` (one oracle
///                             read per miss, classified by LcaKp's own
///                             lines 20-24) → one cache put → complete
///                             every request
/// Any worker may answer any request: every answer is a function of the
/// shared seed and the item alone (Definition 2.3), so a request changes
/// threads only on its way in and, through its callback, on its way out.
/// One engine mutex guards the queue and the closed groups and hands the
/// batcher to one sweeping worker at a time, which batches with the mutex
/// released; no completion callback runs while it is held.  While a batch
/// is open, exactly one idle worker polls its linger; an idle engine sleeps.
/// Deadlines are checked at the sweep and again at evaluation; expired
/// requests are shed with kDeadlineExceeded.  `drain()` closes admission,
/// flushes the batcher, and completes every in-flight request — an admitted
/// request is never lost.
///
/// Metrics (see docs/OBSERVABILITY.md): `serve_requests_total{outcome}`,
/// `serve_batch_size`, `serve_request_latency_us`, `serve_queue_depth`,
/// `warmup_duration_us`, `warmup_threads`, `serve_epoch`, the
/// `serve_cache_*` families owned by `AnswerCache`, and — with `certify` on
/// — the `cert_*` writer families owned by `cert::CertLog`.
///
/// **Epochs (dynamic instances, src/dyn).**  The warm state, the algorithm
/// over the epoch's instance, and the certificate log it certifies against
/// form one immutable *epoch snapshot*.  Workers capture the snapshot once
/// per dispatch group (a `shared_ptr` load; readers never block), so an
/// `advance_epoch` concurrent with traffic is linearizable per request: a
/// request evaluates entirely under epoch N or entirely under N+1, never a
/// mix, and `Response::epoch_id` attributes which.  The answer cache is
/// epoch-scoped by generation (= epoch id): an advance bumps the generation
/// in O(1), a worker still finishing epoch-N work cannot poison the N+1
/// cache, and a stale-generation entry is dropped as a miss — a stale-epoch
/// answer is never served from the cache.

namespace lcaknap::serve {

struct EngineConfig {
  /// Worker threads; each sweeps the queue and evaluates (0 counts as 1).
  std::size_t workers = 4;
  /// Admission bound: requests beyond this backlog are rejected kOverloaded.
  /// A request waits here while every worker is busy, so the engine never
  /// buffers more than this unswept.
  std::size_t queue_capacity = 1024;
  BatcherConfig batcher;
  AnswerCacheConfig cache;
  /// Deadline applied by `submit(item)`; 0 = no deadline (negative values
  /// are honoured as already-expired, which tests use to force shedding).
  std::chrono::microseconds default_deadline{0};
  /// The clock request deadlines are checked against (submission, sweep,
  /// and evaluation all read `clock->now_us()`).  Null means the process
  /// `util::system_clock()`.  Injecting a `util::VirtualClock` makes
  /// deadline shedding deterministic for wire-level timeout tests: a
  /// request expires exactly when the test advances the clock past its
  /// deadline, never because a CI machine stalled.  The clock must outlive
  /// the engine.
  util::Clock* clock = nullptr;
  /// Fresh-randomness tape for the constructor's warm-up pipeline run.
  std::uint64_t warmup_tape_seed = 7;
  /// Threads for the constructor's sharded warm-up (`LcaKp::run_warmup`).
  /// 0 = inherit `LcaKpConfig::warmup_threads` (whose 0 in turn means
  /// hardware concurrency).  Any value yields the same `run()` — the warm-up
  /// draws from per-shard PRF substreams keyed by `warmup_tape_seed`, so
  /// thread count never changes served answers.
  std::size_t warmup_threads = 0;
  /// Graceful degradation: when an evaluation fails because the oracle is
  /// unavailable (retries exhausted, retry budget empty, or circuit breaker
  /// open), answer from the fallback chain instead of reporting kError.
  /// The chain is (1) the AnswerCache — already consulted first, and
  /// authoritative when it hits — then (2) the O(1) warm-state rule:
  /// membership in the run's large-item set, "no" for the small tail (the
  /// trivial-LCA floor of Definition 2.4 applied to unknown items).  The
  /// outcome is labelled kDegraded and the answer is never cached, so a
  /// recovered oracle immediately restores full-quality answers.
  bool degrade = false;
  /// Warm-from-snapshot path: when set, the engine adopts this already-warm
  /// state instead of executing the constructor's warm-up pipeline — the
  /// restart path of docs/PERSISTENCE.md (typically a `store::StateStore`
  /// hydration or `store::read_snapshot`).  The state must come from the
  /// same (instance, shared seed, `warmup_tape_seed`) this engine serves;
  /// snapshot fingerprints enforce that at load time and `core::run_digest`
  /// equality pins served answers byte-identical to a live warm-up (the
  /// round-trip tests and bench_snapshot check both).  The gauge
  /// `warmup_from_snapshot` records which path constructed the engine.
  std::shared_ptr<const core::LcaKpRun> warm_state;
  /// Certified answers (docs/CERTIFICATES.md): when true, every kOk answer
  /// the engine evaluates emits one CRC-sealed `cert::CertRecord` — the item
  /// contents as witnessed, which membership branch fired, the active EPS
  /// threshold index, and the answer — into an append-only, atomically
  /// rotated log under `cert_dir`.  Cache hits certify from the witness
  /// stored in the `AnswerCache` entry, so certification adds zero oracle
  /// reads.  Degraded answers are never certified (they may be below LCA
  /// quality and carry no witness).  `lcaknap_verify_log` replays the log
  /// against a warm-state snapshot offline.
  bool certify = false;
  /// Directory for certificate log segments; must exist when `certify` is
  /// set (the constructor throws `cert::CertIoError` otherwise).
  std::string cert_dir;
  /// Records per certificate segment before atomic rotation; 0 = library
  /// default (`cert::CertLogConfig`).
  std::uint64_t cert_segment_records = 0;
};

/// Point-in-time readout of the engine's own counters plus its cache's.
/// Conservation law (post-drain): submitted == ok + overloaded +
/// deadline_exceeded + degraded + errors.
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t degraded = 0;
  std::uint64_t errors = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;  ///< requests that went through batches
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_invalidations = 0;  ///< generation bumps (epoch advances)
  std::uint64_t paranoia_checks = 0;
  std::uint64_t paranoia_violations = 0;
  std::uint64_t epoch = 0;          ///< current instance epoch (0 = static)
  // Certificate counters aggregate across every epoch's log (one log
  // directory per epoch; see advance_epoch).
  std::uint64_t cert_records = 0;   ///< certificate records written
  std::uint64_t cert_skipped = 0;   ///< kOk answers served uncertified
  std::uint64_t cert_bytes = 0;     ///< certificate log bytes written
  std::uint64_t cert_segments = 0;  ///< certificate segments sealed
};

class ServeEngine {
 public:
  /// Executes the warm-up pipeline run and starts the workers.
  /// `lca` (and the access object behind it) must outlive the engine.
  ServeEngine(const core::LcaKp& lca, const EngineConfig& config,
              metrics::Registry& registry = metrics::global_registry());

  /// Drains (every outstanding request completes) and joins all threads.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Submits a membership query: `callback` is invoked exactly once with
  /// the response (an answer, or an admission/deadline/error outcome), from
  /// whichever engine thread finishes the request (the submitting thread
  /// itself for admission rejections).  The callback must not block or
  /// throw; the network front-end (src/net/) uses it to marshal completions
  /// onto connection write queues without parking a thread per request.
  /// Applies `config().default_deadline` when nonzero.
  void submit(std::size_t item, CompletionCallback callback);
  /// Same, with an explicit per-request deadline (from now).
  void submit(std::size_t item, std::chrono::microseconds deadline,
              CompletionCallback callback);
  /// Future adapters over the callback path: the future always completes.
  [[nodiscard]] std::future<Response> submit(std::size_t item);
  [[nodiscard]] std::future<Response> submit(std::size_t item,
                                             std::chrono::microseconds deadline);
  /// Convenience: submit and block for the response.
  [[nodiscard]] Response submit_wait(std::size_t item);

  /// Stops admission, completes everything already admitted, and joins the
  /// workers.  Subsequent submits are rejected kOverloaded.  Idempotent.
  void drain();

  /// Epoch advance (dynamic instances, src/dyn): atomically replaces the
  /// warm state every subsequent evaluation answers from.  `epoch_id` must
  /// be strictly greater than the current epoch (throws
  /// `std::invalid_argument` otherwise); `lca` is the algorithm over the
  /// *new* instance and `run` its warm state (typically
  /// `dyn::EpochedState::advance`'s output); `keepalive` pins whatever owns
  /// `lca` (instance + oracle access) for as long as any in-flight worker
  /// may still hold the snapshot.  Effects, in order: the answer-cache
  /// generation is bumped to `epoch_id` (O(1); epoch-N entries die lazily,
  /// epoch-N puts are dropped), and — with `certify` on — a new certificate
  /// log opens under `cert_dir/epoch-<id>/` with the epoch-stamped
  /// fingerprint, the previous epoch's log staying owned (and sealed at
  /// drain) so no record is lost.
  /// In-flight requests that captured the old snapshot finish under it and
  /// report the old `Response::epoch_id`; requests dispatched afterwards see
  /// only the new epoch.  Thread-safe against submit/worker traffic;
  /// concurrent advance calls serialize.
  void advance_epoch(std::uint64_t epoch_id, const core::LcaKp& lca,
                     std::shared_ptr<const core::LcaKpRun> run,
                     std::shared_ptr<const void> keepalive = nullptr);
  /// The current instance epoch (0 until the first advance).
  [[nodiscard]] std::uint64_t epoch() const;

  [[nodiscard]] EngineStats stats() const;
  /// The shared membership rule every worker answers from (the *current*
  /// epoch's).  The reference stays valid for the engine's lifetime — past
  /// epochs are retained, not freed — but is a point-in-time read under
  /// concurrent advances.
  [[nodiscard]] const core::LcaKpRun& run() const;
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const AnswerCache& cache() const noexcept { return cache_; }
  /// The current epoch's certificate log writer, or nullptr when `certify`
  /// is off.
  [[nodiscard]] const cert::CertLog* cert_log() const;
  /// Requests admitted but not yet swept into the batcher.
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  /// Everything an evaluation consults, frozen per epoch.  Workers capture
  /// one `shared_ptr<const Epoch>` per dispatch group and never re-read it
  /// mid-request, so an advance can never split a request across epochs.
  struct Epoch {
    std::uint64_t epoch_id = 0;
    const core::LcaKp* lca = nullptr;
    std::shared_ptr<const core::LcaKpRun> run;
    /// This epoch's certificate log (null unless `certify`); kept alive —
    /// and sealed at drain — even after the epoch is superseded.
    std::shared_ptr<cert::CertLog> cert_log;
    /// Index of the active small-item threshold in `run`'s EPS payload.
    std::int32_t cert_threshold_idx = -1;
    /// Pins the objects `lca` points into (instance, oracle access).
    std::shared_ptr<const void> keepalive;
  };

  /// Absolute deadline instant on `clock_` for a relative `deadline`;
  /// negative values land at "now" (already expired).
  [[nodiscard]] std::uint64_t deadline_from(
      std::chrono::microseconds deadline) const;
  /// One worker's reusable buffers (engine.cpp).
  struct WorkerScratch;

  /// The one admission path; completes the request kOverloaded when the
  /// bounded queue is full or closed.
  void admit(std::size_t item, std::uint64_t deadline_us,
             CompletionCallback callback);
  /// Every worker's loop: take a waiting dispatch group, or sweep, or wait.
  void work();
  /// Swaps the queue out and, with `mutex_` released, files it into the
  /// batcher (expired requests go to `scratch.shed`); then publishes what
  /// closed as `closed_batches_` and sets `group_size_`.  Called with
  /// `lock` held; returns the number of groups left for other workers.
  std::size_t sweep(std::unique_lock<std::mutex>& lock, WorkerScratch& scratch);
  /// The one answer path: evaluates `scratch.group` (one or more batches)
  /// with one `get_batch`, one `core::BatchEval` gather+classify over the
  /// misses, and one `put_batch`, then finishes every request.  One
  /// evaluation serves a whole batch: its requests all ask about the same
  /// item, and the answer is a deterministic function of the shared seed
  /// (Definition 2.3).
  void execute_batch_group(WorkerScratch& scratch, const Epoch& snap);
  void finish(Request& request, const Response& response);
  /// Requests finish() has counted, under any outcome.
  [[nodiscard]] std::uint64_t finished_requests() const noexcept;
  /// The O(1) degraded-mode membership rule: no oracle access, answers from
  /// the snapshot's warm run state alone.
  [[nodiscard]] static bool degraded_answer(const Epoch& snap,
                                            std::size_t item) noexcept;
  /// Appends one certificate record for an evaluated kOk answer (no-op
  /// unless the snapshot certifies); the witness comes from the evaluation
  /// or the cache entry, never from an extra oracle read.
  static void certify_answer(const Epoch& snap, std::size_t item, bool large,
                             std::int64_t profit, std::int64_t weight,
                             bool answer) noexcept;
  /// The current epoch snapshot (one mutex-guarded shared_ptr copy).
  [[nodiscard]] std::shared_ptr<const Epoch> snapshot() const;
  /// Builds the per-epoch derived state (the certificate log) over an
  /// adopted warm run; shared by the constructor and advance_epoch.
  [[nodiscard]] std::shared_ptr<const Epoch> make_epoch(
      std::uint64_t epoch_id, const core::LcaKp& lca,
      std::shared_ptr<const core::LcaKpRun> run,
      std::shared_ptr<const void> keepalive, const std::string& cert_dir,
      metrics::Registry& registry);

  const core::LcaKp* lca_;
  EngineConfig config_;
  util::Clock* clock_;
  metrics::Registry* registry_;

  metrics::Counter* requests_ok_;
  metrics::Counter* requests_overloaded_;
  metrics::Counter* requests_deadline_;
  metrics::Counter* requests_degraded_;
  metrics::Counter* requests_error_;
  metrics::Histogram* batch_size_;
  metrics::Histogram* latency_us_;
  metrics::Gauge* queue_depth_gauge_;
  metrics::Histogram* batch_eval_us_ = nullptr;
  metrics::Gauge* epoch_gauge_ = nullptr;

  /// Serializes advance_epoch calls (epoch construction is slow: it opens a
  /// certificate log); never held by the request path.
  std::mutex advance_mutex_;
  /// Guards `epochs_`; held for a shared_ptr copy on capture, never across
  /// an evaluation.
  mutable std::mutex epoch_mutex_;
  /// Every epoch this engine has served, oldest first; back() is current.
  /// Past epochs are retained so `run()` references stay valid and every
  /// epoch's certificate log is sealed at drain.
  std::vector<std::shared_ptr<const Epoch>> epochs_;

  AnswerCache cache_;

  /// Guards everything down to `poller_`, and hands `batcher_` to one
  /// sweeping worker at a time; never held across an evaluation or a
  /// completion callback.
  mutable std::mutex mutex_;
  /// Wakes idle workers: a request was admitted, a group was left over, the
  /// linger poll needs a new owner, or admission closed.
  std::condition_variable work_ready_;
  /// Admitted requests not yet swept, oldest first; at most `capacity_`.
  std::vector<Request> queue_;
  const std::size_t capacity_;
  bool closed_ = false;
  /// A worker is sweeping: it alone touches `batcher_` until this clears.
  bool sweeping_ = false;
  /// Requests in the batcher's open batches as of the last sweep.
  std::size_t open_ = 0;
  /// Batches one sweep closed, taken `group_size_` at a time.  A worker
  /// sweeps only when this is empty, so all of them come from one sweep.
  std::vector<Batch> closed_batches_;
  std::size_t group_size_ = 1;
  /// An idle worker is waiting out the linger poll period.
  bool poller_ = false;
  Batcher batcher_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::once_flag drain_once_;
  std::vector<std::thread> workers_;
};

/// Bucket bounds for `serve_request_latency_us` (end-to-end spans: admission
/// to completion; sub-microsecond cache hits up to long-linger batches).
[[nodiscard]] std::vector<double> serve_latency_buckets();
/// Bucket bounds for `serve_batch_size` (1 .. max fan-in, powers of two).
[[nodiscard]] std::vector<double> serve_batch_size_buckets();

}  // namespace lcaknap::serve

#endif  // LCAKNAP_SERVE_ENGINE_H
