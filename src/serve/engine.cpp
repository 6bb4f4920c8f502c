#include "serve/engine.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/batch_eval.h"
#include "store/snapshot.h"
#include "util/rng.h"

namespace lcaknap::serve {

std::vector<double> serve_latency_buckets() {
  // 0.5 us up by factor 2: cache hits land in the bottom buckets, linger-
  // bounded batches mid-range, deadline-scale tails at the top (~0.5 s).
  return metrics::Histogram::exponential_buckets(0.5, 2.0, 20);
}

std::vector<double> serve_batch_size_buckets() {
  return metrics::Histogram::exponential_buckets(1.0, 2.0, 10);
}

ServeEngine::ServeEngine(const core::LcaKp& lca, const EngineConfig& config,
                         metrics::Registry& registry)
    : lca_(&lca),
      config_(config),
      clock_(config.clock != nullptr ? config.clock : &util::system_clock()),
      registry_(&registry),
      requests_ok_(&registry.counter("serve_requests_total",
                                     "Requests finished by the serving engine",
                                     {{"outcome", "ok"}})),
      requests_overloaded_(&registry.counter(
          "serve_requests_total", "Requests finished by the serving engine",
          {{"outcome", "overloaded"}})),
      requests_deadline_(&registry.counter(
          "serve_requests_total", "Requests finished by the serving engine",
          {{"outcome", "deadline"}})),
      requests_degraded_(&registry.counter(
          "serve_requests_total", "Requests finished by the serving engine",
          {{"outcome", "degraded"}})),
      requests_error_(&registry.counter(
          "serve_requests_total", "Requests finished by the serving engine",
          {{"outcome", "error"}})),
      batch_size_(&registry.histogram(
          "serve_batch_size", "Requests grouped into one micro-batch",
          serve_batch_size_buckets())),
      latency_us_(&registry.histogram(
          "serve_request_latency_us",
          "End-to-end request latency in microseconds (admission to completion)",
          serve_latency_buckets())),
      queue_depth_gauge_(&registry.gauge(
          "serve_queue_depth", "Requests waiting in the engine's bounded queue")),
      cache_(config.cache, registry),
      capacity_(std::max<std::size_t>(1, config.queue_capacity)),
      batcher_(config.batcher) {
  // The one-time Theorem 4.1 warm-up; afterwards `run_` is read-only and
  // shared by every worker (Definition 2.3's shared-seed replica).  The
  // sharded warm-up draws from PRF substreams of `warmup_tape_seed`, so the
  // thread count never changes `run_` (Lemma 4.9 consistency is preserved).
  // With `warm_state` set, the warm-up was already paid (by a previous
  // process, persisted as a snapshot) and the engine adopts it — served
  // answers are identical because they are a pure function of this state.
  std::size_t warmup_threads = config.warmup_threads;
  if (warmup_threads == 0) warmup_threads = lca.config().warmup_threads;
  if (warmup_threads == 0) {
    warmup_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const auto warmup_start = Clock::now();
  std::shared_ptr<const core::LcaKpRun> run;
  if (config_.warm_state != nullptr) {
    run = config_.warm_state;
    warmup_threads = 0;  // no warm-up ran; the gauge reflects that
  } else {
    run = std::make_shared<core::LcaKpRun>(
        lca_->run_warmup(config.warmup_tape_seed, warmup_threads));
  }
  const auto warmup_us = std::chrono::duration<double, std::micro>(
                             Clock::now() - warmup_start)
                             .count();
  registry
      .histogram("warmup_duration_us",
                 "Wall time of the one-time warm-up pipeline run in microseconds",
                 metrics::Histogram::exponential_buckets(100.0, 2.0, 20))
      .observe(warmup_us);
  registry
      .gauge("warmup_threads",
             "Threads used by the engine's sharded warm-up")
      .set(static_cast<double>(warmup_threads));
  registry
      .gauge("warmup_from_snapshot",
             "1 when the engine adopted a restored warm state instead of "
             "running the warm-up pipeline")
      .set(config_.warm_state != nullptr ? 1.0 : 0.0);
  batch_eval_us_ = &registry.histogram(
      "serve_batch_eval_us",
      "Wall time of one BatchEval gather+classify over a dispatch group's "
      "cache misses, in microseconds",
      metrics::Histogram::exponential_buckets(0.5, 2.0, 20));
  epoch_gauge_ = &registry.gauge(
      "serve_epoch", "Current instance epoch served (0 = static instance)");
  // Epoch 0: the static-instance snapshot every engine starts on.  Its
  // certificate log lives directly in `cert_dir`; later epochs get
  // `cert_dir/epoch-<id>/` subdirectories.
  epochs_.push_back(
      make_epoch(0, lca, std::move(run), nullptr, config_.cert_dir, registry));
  epoch_gauge_->set(0.0);
  const std::size_t workers = std::max<std::size_t>(1, config_.workers);
  workers_.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) {
      workers_.emplace_back([this] { work(); });
    }
  } catch (...) {
    drain();  // joins the workers that did start
    throw;
  }
}

std::shared_ptr<const ServeEngine::Epoch> ServeEngine::make_epoch(
    std::uint64_t epoch_id, const core::LcaKp& lca,
    std::shared_ptr<const core::LcaKpRun> run,
    std::shared_ptr<const void> keepalive, const std::string& cert_dir,
    metrics::Registry& registry) {
  auto epoch = std::make_shared<Epoch>();
  epoch->epoch_id = epoch_id;
  epoch->lca = &lca;
  epoch->run = std::move(run);
  epoch->keepalive = std::move(keepalive);
  if (config_.certify) {
    // The log header embeds the snapshot fingerprint of THIS serving
    // context (instance + shared seed + resolved params + tape-seed echo +
    // epoch), so the log can only ever be audited against the matching
    // epoch's snapshot.
    cert::CertLogConfig cert_config;
    cert_config.directory = cert_dir;
    if (config_.cert_segment_records > 0) {
      cert_config.max_records_per_segment = config_.cert_segment_records;
    }
    epoch->cert_log = std::make_shared<cert::CertLog>(
        cert_config,
        store::fingerprint_of(lca, config_.warmup_tape_seed, epoch_id),
        registry);
    epoch->cert_threshold_idx = cert::active_threshold_index(*epoch->run);
  }
  return epoch;
}

std::shared_ptr<const ServeEngine::Epoch> ServeEngine::snapshot() const {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  return epochs_.back();
}

void ServeEngine::advance_epoch(std::uint64_t epoch_id, const core::LcaKp& lca,
                                std::shared_ptr<const core::LcaKpRun> run,
                                std::shared_ptr<const void> keepalive) {
  if (run == nullptr) {
    throw std::invalid_argument("ServeEngine::advance_epoch: run is null");
  }
  std::lock_guard<std::mutex> advance_lock(advance_mutex_);
  const std::uint64_t current = snapshot()->epoch_id;
  if (epoch_id <= current) {
    throw std::invalid_argument(
        "ServeEngine::advance_epoch: epoch " + std::to_string(epoch_id) +
        " is not after current epoch " + std::to_string(current));
  }
  std::string cert_dir = config_.cert_dir;
  if (config_.certify) {
    cert_dir += "/epoch-" + std::to_string(epoch_id);
    std::filesystem::create_directories(cert_dir);
  }
  // Build the new snapshot before touching anything the request path sees:
  // traffic keeps flowing under the old epoch while the new certificate log
  // opens.
  auto next = make_epoch(epoch_id, lca, std::move(run), std::move(keepalive),
                         cert_dir, *registry_);
  // Bump the cache generation BEFORE publishing the snapshot.  In the window
  // between the two, old-epoch workers miss (their entries are stale) and
  // new-generation puts from nobody-yet are impossible — conservative, never
  // stale.  The reverse order would let an old-generation hit answer for the
  // already-published new epoch.
  cache_.bump_generation(epoch_id);
  {
    std::lock_guard<std::mutex> lock(epoch_mutex_);
    epochs_.push_back(std::move(next));
  }
  epoch_gauge_->set(static_cast<double>(epoch_id));
}

std::uint64_t ServeEngine::epoch() const { return snapshot()->epoch_id; }

const core::LcaKpRun& ServeEngine::run() const { return *snapshot()->run; }

const cert::CertLog* ServeEngine::cert_log() const {
  return snapshot()->cert_log.get();
}

ServeEngine::~ServeEngine() { drain(); }

void ServeEngine::finish(Request& request, const Response& response) {
  switch (response.outcome) {
    case Outcome::kOk:
      ok_.fetch_add(1, std::memory_order_release);
      requests_ok_->inc();
      break;
    case Outcome::kOverloaded:
      overloaded_.fetch_add(1, std::memory_order_release);
      requests_overloaded_->inc();
      break;
    case Outcome::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_release);
      requests_deadline_->inc();
      break;
    case Outcome::kDegraded:
      degraded_.fetch_add(1, std::memory_order_release);
      requests_degraded_->inc();
      break;
    case Outcome::kError:
      errors_.fetch_add(1, std::memory_order_release);
      requests_error_->inc();
      break;
  }
  latency_us_->observe(std::chrono::duration<double, std::micro>(
                           Clock::now() - request.enqueued_at)
                           .count());
  // Exactly once, and exception-safe: a throwing callback must never take
  // down the worker that ran it.
  try {
    request.callback(response);
  } catch (...) {
  }
}

std::uint64_t ServeEngine::finished_requests() const noexcept {
  // Acquire pairs with finish()'s release increments: a request counted
  // here also has its admission visible in `submitted_`.
  return ok_.load(std::memory_order_acquire) +
         overloaded_.load(std::memory_order_acquire) +
         deadline_exceeded_.load(std::memory_order_acquire) +
         degraded_.load(std::memory_order_acquire) +
         errors_.load(std::memory_order_acquire);
}

std::uint64_t ServeEngine::deadline_from(
    std::chrono::microseconds deadline) const {
  const std::uint64_t now = clock_->now_us();
  // Negative deadlines are honoured as already-expired (tests use them to
  // force shedding); `expired()` is `deadline_us <= now`, so "now" qualifies.
  if (deadline.count() < 0) return now;
  const auto rel = static_cast<std::uint64_t>(deadline.count());
  // Saturate instead of wrapping past kNoDeadline.
  if (rel >= Request::kNoDeadline - now) return Request::kNoDeadline - 1;
  return now + rel;
}

void ServeEngine::admit(std::size_t item, std::uint64_t deadline_us,
                        CompletionCallback callback) {
  Request request;
  request.item = item;
  request.enqueued_at = Clock::now();
  request.deadline_us = deadline_us;
  request.callback = std::move(callback);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  bool admitted = false;
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!closed_ && queue_.size() < capacity_) {
      queue_.push_back(std::move(request));
      admitted = true;
    }
    depth = queue_.size();
  }
  if (admitted && depth == 1) {
    // One wake per sweep, not per request: a queue that was already
    // non-empty has a worker woken for it, or every worker is busy and the
    // first one back sweeps it.
    work_ready_.notify_one();
  } else if (!admitted) {
    // A refused request is still ours; reject it here so every submitted
    // request completes exactly once.
    Response response;
    response.outcome = Outcome::kOverloaded;
    finish(request, response);
  }
  queue_depth_gauge_->set(static_cast<double>(depth));
}

std::size_t ServeEngine::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ServeEngine::submit(std::size_t item, CompletionCallback callback) {
  if (config_.default_deadline.count() != 0) {
    submit(item, config_.default_deadline, std::move(callback));
    return;
  }
  admit(item, Request::kNoDeadline, std::move(callback));
}

void ServeEngine::submit(std::size_t item, std::chrono::microseconds deadline,
                         CompletionCallback callback) {
  admit(item, deadline_from(deadline), std::move(callback));
}

namespace {

/// The future adapter's callback: it owns a heap promise, fulfils it once
/// and frees it.  Capturing one pointer keeps the callable inside
/// std::function's small buffer.
CompletionCallback fulfil(std::promise<Response>* promise) {
  return [promise](const Response& response) {
    promise->set_value(response);
    delete promise;
  };
}

}  // namespace

std::future<Response> ServeEngine::submit(std::size_t item) {
  auto* promise = new std::promise<Response>();
  auto future = promise->get_future();
  submit(item, fulfil(promise));
  return future;
}

std::future<Response> ServeEngine::submit(std::size_t item,
                                          std::chrono::microseconds deadline) {
  auto* promise = new std::promise<Response>();
  auto future = promise->get_future();
  submit(item, deadline, fulfil(promise));
  return future;
}

Response ServeEngine::submit_wait(std::size_t item) {
  return submit(item).get();
}

/// Capacity persists across groups, so a warm worker allocates none of
/// these buffers again.
struct ServeEngine::WorkerScratch {
  /// Witness per lane for certification (cache entry or fresh evaluation).
  struct LaneWitness {
    bool has = false;
    bool large = false;
    std::int64_t profit = 0;
    std::int64_t weight = 0;
  };

  std::vector<Batch> group;    ///< the dispatch group this worker evaluates
  std::vector<Request> swept;  ///< the queue, swapped out by this worker's sweep
  std::vector<Request> shed;   ///< expired at this worker's sweep
  std::vector<Batch> ready;    ///< batches this worker's sweep closed
  std::vector<std::size_t> items;  ///< one lane per batch
  std::vector<std::optional<AnswerCache::Hit>> cached;
  std::vector<Response> responses;
  std::vector<LaneWitness> witnesses;
  std::vector<std::size_t> miss_lanes;
  std::vector<std::size_t> miss_items;
  std::vector<AnswerCache::PutItem> puts;
  core::BatchScratch eval;
};

void ServeEngine::work() {
  WorkerScratch scratch;
  // While a batch is open, one idle worker wakes at least this often so its
  // linger window closes even when the queue is quiet.
  const auto poll = std::chrono::microseconds(
      std::clamp<std::int64_t>(config_.batcher.max_linger.count() / 2, 50, 1000));
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    std::size_t wake = 0;
    // A waiting group goes first: while every worker is busy, requests stay
    // in the bounded queue instead of piling up behind the batcher.
    if (closed_batches_.empty() && !sweeping_) {
      if (closed_ && queue_.empty() && open_ == 0) return;
      wake = sweep(lock, scratch);
    }
    const std::size_t take = std::min(group_size_, closed_batches_.size());
    const auto first = closed_batches_.end() - static_cast<std::ptrdiff_t>(take);
    std::move(first, closed_batches_.end(), std::back_inserter(scratch.group));
    closed_batches_.erase(first, closed_batches_.end());
    if (scratch.group.empty() && scratch.shed.empty()) {
      // Requests admitted during this worker's own sweep: sweep again.
      if (!queue_.empty() && !sweeping_) continue;
      if (open_ > 0 && !poller_) {
        poller_ = true;
        work_ready_.wait_for(lock, poll);
        poller_ = false;
      } else {
        work_ready_.wait(lock);
      }
      continue;
    }
    // This worker leaves to evaluate: wake an idle worker for what is still
    // queued, or to take over the linger poll.
    if (!queue_.empty() || (open_ > 0 && !poller_)) ++wake;
    lock.unlock();
    for (; wake > 0; --wake) work_ready_.notify_one();
    for (auto& request : scratch.shed) {
      Response response;
      response.outcome = Outcome::kDeadlineExceeded;
      finish(request, response);
    }
    scratch.shed.clear();
    if (!scratch.group.empty()) {
      // Capture the epoch snapshot ONCE per dispatch group: every request in
      // the group evaluates against exactly one epoch's warm state and
      // certificate log, even if advance_epoch runs mid-group.
      execute_batch_group(scratch, *snapshot());
      scratch.group.clear();
    }
    lock.lock();
  }
}

std::size_t ServeEngine::sweep(std::unique_lock<std::mutex>& lock,
                               WorkerScratch& scratch) {
  if (queue_.empty() && open_ == 0) return 0;
  // Lingering pays only when another caller asks for the same item
  // meanwhile.  When this sweep holds every unfinished request and no batch
  // is open, nobody else is in the engine, so the sweep's batches close at
  // once and a lone caller never waits for a partner.  `finished` is read
  // before `submitted_`: a stale read only over-counts the unfinished
  // requests, so the test can only err toward lingering.
  const std::uint64_t finished = finished_requests();
  const bool alone =
      open_ == 0 &&
      submitted_.load(std::memory_order_relaxed) - finished == queue_.size();
  const bool flush = alone || closed_;
  // The batcher belongs to the sweeping worker until `sweeping_` clears, so
  // admission and group taking go on while it batches.
  sweeping_ = true;
  scratch.swept.swap(queue_);
  queue_depth_gauge_->set(0.0);
  lock.unlock();
  const auto now = Clock::now();
  const std::uint64_t now_us = clock_->now_us();
  for (auto& request : scratch.swept) {
    if (request.expired(now_us)) {
      scratch.shed.push_back(std::move(request));
    } else {
      batcher_.add(std::move(request), now, scratch.ready);
    }
  }
  scratch.swept.clear();
  if (flush) {
    batcher_.flush_all(scratch.ready);
  } else {
    batcher_.collect_expired(now, scratch.ready);
  }
  const std::size_t open = batcher_.pending();
  lock.lock();
  sweeping_ = false;
  open_ = open;
  // Only a sweep fills `closed_batches_`, and it was empty when this one
  // began.
  closed_batches_.swap(scratch.ready);
  // Deep backlogs go out several batches per group so the per-group cost
  // amortizes; shallow ones keep one batch per group so independent
  // evaluations still run in parallel.
  group_size_ = std::clamp<std::size_t>(
      closed_batches_.size() / std::max<std::size_t>(1, config_.workers), 1, 8);
  // Workers that waited out this sweep after drain() must see the end.
  if (closed_) work_ready_.notify_all();
  // Every group but the one this worker takes goes to an idle worker.
  const std::size_t groups =
      (closed_batches_.size() + group_size_ - 1) / group_size_;
  return groups > 0 ? groups - 1 : 0;
}

void ServeEngine::execute_batch_group(WorkerScratch& scratch,
                                      const Epoch& snap) {
  std::vector<Batch>& group = scratch.group;
  if (group.empty()) return;

  // One lane per batch (a batch is one distinct item plus its requests).
  std::vector<std::size_t>& items = scratch.items;
  items.clear();
  for (auto& batch : group) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_requests_.fetch_add(batch.requests.size(),
                                std::memory_order_relaxed);
    batch_size_->observe(static_cast<double>(batch.requests.size()));
    items.push_back(batch.item);
  }

  // Stage 1: one shard-grouped cache lookup for the whole group.
  auto& cached = scratch.cached;
  cache_.get_batch(items, cached);

  auto& responses = scratch.responses;
  responses.assign(group.size(), Response{});
  auto& witnesses = scratch.witnesses;
  witnesses.assign(group.size(), WorkerScratch::LaneWitness{});

  // Stage 2: hit lanes finish from the cache (zero oracle reads).
  auto& miss_lanes = scratch.miss_lanes;
  miss_lanes.clear();
  for (std::size_t lane = 0; lane < group.size(); ++lane) {
    if (!cached[lane].has_value()) {
      miss_lanes.push_back(lane);
      continue;
    }
    const AnswerCache::Hit& hit = *cached[lane];
    Response& response = responses[lane];
    response.outcome = Outcome::kOk;
    response.answer = hit.answer;
    response.cache_hit = true;
    // A hit is always current-generation, which may be *ahead* of this
    // worker's snapshot if an advance landed between capture and lookup;
    // attribute the epoch the answer actually came from.
    response.epoch_id = hit.generation;
    // Witness for the certificate record: from the cache entry (zero oracle
    // reads), refreshed by a paranoia re-evaluation when one runs.
    witnesses[lane] = WorkerScratch::LaneWitness{hit.has_witness, hit.large,
                                                 hit.profit, hit.weight};
    if (hit.paranoia_due && hit.generation == snap.epoch_id) {
      // Live consistency SLO: recompute through the reference
      // `answer_with_witness` and compare.  A mismatch is a reproducibility
      // bug, not staleness; repair the cache (the fresh witness also
      // upgrades witness-free entries) and count it.  Skipped when the hit's
      // generation is not this worker's epoch: re-deriving an epoch-N+1
      // answer against the epoch-N run would manufacture false violations.
      try {
        core::LcaKp::AnswerWitness fresh;
        const bool fresh_answer =
            snap.lca->answer_with_witness(*snap.run, items[lane], fresh);
        cache_.record_paranoia(fresh_answer == hit.answer);
        cache_.put(items[lane],
                   AnswerCache::Entry{fresh.answer, true, fresh.large,
                                      fresh.profit, fresh.weight,
                                      snap.epoch_id});
        response.answer = fresh_answer;
        witnesses[lane] = WorkerScratch::LaneWitness{true, fresh.large,
                                                     fresh.profit, fresh.weight};
      } catch (...) {
        // The recheck is best-effort; an oracle failure here must not take
        // down an answer we already hold.
      }
    }
  }

  // Stage 3: all miss lanes go through one gather+classify.
  if (!miss_lanes.empty()) {
    auto& miss_items = scratch.miss_items;
    miss_items.clear();
    for (const auto lane : miss_lanes) miss_items.push_back(items[lane]);

    core::BatchScratch& eval = scratch.eval;
    const auto eval_start = Clock::now();
    core::BatchEval(*snap.lca, *snap.run).evaluate(miss_items, eval);
    batch_eval_us_->observe(std::chrono::duration<double, std::micro>(
                                Clock::now() - eval_start)
                                .count());

    auto& puts = scratch.puts;
    puts.clear();
    for (std::size_t j = 0; j < miss_lanes.size(); ++j) {
      const std::size_t lane = miss_lanes[j];
      Response& response = responses[lane];
      switch (eval.status[j]) {
        case core::LaneStatus::kOk: {
          const bool answer = eval.answers[j] != 0;
          const bool large = eval.large[j] != 0;
          response.outcome = Outcome::kOk;
          response.answer = answer;
          response.epoch_id = snap.epoch_id;
          witnesses[lane] = WorkerScratch::LaneWitness{
              true, large, eval.profits[j], eval.weights[j]};
          puts.push_back(AnswerCache::PutItem{
              items[lane], AnswerCache::Entry{answer, true, large,
                                              eval.profits[j], eval.weights[j],
                                              snap.epoch_id}});
          break;
        }
        case core::LaneStatus::kUnavailable:
          // The oracle stayed down through the whole client policy (retries
          // exhausted, retry budget empty, or circuit breaker open) for this
          // lane only.  With degradation on, fall back to the warm-state
          // rule; the degraded answer is deliberately NOT cached — it may be
          // below LCA quality, and the cache must only ever hold
          // Definition 2.3 answers.
          if (config_.degrade) {
            response.outcome = Outcome::kDegraded;
            response.answer = degraded_answer(snap, items[lane]);
            response.epoch_id = snap.epoch_id;
          } else {
            response.outcome = Outcome::kError;
          }
          break;
        case core::LaneStatus::kError:
          response.outcome = Outcome::kError;
          break;
      }
    }
    cache_.put_batch(puts);
  }

  // Stage 4: certify and finish, per batch.  A kOk answer whose request
  // expired while it waited is shed rather than delivered late.
  const std::uint64_t now_us = clock_->now_us();
  for (std::size_t lane = 0; lane < group.size(); ++lane) {
    const Response& response = responses[lane];
    if (snap.cert_log != nullptr && response.outcome == Outcome::kOk) {
      const WorkerScratch::LaneWitness& w = witnesses[lane];
      if (w.has) {
        certify_answer(snap, items[lane], w.large, w.profit, w.weight,
                       response.answer);
      } else {
        snap.cert_log->skip();
      }
    }
    for (auto& request : group[lane].requests) {
      if (response.outcome == Outcome::kOk && request.expired(now_us)) {
        Response shed;
        shed.outcome = Outcome::kDeadlineExceeded;
        finish(request, shed);
      } else {
        finish(request, response);
      }
    }
  }
}

void ServeEngine::certify_answer(const Epoch& snap, std::size_t item,
                                 bool large, std::int64_t profit,
                                 std::int64_t weight, bool answer) noexcept {
  cert::CertRecord record;
  record.item = item;
  record.profit = profit;
  record.weight = weight;
  record.case_tag = cert::case_of(
      core::LcaKp::AnswerWitness{profit, weight, large, answer});
  record.answer = answer;
  record.threshold_idx = large ? -1 : snap.cert_threshold_idx;
  (void)snap.cert_log->append(record);  // never throws; failures are counted
}

bool ServeEngine::degraded_answer(const Epoch& snap,
                                  std::size_t item) noexcept {
  // Zero-oracle fallback: the warm-up run already materialized the large-item
  // set L(Ĩ), so membership there is answerable from memory; everything else
  // gets the trivial-LCA "no" (Definition 2.4's floor).  Deterministic per
  // (seed, item), so degraded answers are still replica-consistent.
  return snap.run->index_large.contains(item);
}

void ServeEngine::drain() {
  std::call_once(drain_once_, [this] {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    work_ready_.notify_all();
    // Each worker leaves once the queue, the batcher and the closed groups
    // are empty, so every admitted request has finished when these return.
    for (auto& worker : workers_) worker.join();
    // All workers have exited: seal EVERY epoch's active certificate segment
    // atomically, not just the current one — an advance mid-run must not
    // orphan the previous epoch's tail records.
    std::lock_guard<std::mutex> lock(epoch_mutex_);
    for (const auto& epoch : epochs_) {
      if (epoch->cert_log != nullptr) epoch->cert_log->seal();
    }
    queue_depth_gauge_->set(0.0);
  });
}

EngineStats ServeEngine::stats() const {
  EngineStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.ok = ok_.load(std::memory_order_relaxed);
  stats.overloaded = overloaded_.load(std::memory_order_relaxed);
  stats.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  stats.degraded = degraded_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_evictions = cache_.evictions();
  stats.cache_invalidations = cache_.invalidations();
  stats.paranoia_checks = cache_.paranoia_checks();
  stats.paranoia_violations = cache_.paranoia_violations();
  {
    // Certificate counters aggregate across every epoch's log: an advance
    // must never make already-written records disappear from the readout.
    std::lock_guard<std::mutex> lock(epoch_mutex_);
    stats.epoch = epochs_.back()->epoch_id;
    for (const auto& epoch : epochs_) {
      if (epoch->cert_log == nullptr) continue;
      stats.cert_records += epoch->cert_log->records_written();
      stats.cert_skipped += epoch->cert_log->records_skipped();
      stats.cert_bytes += epoch->cert_log->bytes_written();
      stats.cert_segments += epoch->cert_log->segments_sealed();
    }
  }
  return stats;
}

}  // namespace lcaknap::serve
