// engine-churn-open: open-loop callback traffic into an in-process
// ServeEngine (certification on) while an updater thread advances the
// instance epoch every 250 ms.  No sockets.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>

#include "dyn/epoch_state.h"
#include "dyn/update.h"
#include "isolation.h"
#include "items.h"
#include "knapsack/generators.h"
#include "net/wire.h"
#include "oracle/access.h"
#include "oracle/instrumented.h"
#include "util/stats.h"
#include "workloads.h"

namespace servebench {
namespace {

constexpr std::size_t kItems = 200'000;
/// Offered load, about a quarter of the engine's in-process capacity.
constexpr double kOfferedQps = 200'000.0;
constexpr auto kAdvanceEvery = std::chrono::milliseconds(250);
/// Share of the items one update batch touches (weights only).
constexpr double kUpdateShare = 0.001;
constexpr double kHotShare = 0.9;
constexpr std::size_t kHotItems = 16;
/// A generator whose p99 lateness exceeds this did not hold the schedule.
constexpr double kBehindLatenessUs = 1'000.0;
/// Generator wake-up period: ten requests come due per tick.
constexpr auto kTick = std::chrono::microseconds(50);
constexpr auto kCompletionTimeout = std::chrono::seconds(30);
/// `Sample::status` of a request whose completion never arrived.
constexpr std::uint8_t kNoCompletion = 255;

/// One epoch as the engine serves it.  Traced stacks count oracle reads by
/// answering through an `InstrumentedAccess` over the epoch's storage (an
/// `LcaKp` with the same configuration over the same items answers
/// identically); untraced stacks serve the epoch's own algorithm.
struct ServedEpoch {
  std::shared_ptr<const dyn::EpochedState::Epoch> epoch;
  std::unique_ptr<oracle::InstrumentedAccess> access;
  std::unique_ptr<core::LcaKp> lca;

  [[nodiscard]] const core::LcaKp& served_lca() const {
    return lca != nullptr ? *lca : *epoch->lca;
  }
};

class ChurnStack {
 public:
  ChurnStack(std::uint64_t seed, bool traced, std::string cert_dir)
      : traced_(traced), cert_dir_(std::move(cert_dir)) {
    std::filesystem::remove_all(cert_dir_);
    std::filesystem::create_directories(cert_dir_);
    dyn::EpochConfig config;
    config.lca = default_lca_config();
    config.tape_seed = kTapeSeed;
    config.warmup_threads = 1;
    const auto t0 = Clock::now();
    state_ = std::make_unique<dyn::EpochedState>(
        knapsack::make_family(knapsack::Family::kUncorrelated, kItems, seed),
        config, registry_);
    warmup_ms_ = seconds_between(t0, Clock::now()) * 1e3;
    const auto first = adopt(state_->current());
    serve::EngineConfig engine_config = default_engine_config();
    engine_config.certify = true;
    engine_config.cert_dir = cert_dir_;
    engine_config.warm_state = first->epoch->run;
    engine_ = std::make_unique<serve::ServeEngine>(first->served_lca(),
                                                   engine_config, registry_);
  }

  ~ChurnStack() {
    engine_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(cert_dir_, ignored);
  }

  ChurnStack(const ChurnStack&) = delete;
  ChurnStack& operator=(const ChurnStack&) = delete;

  /// Applies one update batch through `EpochedState::advance`, then installs
  /// the new epoch with `ServeEngine::advance_epoch`.  Updater thread only.
  dyn::AdvanceReport advance(const dyn::UpdateBatch& batch,
                             double& advance_ms, double& install_us) {
    const auto t0 = Clock::now();
    const dyn::AdvanceReport report = state_->advance(batch);
    const auto t1 = Clock::now();
    const auto served = adopt(state_->current());
    engine_->advance_epoch(served->epoch->epoch_id, served->served_lca(),
                           served->epoch->run, served);
    const auto t2 = Clock::now();
    advance_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    install_us = std::chrono::duration<double, std::micro>(t2 - t1).count();
    return report;
  }

  [[nodiscard]] serve::ServeEngine& engine() { return *engine_; }
  [[nodiscard]] const metrics::Registry& registry() const { return registry_; }
  /// Every epoch served so far, indexed by epoch id.  Read only while the
  /// updater is not running.
  [[nodiscard]] const std::vector<std::shared_ptr<const ServedEpoch>>& epochs()
      const {
    return epochs_;
  }
  [[nodiscard]] double warmup_ms() const { return warmup_ms_; }

 private:
  std::shared_ptr<const ServedEpoch> adopt(
      std::shared_ptr<const dyn::EpochedState::Epoch> epoch) {
    auto served = std::make_shared<ServedEpoch>();
    served->epoch = std::move(epoch);
    if (traced_) {
      served->access = std::make_unique<oracle::InstrumentedAccess>(
          *served->epoch->access, registry_);
      served->lca = std::make_unique<core::LcaKp>(*served->access,
                                                  default_lca_config());
    }
    epochs_.push_back(served);
    return served;
  }

  bool traced_;
  std::string cert_dir_;
  metrics::Registry registry_;
  std::unique_ptr<dyn::EpochedState> state_;
  std::vector<std::shared_ptr<const ServedEpoch>> epochs_;
  double warmup_ms_ = 0.0;
  std::unique_ptr<serve::ServeEngine> engine_;
};

/// A weight-only batch over `count` distinct items; each new weight is the
/// weight of another random item, so the weight distribution stays put.
dyn::UpdateBatch weight_batch(std::uint64_t epoch_id,
                              const knapsack::Instance& base,
                              std::size_t count, util::Xoshiro256& rng) {
  dyn::UpdateBatch batch;
  batch.epoch_id = epoch_id;
  std::vector<std::size_t> touched;
  while (batch.mutations.size() < count) {
    const auto index = static_cast<std::size_t>(rng.next_below(base.size()));
    if (std::find(touched.begin(), touched.end(), index) != touched.end()) {
      continue;
    }
    touched.push_back(index);
    const auto donor = static_cast<std::size_t>(rng.next_below(base.size()));
    batch.mutations.push_back(dyn::Mutation{dyn::MutationKind::kWeightUpdate,
                                            index, 0,
                                            base.item(donor).weight});
  }
  return batch;
}

struct UpdaterLog {
  std::vector<double> advance_ms;
  std::vector<double> install_us;
  std::uint64_t delta = 0;
  std::string error;
};

void updater(ChurnStack& stack, const knapsack::Instance& base,
             std::uint64_t seed, Clock::time_point origin,
             const std::atomic<bool>& stop, UpdaterLog& log) {
  util::Xoshiro256 rng(seed);
  const auto count = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(base.size()) *
                                  kUpdateShare));
  for (std::uint64_t k = 1;; ++k) {
    const auto due = origin + k * kAdvanceEvery;
    while (Clock::now() < due) {
      if (stop.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (stop.load(std::memory_order_acquire)) return;
    try {
      double advance_ms = 0.0;
      double install_us = 0.0;
      const auto report = stack.advance(weight_batch(k, base, count, rng),
                                        advance_ms, install_us);
      log.advance_ms.push_back(advance_ms);
      log.install_us.push_back(install_us);
      log.delta += report.delta ? 1 : 0;
    } catch (const std::exception& e) {
      log.error = e.what();
      return;
    }
  }
}

/// What the completion callbacks write: one slot per scheduled request.
struct Ledger {
  std::vector<Sample> samples;
  std::vector<std::int64_t> done_ns;  ///< completion instant, steady clock
  std::atomic<std::uint64_t> completed{0};
};

struct GeneratorLog {
  std::uint64_t submitted = 0;
  Clock::duration submit_time{};
};

/// Offset of request k's scheduled send instant from the schedule's origin.
std::chrono::nanoseconds scheduled(std::size_t k) {
  return std::chrono::nanoseconds(
      std::llround(static_cast<double>(k) * 1e9 / kOfferedQps));
}

/// Sends request k at origin + k / rate, late or not, and never waits for a
/// response: the schedule is the users', not the server's.  The generator
/// sleeps in `kTick` steps and sends every request that has come due; it
/// does not spin, so it leaves the cores to the engine and the updater.
void open_loop(serve::ServeEngine& engine, const Popularity& items,
               std::uint64_t seed, Clock::time_point origin,
               Clock::time_point measure_start, bool traced, Ledger& ledger,
               GeneratorLog& log) {
  prctl(PR_SET_TIMERSLACK, 1000UL);  // wake within ~1 us of the tick, not 50
  util::Xoshiro256 rng(seed);
  Ledger* const context = &ledger;
  auto tick = origin;
  std::size_t k = 0;
  while (k < ledger.samples.size()) {
    std::this_thread::sleep_until(tick);
    tick += kTick;
    for (; k < ledger.samples.size(); ++k) {
      const auto due = origin + scheduled(k);
      const auto now = Clock::now();
      if (due > now) break;
      Sample& sample = ledger.samples[k];
      const auto item = items.next(rng);
      sample.status = kNoCompletion;  // the callback overwrites it
      sample.item = static_cast<std::uint32_t>(item);
      sample.measured = due >= measure_start;
      sample.sent_s = std::chrono::duration<float>(due - origin).count();
      sample.lateness_us =
          std::chrono::duration<float, std::micro>(now - due).count();
      auto on_done = [context, k](const serve::Response& response) {
        context->done_ns[k] = Clock::now().time_since_epoch().count();
        Sample& s = context->samples[k];
        s.status =
            static_cast<std::uint8_t>(net::wire_status_of(response.outcome));
        s.answer = response.answer;
        s.epoch = static_cast<std::uint32_t>(response.epoch_id);
        context->completed.fetch_add(1, std::memory_order_release);
      };
      if (traced) {
        const auto t0 = Clock::now();
        engine.submit(item, on_done);
        log.submit_time += Clock::now() - t0;
      } else {
        engine.submit(item, on_done);
      }
      ++log.submitted;
    }
  }
}

std::string cert_dir_of(const Options& options) {
  return options.work_dir + "/certs";
}

/// Sets up `setups` times (the last stack serves), then runs the workload.
PhaseResult measure_churn(const Options& options, bool traced, int setups) {
  PhaseResult result;
  const Popularity items = Popularity::hotspot(
      kItems, kHotShare, kHotItems, stream_seed(options.seed, 100));
  const std::string cert_dir = cert_dir_of(options);

  std::unique_ptr<ChurnStack> stack;
  for (int k = 0; k < setups; ++k) {
    stack.reset();
    const auto t0 = Clock::now();
    stack = std::make_unique<ChurnStack>(options.seed, traced, cert_dir);
    result.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  serve::ServeEngine& engine = stack->engine();
  const auto base = stack->epochs().front()->epoch;

  Ledger ledger;
  const auto total = static_cast<std::size_t>(
      (kWarmupTrafficSeconds + options.seconds) * kOfferedQps);
  ledger.samples.resize(total);
  ledger.done_ns.assign(total, 0);
  GeneratorLog generator_log;
  UpdaterLog updater_log;
  std::atomic<bool> stop_updates{false};

  const auto origin = Clock::now() + std::chrono::milliseconds(5);
  const auto start = origin + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      kWarmupTrafficSeconds));
  std::thread generator(open_loop, std::ref(engine), std::cref(items),
                        stream_seed(options.seed, 0), origin, start, traced,
                        std::ref(ledger), std::ref(generator_log));
  std::thread update_thread(updater, std::ref(*stack),
                            std::cref(*base->instance),
                            stream_seed(options.seed, 200), origin,
                            std::cref(stop_updates), std::ref(updater_log));
  std::this_thread::sleep_until(start);
  const auto& registry = stack->registry();
  const auto latency_before = histogram_of(registry, "serve_request_latency_us");
  const auto eval_before = histogram_of(registry, "serve_batch_eval_us");
  generator.join();
  const auto give_up = Clock::now() + kCompletionTimeout;
  while (ledger.completed.load(std::memory_order_acquire) < total &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_updates.store(true, std::memory_order_release);
  update_thread.join();
  const auto latency =
      histogram_of(registry, "serve_request_latency_us").since(latency_before);
  const auto eval =
      histogram_of(registry, "serve_batch_eval_us").since(eval_before);
  engine.drain();  // every admitted request has completed after this
  const std::uint64_t completed =
      ledger.completed.load(std::memory_order_acquire);
  result.check(completed == total,
               "lost requests: " + std::to_string(total - completed) +
                   " completions never arrived");
  result.check(updater_log.error.empty(),
               "epoch advance failed: " + updater_log.error);

  // Latency from the scheduled instant (coordinated omission corrected).
  for (std::size_t k = 0; k < total; ++k) {
    const Clock::time_point done{Clock::duration(ledger.done_ns[k])};
    ledger.samples[k].latency_us = std::chrono::duration<float, std::micro>(
                                       done - (origin + scheduled(k)))
                                       .count();
  }

  // Correctness: each ok answer against the run of the epoch it names.
  const auto& epochs = stack->epochs();
  for (auto& s : ledger.samples) {
    if (s.status != 0) continue;
    ++result.answers_checked;
    if (s.epoch >= epochs.size() ||
        epochs[s.epoch]->epoch->lca->answer_from(*epochs[s.epoch]->epoch->run,
                                                  s.item) != s.answer) {
      s.wrong = true;
      ++result.wrong_answers;
    }
  }
  // The first epoch's warm state against an independent warm-up, and the
  // last (delta warm-up) epoch's against a fresh full warm-up.
  for (const auto& served : {epochs.front(), epochs.back()}) {
    const auto& epoch = *served->epoch;
    const oracle::MaterializedAccess access(*epoch.instance);
    const core::LcaKp lca(access, default_lca_config());
    result.check(core::run_digest(lca.run_warmup(kTapeSeed, 0)) == epoch.digest,
                 "epoch " + std::to_string(epoch.epoch_id) +
                     " warm state differs from a fresh warm-up");
  }
  summarize(ledger.samples, kWarmupTrafficSeconds, options.seconds, result);

  // Conservation: requests, outcomes and certificates.
  const serve::EngineStats stats = engine.stats();
  std::uint64_t ok_samples = 0;
  for (const auto& s : ledger.samples) ok_samples += s.status == 0 ? 1 : 0;
  result.check(stats.submitted == generator_log.submitted,
               "engine saw " + std::to_string(stats.submitted) +
                   " submits, generator made " +
                   std::to_string(generator_log.submitted));
  result.check(stats.ok == ok_samples, "engine ok count != ok callbacks");
  check_engine_conservation(stats, result);
  result.check(stats.cert_skipped == 0,
               "ok answers served uncertified: " +
                   std::to_string(stats.cert_skipped));
  if (stats.errors == 0 && stats.degraded == 0) {
    result.check(stats.cert_records == stats.batches,
                 "certificate records " + std::to_string(stats.cert_records) +
                     " != answered batches " + std::to_string(stats.batches));
  }

  std::vector<double> lateness;
  for (const auto& s : ledger.samples) {
    if (s.measured) lateness.push_back(s.lateness_us);
  }
  const double lateness_p99 = util::EmpiricalCdf(lateness).quantile(0.99);
  result.notes.push_back("generator lateness p99 " +
                         std::to_string(lateness_p99) + " us" +
                         (lateness_p99 > kBehindLatenessUs
                              ? " (BEHIND schedule: offered load not held)"
                              : " (on schedule)"));
  result.notes.push_back("epoch advances " +
                         std::to_string(updater_log.advance_ms.size()) +
                         ", final epoch " + std::to_string(stats.epoch));

  if (!traced) return result;

  auto& layers = result.layers;
  add_engine_histogram_layers(latency, eval, result);
  layers["serve.engine.submit_ns"] =
      generator_log.submitted > 0
          ? std::chrono::duration<double, std::nano>(generator_log.submit_time)
                    .count() /
                static_cast<double>(generator_log.submitted)
          : 0.0;
  const auto& advance_ms = updater_log.advance_ms;
  layers["dyn.advances"] = static_cast<double>(advance_ms.size());
  layers["dyn.delta_share"] =
      advance_ms.empty() ? 0.0
                         : static_cast<double>(updater_log.delta) /
                               static_cast<double>(advance_ms.size());
  layers["dyn.advance_ms.max"] =
      advance_ms.empty() ? 0.0
                         : *std::max_element(advance_ms.begin(), advance_ms.end());
  layers["dyn.advance_ms.p50"] = util::EmpiricalCdf(advance_ms).quantile(0.50);
  layers["serve.engine.advance_epoch_us.p50"] =
      util::EmpiricalCdf(updater_log.install_us).quantile(0.50);
  layers["store.warmup_ms"] = stack->warmup_ms();
  layers["loadgen.lateness_us.p99"] = lateness_p99;
  layers["loadgen.behind"] = lateness_p99 > kBehindLatenessUs ? 1.0 : 0.0;
  add_engine_layers(stats, registry.counter_value("oracle_queries_total"),
                    result);
  run_isolation(ledger.samples,
                [&](std::uint32_t epoch) {
                  const auto& e = *epochs.at(epoch)->epoch;
                  return EpochRef{e.lca.get(), e.run.get()};
                },
                result);
  return result;
}

}  // namespace

PhaseResult run_churn(const Options& options, bool traced, int setups) {
  const int before = setups_before(setups);
  PhaseResult result = measure_churn(options, traced, before);
  for (int k = before; k < setups; ++k) {
    const auto t0 = Clock::now();
    const ChurnStack stack(options.seed, traced, cert_dir_of(options));
    result.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  return result;
}

}  // namespace servebench
