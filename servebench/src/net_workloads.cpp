// serial-uniform and pipelined-zipf: closed-loop TCP loopback traffic against
// the serving stack `lcaknap_cli serve --listen --in FILE` builds.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "isolation.h"
#include "items.h"
#include "knapsack/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/session.h"
#include "oracle/access.h"
#include "oracle/instrumented.h"
#include "store/state_store.h"
#include "workloads.h"

namespace servebench {
namespace {

constexpr std::size_t kItems = 1'000'000;
constexpr double kZipfExponent = 1.1;
const char* const kTenant = "bench";

enum Phase : int { kWarm = 0, kMeasure = 1, kStop = 2 };

/// The warm-state store `serve --listen` builds: in memory, one warm-up
/// thread.
store::StateStoreConfig store_config() {
  store::StateStoreConfig config;
  config.capacity = kStoreCapacity;
  config.warmup_threads = 1;
  return config;
}

/// One serving process: instance, oracle, algorithm, warm-state store,
/// tenant router (warmed before accept) and the epoll server.  Traced
/// stacks put an `InstrumentedAccess` between the algorithm and storage.
class NetStack {
 public:
  NetStack(std::uint64_t seed, bool traced)
      : instance_(knapsack::make_family(knapsack::Family::kUncorrelated,
                                        kItems, seed)),
        storage_(instance_),
        instrumented_(traced ? std::make_unique<oracle::InstrumentedAccess>(
                                   storage_, registry_)
                             : nullptr),
        lca_(instrumented_ != nullptr
                 ? static_cast<const oracle::InstanceAccess&>(*instrumented_)
                 : storage_,
             default_lca_config()),
        store_(store_config(), registry_),
        router_(store_, registry_) {
    net::TenantConfig tenant;
    tenant.lca = &lca_;
    tenant.engine = default_engine_config();
    tenant.tape_seed = kTapeSeed;
    tenant.max_inflight = kTenantInflight;
    router_.register_tenant(kTenant, tenant);
    router_.warm_all();
    net::ServerConfig server_config;
    server_config.max_connections = 256;
    server_config.max_inflight_per_connection = 128;
    server_ = std::make_unique<net::Server>(router_, server_config, registry_);
  }

  ~NetStack() { quiesce(); }

  NetStack(const NetStack&) = delete;
  NetStack& operator=(const NetStack&) = delete;

  /// Stops the server and completes every admitted request.
  void quiesce() {
    server_->stop();
    router_.drain();
  }

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] const metrics::Registry& registry() const { return registry_; }
  [[nodiscard]] const knapsack::Instance& instance() const { return instance_; }
  [[nodiscard]] const serve::ServeEngine& engine() const {
    return *router_.engine(kTenant);
  }
  [[nodiscard]] net::ServerStats server_stats() const {
    return server_->stats();
  }
  [[nodiscard]] net::RouterStats router_stats() const {
    return router_.stats();
  }
  [[nodiscard]] std::uint64_t oracle_reads() const {
    return instrumented_ != nullptr ? instrumented_->query_count() : 0;
  }

 private:
  metrics::Registry registry_;
  knapsack::Instance instance_;
  oracle::MaterializedAccess storage_;
  std::unique_ptr<oracle::InstrumentedAccess> instrumented_;
  core::LcaKp lca_;
  store::StateStore store_;
  net::TenantRouter router_;
  std::unique_ptr<net::Server> server_;
};

struct ConnectionLog {
  std::vector<Sample> samples;
  std::string error;
};

/// One closed-loop connection: keeps `window` frames in flight until the
/// phase flag says stop, then collects the outstanding responses.
void closed_loop(std::uint16_t port, std::size_t window,
                 const Popularity& items, std::uint64_t seed,
                 Clock::time_point origin, const std::atomic<int>& phase,
                 std::size_t expected, ConnectionLog& log) {
  struct Pending {
    std::uint64_t id;
    std::uint32_t item;
    Clock::time_point sent;
    bool measured;
  };
  try {
    log.samples.reserve(expected);
    net::Client client("127.0.0.1", port);
    util::Xoshiro256 rng(seed);
    std::vector<Pending> pending;
    pending.reserve(window);
    net::RequestFrame frame;
    frame.tenant = kTenant;
    std::uint64_t next_id = 1;
    while (true) {
      const int now_phase = phase.load(std::memory_order_acquire);
      while (now_phase != kStop && pending.size() < window) {
        frame.request_id = next_id++;
        frame.item = items.next(rng);
        pending.push_back(Pending{frame.request_id,
                                  static_cast<std::uint32_t>(frame.item),
                                  Clock::now(), now_phase == kMeasure});
        client.send(frame);
      }
      if (pending.empty()) break;
      const net::ResponseFrame response = client.recv();
      const auto done = Clock::now();
      const auto it = std::find_if(
          pending.begin(), pending.end(),
          [&](const Pending& p) { return p.id == response.request_id; });
      if (it == pending.end()) {
        log.error = "response for unknown request id " +
                    std::to_string(response.request_id);
        return;
      }
      Sample sample;
      sample.item = it->item;
      sample.epoch = static_cast<std::uint32_t>(response.epoch_id);
      sample.latency_us =
          std::chrono::duration<float, std::micro>(done - it->sent).count();
      sample.sent_s = std::chrono::duration<float>(it->sent - origin).count();
      sample.status = static_cast<std::uint8_t>(response.status);
      sample.answer = response.answer;
      sample.measured = it->measured;
      log.samples.push_back(sample);
      *it = pending.back();
      pending.pop_back();
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

/// Sets up `setups` times (the last stack serves), then runs the workload.
PhaseResult measure_net(const Options& options, const NetShape& shape,
                        bool traced, int setups) {
  PhaseResult result;
  const Popularity items = shape.zipf ? Popularity::zipf(kItems, kZipfExponent)
                                      : Popularity::uniform(kItems);

  std::unique_ptr<NetStack> stack;
  for (int k = 0; k < setups; ++k) {
    stack.reset();
    const auto t0 = Clock::now();
    stack = std::make_unique<NetStack>(options.seed, traced);
    result.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Sample buffers are reserved up front so no reallocation lands inside
  // the measured window (100k requests/s per connection is above capacity).
  const auto expected = static_cast<std::size_t>(
      (options.seconds + kWarmupTrafficSeconds + 1.0) * 100'000.0);
  std::atomic<int> phase{kWarm};
  std::vector<ConnectionLog> logs(shape.connections);
  std::vector<std::thread> clients;
  const auto origin = Clock::now();
  for (std::size_t c = 0; c < shape.connections; ++c) {
    clients.emplace_back(closed_loop, stack->port(), shape.window,
                         std::cref(items), stream_seed(options.seed, c),
                         origin, std::cref(phase), expected,
                         std::ref(logs[c]));
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(kWarmupTrafficSeconds));
  const auto& registry = stack->registry();
  const auto frame_before = histogram_of(registry, "net_frame_latency_us");
  const auto latency_before = histogram_of(registry, "serve_request_latency_us");
  const auto eval_before = histogram_of(registry, "serve_batch_eval_us");
  const auto start = Clock::now();
  phase.store(kMeasure, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds));
  phase.store(kStop, std::memory_order_release);
  const auto end = Clock::now();
  for (auto& t : clients) t.join();
  const auto frame = histogram_of(registry, "net_frame_latency_us")
                         .since(frame_before);
  const auto latency = histogram_of(registry, "serve_request_latency_us")
                           .since(latency_before);
  const auto eval =
      histogram_of(registry, "serve_batch_eval_us").since(eval_before);
  stack->quiesce();

  // Merge the connections' samples, releasing each log as it is copied so
  // the peak resident set holds the samples about once.
  std::size_t total = 0;
  for (const auto& log : logs) total += log.samples.size();
  std::vector<Sample> samples;
  samples.reserve(total);
  std::uint64_t ok_responses = 0;
  for (auto& log : logs) {
    result.check(log.error.empty(), "client connection failed: " + log.error);
    for (const auto& s : log.samples) ok_responses += s.status == 0 ? 1 : 0;
    samples.insert(samples.end(), log.samples.begin(), log.samples.end());
    std::vector<Sample>().swap(log.samples);
  }

  // Correctness: every ok answer against a reference warmed independently
  // with the same tape seed (the served warm state must be digest-equal).
  const oracle::MaterializedAccess ref_access(stack->instance());
  const core::LcaKp ref_lca(ref_access, default_lca_config());
  const core::LcaKpRun ref_run = ref_lca.run_warmup(kTapeSeed, 0);
  result.check(core::run_digest(ref_run) == core::run_digest(stack->engine().run()),
               "served warm state differs from the reference warm-up");
  for (auto& s : samples) {
    if (s.status != 0) continue;
    ++result.answers_checked;
    if (s.epoch != 0 || ref_lca.answer_from(ref_run, s.item) != s.answer) {
      s.wrong = true;
      ++result.wrong_answers;
    }
  }
  summarize(samples, seconds_between(origin, start),
            seconds_between(start, end), result);

  // Conservation: on the wire, in the router, and in the engine.
  const net::ServerStats server = stack->server_stats();
  const net::RouterStats router = stack->router_stats();
  const serve::EngineStats engine = stack->engine().stats();
  result.check(server.frames_in == server.responses_to_frames(),
               "wire conservation: frames_in " +
                   std::to_string(server.frames_in) + " != responses " +
                   std::to_string(server.responses_to_frames()));
  result.check(server.frames_in == samples.size(),
               "wire: server decoded " + std::to_string(server.frames_in) +
                   " frames, clients got " + std::to_string(samples.size()) +
                   " responses");
  result.check(server.decode_errors == 0, "wire decode errors on clean frames");
  result.check(server.by_status[0] == ok_responses,
               "wire: ok responses sent != ok responses received");
  result.check(router.routed == router.completed,
               "router conservation: routed != completed");
  check_engine_conservation(engine, result);

  if (!traced) return result;

  auto& layers = result.layers;
  // Stage shares are differences of means: means add up along the request
  // path and the histograms' sums make them exact, while a median read from
  // power-of-two buckets is interpolated.
  layers["net.server.frame_us.p50"] = frame.quantile(0.50);
  layers["net.server.frame_us.p99"] = frame.quantile(0.99);
  layers["net.socket_us.mean"] = result.latency_mean_us - frame.mean();
  layers["net.session.route_us.mean"] = frame.mean() - latency.mean();
  layers["net.server.inflight_shed"] = static_cast<double>(server.inflight_shed);
  layers["net.session.quota_shed"] = static_cast<double>(router.quota_shed);
  add_engine_histogram_layers(latency, eval, result);
  layers["store.warmup_ms"] =
      histogram_of(registry, "store_warmup_us").mean() / 1000.0;
  add_engine_layers(engine, stack->oracle_reads(), result);
  run_isolation(samples,
                [&](std::uint32_t) { return EpochRef{&ref_lca, &ref_run}; },
                result);
  return result;
}

}  // namespace

PhaseResult run_net(const Options& options, const NetShape& shape,
                    bool traced, int setups) {
  const int before = setups_before(setups);
  PhaseResult result = measure_net(options, shape, traced, before);
  for (int k = before; k < setups; ++k) {
    const auto t0 = Clock::now();
    const NetStack stack(options.seed, traced);
    result.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  return result;
}

}  // namespace servebench
