// lcaknap_loadgen — closed- and open-loop traffic driver for
// `lcaknap_cli serve --listen` (docs/NETWORKING.md, experiment E20).
//
//   lcaknap_loadgen (--port P [--host 127.0.0.1] |
//                    --targets host:port,host:port)
//     [--tenant default] [--mode closed|open] [--connections C] [--window W]
//     [--queries N] [--duration-ms D] [--qps R]
//     [--shape flat|diurnal] [--period-ms P]
//     [--items-max M] [--seed S] [--deadline-us D] [--json]
//     [--trace-record FILE] [--trace-replay FILE]
//
// Shape (open loop only): `--shape diurnal` modulates the offered rate
// sinusoidally around --qps — rate(t) = qps * (1 + 0.8 sin(2πt/P)) with
// period `--period-ms` (default 1000) — a compressed day/night cycle for
// exercising epoch advances (`serve --updates`) under load that ebbs and
// surges instead of a flat firehose.  Conservation is unchanged: every
// sent frame is still drained, whatever the shape.
//
// Trace record/replay (util/request_trace.h, "lcaknap-trace 1" format):
// `--trace-record FILE` writes every sent frame — timestamp relative to run
// start, item, tenant — merged across connections in timestamp order, so a
// synthetic run (or a tcpdump-shaped production log converted to the same
// format) becomes a replayable artifact.  `--trace-replay FILE` drives item
// and tenant selection from a recorded log instead of the RNG: the trace is
// split into contiguous per-connection slices (record order preserved within
// each) and each record is sent exactly once (`--queries` caps it); pacing
// stays the mode's own (window or --qps).  Replay targets a single endpoint.
//
// Multi-endpoint mode (`--targets`) drives every replica of a fleet
// concurrently with the same workload shape, splitting the query budget
// evenly; the report gains a per-target status table and the conservation
// exit check extends across targets: every target must individually satisfy
// sent == received, so a violated replica cannot hide behind a sibling's
// surplus.
//
// Closed loop (default): each of C connections keeps a window of W frames
// in flight — send, wait, send — so offered load self-regulates to what the
// server sustains; the classic saturation probe.  `--queries N` bounds the
// total; `--duration-ms` bounds the wall time (whichever first).
//
// Open loop: frames are paced at a fixed `--qps` total regardless of
// responses (a sender and a drainer thread per connection) — the overload
// probe: offered load does not slow down when the server sheds, so the
// kOverloaded wire status and the conservation law do the talking.
//
// Reports sent/answered counts, responses by wire status, wire-level
// conservation (sent == responses received, zero silent drops), latency
// percentiles, and achieved qps; `--json` emits one machine-readable line
// (the E20 harness parses it).
//
// Exit codes: 0 success, 1 usage error, 2 runtime/conservation failure.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/wire.h"
#include "util/bytes.h"
#include "util/request_trace.h"
#include "util/table.h"

#include "args.h"

namespace {

using namespace lcaknap;
using tools::Args;
using Clock = std::chrono::steady_clock;

/// Per-connection tally, merged after the run.
struct ConnResult {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::array<std::uint64_t, 8> by_status{};
  /// Ok answers by the epoch that served them (ResponseFrame::epoch_id) —
  /// the churn-mode view: across a `serve --updates` advance this splits
  /// between consecutive epochs, and the split must account for every ok.
  std::map<std::uint64_t, std::uint64_t> ok_by_epoch;
  std::vector<double> latencies_us;
  std::vector<util::TraceRecord> trace;  ///< sent frames (--trace-record)
  std::string error;  ///< first socket failure, if any
};

struct RunConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string tenant = "default";
  bool open_loop = false;
  std::size_t connections = 1;
  std::size_t window = 1;
  std::uint64_t total_queries = 10'000;
  std::uint64_t duration_ms = 0;  ///< 0 = unbounded (closed loop only)
  double qps = 0.0;               ///< open loop target, all connections
  std::uint64_t items_max = 1'000;
  std::uint64_t seed = 1;
  std::uint64_t deadline_us = 0;
  /// Open-loop rate shape: sinusoidal day/night cycle instead of flat qps.
  bool diurnal = false;
  std::uint64_t period_ms = 1'000;  ///< diurnal cycle length
  /// Record every sent frame into ConnResult::trace (--trace-record).
  bool record_trace = false;
  /// Timestamp origin for recorded frames (the run's start).
  Clock::time_point epoch{};
  /// Replay source (--trace-replay); null = synthetic RNG workload.
  const std::vector<util::TraceRecord>* replay = nullptr;
};

void record(ConnResult& result, const net::ResponseFrame& response,
            double latency_us) {
  result.received += 1;
  const auto s = static_cast<std::size_t>(response.status);
  if (s < result.by_status.size()) result.by_status[s] += 1;
  if (response.status == net::WireStatus::kOk) {
    result.ok_by_epoch[response.epoch_id] += 1;
  }
  result.latencies_us.push_back(latency_us);
}

/// Fills the workload fields of a frame (synthetic RNG pick, or the next
/// record of this connection's replay slice) and records it when asked.
/// Shared by both loop modes so record/replay behave identically in each.
template <typename Rng, typename Pick>
void fill_frame(net::RequestFrame& frame, const RunConfig& config,
                const std::vector<util::TraceRecord>& slice,
                std::size_t& replay_pos, Rng& rng, Pick& pick,
                ConnResult& result) {
  if (!slice.empty()) {
    const auto& record = slice[replay_pos % slice.size()];
    ++replay_pos;
    frame.item = record.item;
    frame.tenant = record.tenant;
  } else {
    frame.item = pick(rng);
    frame.tenant = config.tenant;
  }
  frame.deadline_us = config.deadline_us;
  if (config.record_trace) {
    const auto now_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              config.epoch)
            .count());
    result.trace.push_back(
        util::TraceRecord{now_us, frame.item, frame.tenant});
  }
}

/// Closed loop: keep `window` frames outstanding until the quota or the
/// deadline; every sent frame is drained before the connection closes.
void run_closed(const RunConfig& config, std::uint64_t quota,
                std::uint64_t conn_seed,
                const std::vector<util::TraceRecord>& slice,
                ConnResult& result) {
  try {
    net::Client client(config.host, config.port);
    std::mt19937_64 rng(conn_seed);
    std::uniform_int_distribution<std::uint64_t> pick(
        0, config.items_max > 0 ? config.items_max - 1 : 0);
    std::unordered_map<std::uint64_t, Clock::time_point> outstanding;
    const auto start = Clock::now();
    const auto deadline =
        config.duration_ms > 0
            ? start + std::chrono::milliseconds(config.duration_ms)
            : Clock::time_point::max();
    std::uint64_t next_id = 1;
    std::size_t replay_pos = 0;
    const auto send_one = [&] {
      net::RequestFrame frame;
      frame.request_id = next_id++;
      fill_frame(frame, config, slice, replay_pos, rng, pick, result);
      outstanding.emplace(frame.request_id, Clock::now());
      client.send(frame);
      result.sent += 1;
    };
    while (result.sent < quota && Clock::now() < deadline) {
      while (outstanding.size() < config.window && result.sent < quota) {
        send_one();
      }
      if (outstanding.empty()) break;
      const auto response = client.recv();
      const auto it = outstanding.find(response.request_id);
      const double latency =
          it == outstanding.end()
              ? 0.0
              : std::chrono::duration<double, std::micro>(Clock::now() -
                                                          it->second)
                    .count();
      if (it != outstanding.end()) outstanding.erase(it);
      record(result, response, latency);
    }
    while (!outstanding.empty()) {
      const auto response = client.recv();
      const auto it = outstanding.find(response.request_id);
      const double latency =
          it == outstanding.end()
              ? 0.0
              : std::chrono::duration<double, std::micro>(Clock::now() -
                                                          it->second)
                    .count();
      if (it != outstanding.end()) outstanding.erase(it);
      record(result, response, latency);
    }
  } catch (const std::exception& e) {
    result.error = e.what();
  }
}

/// Open loop: a paced sender and a drainer thread share the connection;
/// offered load never backs off.
void run_open(const RunConfig& config, double conn_qps, std::uint64_t quota,
              std::uint64_t conn_seed,
              const std::vector<util::TraceRecord>& slice,
              ConnResult& result) {
  try {
    net::Client client(config.host, config.port);
    std::mutex mutex;
    std::condition_variable sent_or_done;
    std::unordered_map<std::uint64_t, Clock::time_point> outstanding;
    bool done_sending = false;

    std::thread drainer([&] {
      try {
        while (true) {
          {
            // Block in recv() only while a frame is outstanding: the server
            // answers every frame, so that recv() always returns.  With
            // nothing outstanding a recv() could wait for a frame the sender
            // never sends, if its last response beats `done_sending`.
            std::unique_lock<std::mutex> lock(mutex);
            sent_or_done.wait(lock, [&] {
              return done_sending || !outstanding.empty();
            });
            if (outstanding.empty()) return;
          }
          const auto response = client.recv();
          double latency = 0.0;
          {
            std::lock_guard<std::mutex> lock(mutex);
            const auto it = outstanding.find(response.request_id);
            if (it != outstanding.end()) {
              latency = std::chrono::duration<double, std::micro>(
                            Clock::now() - it->second)
                            .count();
              outstanding.erase(it);
            }
          }
          std::lock_guard<std::mutex> lock(mutex);
          record(result, response, latency);
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mutex);
        if (result.error.empty()) result.error = e.what();
      }
    });

    std::mt19937_64 rng(conn_seed);
    std::uniform_int_distribution<std::uint64_t> pick(
        0, config.items_max > 0 ? config.items_max - 1 : 0);
    const auto start = Clock::now();
    const auto end = start + std::chrono::milliseconds(
                                 config.duration_ms > 0 ? config.duration_ms
                                                        : 1'000);
    // Instantaneous offered rate at elapsed time t.  Flat shape: conn_qps.
    // Diurnal shape: conn_qps * (1 + 0.8 sin(2πt/period)) — oscillates
    // between 0.2x and 1.8x around the same mean, floored away from zero so
    // the night trough still makes forward progress.
    const auto rate_at = [&](Clock::time_point now) {
      if (!config.diurnal) return conn_qps;
      const double t_s = std::chrono::duration<double>(now - start).count();
      const double period_s =
          static_cast<double>(std::max<std::uint64_t>(1, config.period_ms)) /
          1'000.0;
      const double factor =
          1.0 + 0.8 * std::sin(2.0 * 3.14159265358979323846 * t_s / period_s);
      return std::max(conn_qps * factor, conn_qps * 0.05);
    };
    auto next_send = start;
    std::uint64_t next_id = 1;
    std::size_t replay_pos = 0;
    // A sender-side throw (the peer reset mid-run) stops sending; the
    // drainer must still be joined, or its destructor ends the process.
    std::string send_error;
    try {
      while (Clock::now() < end && result.sent < quota) {
        if (conn_qps > 0) {
          std::this_thread::sleep_until(next_send);
          const double rate = rate_at(Clock::now());
          next_send += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(rate > 0 ? 1.0 / rate : 0.0));
        }
        net::RequestFrame frame;
        frame.request_id = next_id++;
        fill_frame(frame, config, slice, replay_pos, rng, pick, result);
        {
          std::lock_guard<std::mutex> lock(mutex);
          outstanding.emplace(frame.request_id, Clock::now());
        }
        sent_or_done.notify_one();
        client.send(frame);
        result.sent += 1;
      }
    } catch (const std::exception& e) {
      send_error = e.what();
      // The frame whose send threw never left: the drainer must not wait
      // for its answer.
      std::lock_guard<std::mutex> lock(mutex);
      outstanding.erase(next_id - 1);
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      done_sending = true;
    }
    sent_or_done.notify_one();
    drainer.join();
    if (result.error.empty()) result.error = send_error;
  } catch (const std::exception& e) {
    if (result.error.empty()) result.error = e.what();
  }
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// One endpoint's merged outcome (multi-target mode drives several).
struct TargetOutcome {
  std::string label;
  ConnResult total;
};

/// Fans `config.connections` out against one endpoint and merges.
TargetOutcome run_target(const RunConfig& config) {
  const std::uint64_t per_conn =
      (config.total_queries + config.connections - 1) / config.connections;
  // Replay: contiguous per-connection slices preserve record order (and the
  // non-decreasing timestamps) within each connection; every record is sent
  // exactly once, so each connection's quota is its slice size.
  std::vector<std::vector<util::TraceRecord>> slices(config.connections);
  if (config.replay != nullptr) {
    const auto& records = *config.replay;
    const std::size_t chunk =
        (records.size() + config.connections - 1) / config.connections;
    for (std::size_t c = 0; c < config.connections; ++c) {
      const std::size_t begin = std::min(c * chunk, records.size());
      const std::size_t end = std::min(begin + chunk, records.size());
      slices[c].assign(records.begin() + static_cast<std::ptrdiff_t>(begin),
                       records.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  std::vector<ConnResult> results(config.connections);
  std::vector<std::thread> threads;
  threads.reserve(config.connections);
  for (std::size_t c = 0; c < config.connections; ++c) {
    const std::uint64_t conn_seed = config.seed * 0x9E3779B97F4A7C15ull + c;
    const std::uint64_t quota =
        config.replay != nullptr ? slices[c].size() : per_conn;
    if (config.open_loop) {
      const double conn_qps =
          config.qps / static_cast<double>(config.connections);
      threads.emplace_back([&, c, conn_seed, conn_qps, quota] {
        run_open(config, conn_qps, quota, conn_seed, slices[c], results[c]);
      });
    } else {
      threads.emplace_back([&, c, conn_seed, quota] {
        run_closed(config, quota, conn_seed, slices[c], results[c]);
      });
    }
  }
  for (auto& t : threads) t.join();

  TargetOutcome outcome;
  outcome.label = config.host + ":" + std::to_string(config.port);
  for (auto& r : results) {
    outcome.total.sent += r.sent;
    outcome.total.received += r.received;
    for (std::size_t s = 0; s < outcome.total.by_status.size(); ++s) {
      outcome.total.by_status[s] += r.by_status[s];
    }
    for (const auto& [epoch, n] : r.ok_by_epoch) {
      outcome.total.ok_by_epoch[epoch] += n;
    }
    outcome.total.latencies_us.insert(outcome.total.latencies_us.end(),
                                      r.latencies_us.begin(),
                                      r.latencies_us.end());
    outcome.total.trace.insert(outcome.total.trace.end(), r.trace.begin(),
                               r.trace.end());
    if (outcome.total.error.empty() && !r.error.empty()) {
      outcome.total.error = r.error;
    }
  }
  return outcome;
}

std::string status_summary(const std::array<std::uint64_t, 8>& by_status) {
  std::string summary;
  for (std::size_t s = 0; s < by_status.size(); ++s) {
    if (by_status[s] == 0) continue;
    if (!summary.empty()) summary += ", ";
    summary +=
        std::string(net::wire_status_name(static_cast<net::WireStatus>(s))) +
        "=" + std::to_string(by_status[s]);
  }
  return summary.empty() ? "(none)" : summary;
}

int run(const Args& args) {
  RunConfig config;
  config.host = args.get("host").value_or("127.0.0.1");
  config.port = tools::parse_port("port", args.get("port").value_or("0"));
  // Multi-endpoint mode: "--targets host:port,host:port" drives every
  // replica of a fleet concurrently with the same workload shape; the
  // conservation law then has to hold per target AND across the fleet.
  std::vector<std::pair<std::string, std::uint16_t>> targets;
  if (const auto csv = args.get("targets")) {
    std::stringstream ss(*csv);
    std::string token;
    while (std::getline(ss, token, ',')) {
      if (token.empty()) continue;
      const auto colon = token.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        throw std::invalid_argument("--targets entries are host:port, got: " +
                                    token);
      }
      targets.emplace_back(token.substr(0, colon),
                           tools::parse_port("targets", token.substr(colon + 1)));
    }
    if (targets.empty()) throw std::invalid_argument("--targets list is empty");
  } else {
    if (config.port == 0) {
      throw std::invalid_argument("--port or --targets is required");
    }
    targets.emplace_back(config.host, config.port);
  }
  config.tenant = args.get("tenant").value_or("default");
  if (!util::valid_id(config.tenant)) {
    throw std::invalid_argument("--tenant must be 1-64 bytes of "
                                "[A-Za-z0-9._-], got: '" + config.tenant + "'");
  }
  const std::string mode = args.get("mode").value_or("closed");
  if (mode != "closed" && mode != "open") {
    throw std::invalid_argument("unknown --mode: " + mode);
  }
  config.open_loop = mode == "open";
  config.connections =
      std::max<std::size_t>(1, args.get_u64("connections", 1));
  config.window = std::max<std::size_t>(1, args.get_u64("window", 1));
  config.total_queries = args.get_u64("queries", 10'000);
  config.duration_ms = args.get_u64("duration-ms", 0);
  config.qps = static_cast<double>(args.get_u64("qps", 0));
  config.items_max = std::max<std::uint64_t>(1, args.get_u64("items-max", 1'000));
  config.seed = args.get_u64("seed", 1);
  config.deadline_us = args.get_u64("deadline-us", 0);
  const std::string shape = args.get("shape").value_or("flat");
  if (shape != "flat" && shape != "diurnal") {
    throw std::invalid_argument("unknown --shape: " + shape);
  }
  config.diurnal = shape == "diurnal";
  config.period_ms = std::max<std::uint64_t>(1, args.get_u64("period-ms", 1'000));
  if (config.diurnal && !config.open_loop) {
    throw std::invalid_argument("--shape diurnal needs --mode open (a closed "
                                "loop has no offered rate to modulate)");
  }
  if (args.has("period-ms") && !config.diurnal) {
    throw std::invalid_argument("--period-ms needs --shape diurnal");
  }
  if (args.has("qps") && !config.open_loop) {
    throw std::invalid_argument("--qps needs --mode open (a closed loop's "
                                "rate is its window)");
  }
  if (config.open_loop && config.qps <= 0) {
    throw std::invalid_argument("--mode open needs --qps");
  }

  // Trace record/replay (see the header comment for semantics).
  const auto trace_record = args.get("trace-record");
  const auto trace_replay = args.get("trace-replay");
  config.record_trace = trace_record.has_value();
  std::vector<util::TraceRecord> replay_records;
  if (trace_replay) {
    if (targets.size() > 1) {
      throw std::invalid_argument("--trace-replay drives a single target");
    }
    replay_records = util::load_trace_file(*trace_replay);
    if (replay_records.empty()) {
      throw std::invalid_argument("--trace-replay: trace has no records");
    }
    // --queries caps the replay; otherwise the whole log is sent once.
    if (args.has("queries")) {
      const auto cap = args.get_u64("queries", replay_records.size());
      if (cap < replay_records.size()) replay_records.resize(cap);
    }
    config.total_queries = replay_records.size();
    config.replay = &replay_records;
  }

  // Each target gets an equal share of the query budget and its own set of
  // connections; targets run concurrently (the fleet sees simultaneous
  // load, as it would from a real front door).
  const std::uint64_t per_target =
      (config.total_queries + targets.size() - 1) / targets.size();
  std::vector<TargetOutcome> outcomes(targets.size());
  std::vector<std::thread> target_threads;
  target_threads.reserve(targets.size());
  const auto t0 = Clock::now();
  config.epoch = t0;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    RunConfig target_config = config;
    target_config.host = targets[t].first;
    target_config.port = targets[t].second;
    target_config.total_queries = per_target;
    target_config.seed = config.seed + t * 0x9E37ull;
    target_threads.emplace_back([t, target_config, &outcomes] {
      outcomes[t] = run_target(target_config);
    });
  }
  for (auto& t : target_threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  ConnResult total;
  for (auto& outcome : outcomes) {
    auto& r = outcome.total;
    total.sent += r.sent;
    total.received += r.received;
    for (std::size_t s = 0; s < total.by_status.size(); ++s) {
      total.by_status[s] += r.by_status[s];
    }
    for (const auto& [epoch, n] : r.ok_by_epoch) {
      total.ok_by_epoch[epoch] += n;
    }
    total.latencies_us.insert(total.latencies_us.end(), r.latencies_us.begin(),
                              r.latencies_us.end());
    total.trace.insert(total.trace.end(), r.trace.begin(), r.trace.end());
    if (total.error.empty() && !r.error.empty()) total.error = r.error;
  }
  if (config.record_trace) {
    // Merge across connections/targets into one timestamp-ordered log
    // (stable: same-instant frames keep their merge order).
    std::stable_sort(total.trace.begin(), total.trace.end(),
                     [](const util::TraceRecord& a, const util::TraceRecord& b) {
                       return a.timestamp_us < b.timestamp_us;
                     });
    util::save_trace_file(total.trace, *trace_record);
    std::cerr << "recorded " << total.trace.size() << " requests to "
              << *trace_record << "\n";
  }
  std::sort(total.latencies_us.begin(), total.latencies_us.end());
  const double p50 = percentile(total.latencies_us, 0.50);
  const double p95 = percentile(total.latencies_us, 0.95);
  const double p99 = percentile(total.latencies_us, 0.99);
  const double qps =
      elapsed_s > 0 ? static_cast<double>(total.received) / elapsed_s : 0.0;
  const std::uint64_t ok =
      total.by_status[static_cast<std::size_t>(net::WireStatus::kOk)];
  // Conservation must hold per target and therefore across them: a violated
  // target cannot hide behind a surplus on a sibling.
  bool conserved = total.sent == total.received;
  for (const auto& outcome : outcomes) {
    conserved = conserved && outcome.total.sent == outcome.total.received;
  }

  if (args.has("json")) {
    std::ostringstream json;
    json << "{\"mode\":\"" << mode << "\",\"shape\":\"" << shape
         << "\",\"connections\":"
         << config.connections << ",\"window\":" << config.window
         << ",\"sent\":" << total.sent << ",\"received\":" << total.received
         << ",\"qps\":" << qps << ",\"p50_us\":" << p50 << ",\"p95_us\":"
         << p95 << ",\"p99_us\":" << p99 << ",\"conserved\":"
         << (conserved ? "true" : "false");
    json << ",\"ok_by_epoch\":{";
    bool first_epoch = true;
    for (const auto& [epoch, n] : total.ok_by_epoch) {
      if (!first_epoch) json << ",";
      first_epoch = false;
      json << "\"" << epoch << "\":" << n;
    }
    json << "}";
    for (std::size_t s = 0; s < total.by_status.size(); ++s) {
      json << ",\"" << net::wire_status_name(static_cast<net::WireStatus>(s))
           << "\":" << total.by_status[s];
    }
    json << ",\"targets\":[";
    for (std::size_t t = 0; t < outcomes.size(); ++t) {
      const auto& outcome = outcomes[t];
      if (t > 0) json << ",";
      json << "{\"target\":\"" << outcome.label
           << "\",\"sent\":" << outcome.total.sent
           << ",\"received\":" << outcome.total.received << ",\"conserved\":"
           << (outcome.total.sent == outcome.total.received ? "true" : "false");
      for (std::size_t s = 0; s < outcome.total.by_status.size(); ++s) {
        json << ",\""
             << net::wire_status_name(static_cast<net::WireStatus>(s))
             << "\":" << outcome.total.by_status[s];
      }
      json << "}";
    }
    json << "]}";
    std::cout << json.str() << std::endl;
  } else {
    util::Table table({"metric", "value"});
    table.row().cell("mode").cell(config.diurnal ? mode + " (diurnal)" : mode);
    table.row().cell("connections x window").cell(
        std::to_string(config.connections) + " x " +
        std::to_string(config.window));
    table.row().cell("sent / received").cell(std::to_string(total.sent) +
                                             " / " +
                                             std::to_string(total.received));
    table.row().cell("by status").cell(status_summary(total.by_status));
    if (!total.ok_by_epoch.empty()) {
      std::string by_epoch;
      for (const auto& [epoch, n] : total.ok_by_epoch) {
        if (!by_epoch.empty()) by_epoch += ", ";
        by_epoch += "e" + std::to_string(epoch) + "=" + std::to_string(n);
      }
      table.row().cell("ok by served epoch").cell(by_epoch);
    }
    table.row().cell("ok fraction").cell(
        total.received > 0
            ? static_cast<double>(ok) / static_cast<double>(total.received)
            : 0.0);
    table.row().cell("achieved qps").cell(qps, 0);
    table.row().cell("p50 / p95 / p99 us").cell(
        std::to_string(static_cast<std::uint64_t>(p50)) + " / " +
        std::to_string(static_cast<std::uint64_t>(p95)) + " / " +
        std::to_string(static_cast<std::uint64_t>(p99)));
    table.row().cell("wire conservation").cell(conserved ? "HOLDS"
                                                         : "VIOLATED");
    table.print(std::cout, "loadgen");
    if (outcomes.size() > 1) {
      util::Table per_target({"target", "sent / received", "by status",
                              "conserved"});
      for (const auto& outcome : outcomes) {
        per_target.row()
            .cell(outcome.label)
            .cell(std::to_string(outcome.total.sent) + " / " +
                  std::to_string(outcome.total.received))
            .cell(status_summary(outcome.total.by_status))
            .cell(outcome.total.sent == outcome.total.received ? "HOLDS"
                                                               : "VIOLATED");
      }
      per_target.print(std::cout, "per target");
    }
  }
  if (args.has("shutdown")) {
    // Ask every --allow-shutdown server to exit (scripted runs / CI smoke).
    for (const auto& [host, port] : targets) {
      net::Client client(host, port);
      net::RequestFrame frame;
      frame.flags = net::RequestFrame::kFlagShutdown;
      frame.tenant = config.tenant;
      const auto response = client.call(frame);
      std::cerr << "shutdown " << host << ":" << port << " -> "
                << net::wire_status_name(response.status) << "\n";
    }
  }
  if (!total.error.empty()) {
    std::cerr << "error: " << total.error << "\n";
    return 2;
  }
  return conserved ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Args(argc, argv, 1,
                    {{"host", "port", "targets", "tenant", "mode", "connections",
                      "window", "queries", "duration-ms", "qps", "items-max",
                      "seed", "deadline-us", "shape", "period-ms", "trace-record",
                      "trace-replay"},
                     {"json", "shutdown"}}));
  } catch (const std::invalid_argument& e) {
    std::cerr << "usage error: " << e.what() << "\n"
              << "usage: lcaknap_loadgen (--port P [--host H] |"
                 " --targets host:port,host:port)\n"
                 "  [--tenant ID] [--mode closed|open] [--connections C]\n"
                 "  [--window W] [--queries N] [--duration-ms D] [--qps R]\n"
                 "  [--shape flat|diurnal] [--period-ms P]\n"
                 "  [--items-max M] [--seed S] [--deadline-us D] [--json]\n"
                 "  [--shutdown] [--trace-record FILE] [--trace-replay FILE]\n"
                 "--targets drives every endpoint concurrently (the query\n"
                 "budget splits evenly); the report adds a per-target status\n"
                 "table and conservation must hold per target and across\n"
                 "them (exit 2 otherwise).\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
