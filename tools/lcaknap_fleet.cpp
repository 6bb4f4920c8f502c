// lcaknap_fleet — replica-fleet orchestrator, chaos driller, and
// cross-replica consistency checker (docs/FLEET.md, experiment E21).
//
//   lcaknap_fleet drill --cli PATH --in FILE [--groups 3] [--queries 400]
//     [--items-max 64] [--kill-after 120] [--eps E] [--seed S] [--tape T]
//     [--tenant ID] [--work-dir DIR] [--budget-us B] [--max-attempts N]
//     [--chaos-plan SPEC] [--chaos-seed S] [--corrupt-shipment]
//     [--vnodes V] [--ring-seed S] [--check-items N] [--json]
//
//   lcaknap_fleet check --targets host:port,host:port [--tenant ID]
//     [--queries 64] [--items-max 64] [--seed S] [--json]
//
//   lcaknap_fleet map --groups N [--vnodes 64] [--ring-seed S]
//     --tenant-list a,b,c
//
// `drill` spawns one `lcaknap_cli serve --listen` process per replica group
// (distinct --replica-id, own --snapshot-dir), storms queries through a
// `fleet::FleetClient`, SIGKILLs a serving replica mid-storm (and/or runs a
// replica-granularity `--chaos-plan` through `fleet::ReplicaChaos`: kill,
// SIGSTOP/SIGCONT brownout, snapshot corruption in flight), then bootstraps
// a replacement from a snapshot shipped off a survivor, waits for its
// health frame to report warm, and verifies the replacement answers are
// digest-identical to the answers observed before the kill.  The exit
// ledger asserts the fleet conservation law
//
//   offered == ok + failed_over + degraded + overloaded + deadline + error
//
// and zero cross-replica divergences (Lemma 4.9 over the fleet).
//
// Exit codes: 0 success, 1 usage/spawn error, 2 a drilled invariant failed
// (conservation violated, divergence found, replacement answers mismatched,
// or the replacement never warmed).

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <deque>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "fleet/bootstrap.h"
#include "fleet/chaos.h"
#include "fleet/checker.h"
#include "fleet/client.h"
#include "fleet/map.h"
#include "net/client.h"
#include "net/wire.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/virtual_clock.h"

#include "args.h"

namespace {

using namespace lcaknap;
using tools::Args;
using tools::FlagSpec;

/// One spawned `lcaknap_cli serve --listen` replica process.
struct ReplicaProcess {
  pid_t pid = -1;
  int stdout_fd = -1;
  std::uint16_t port = 0;
  std::uint64_t replica_id = 0;
  std::uint64_t group = 0;
  std::string snapshot_dir;
  std::string pending;  ///< buffered child stdout
  bool alive = false;
};

/// Owns every child; best-effort SIGKILL + reap on unwind so a failed drill
/// never leaves replica processes behind.
class Fleet {
 public:
  ~Fleet() {
    for (auto& replica : replicas_) kill_replica(replica);
  }

  /// fork/exec one replica and parse its "listening on 127.0.0.1:PORT"
  /// announcement (the CLI prints it only once warm).  Throws on spawn
  /// failure or a child that exits/never announces within `timeout_ms`.
  ReplicaProcess& spawn(const std::string& cli,
                        const std::vector<std::string>& flags,
                        std::uint64_t replica_id, std::uint64_t group,
                        const std::string& snapshot_dir, int timeout_ms) {
    int fds[2];
    if (pipe(fds) != 0) {
      throw std::system_error(errno, std::generic_category(), "pipe");
    }
    const pid_t pid = fork();
    if (pid < 0) {
      throw std::system_error(errno, std::generic_category(), "fork");
    }
    if (pid == 0) {
      // Child: stdout+stderr onto the pipe, then exec the CLI.
      dup2(fds[1], STDOUT_FILENO);
      dup2(fds[1], STDERR_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::vector<std::string> argv_store;
      argv_store.push_back(cli);
      for (const auto& flag : flags) argv_store.push_back(flag);
      std::vector<char*> argv;
      argv.reserve(argv_store.size() + 1);
      for (auto& arg : argv_store) argv.push_back(arg.data());
      argv.push_back(nullptr);
      execv(cli.c_str(), argv.data());
      perror("execv");
      _exit(127);
    }
    close(fds[1]);
    ReplicaProcess replica;
    replica.pid = pid;
    replica.stdout_fd = fds[0];
    replica.replica_id = replica_id;
    replica.group = group;
    replica.snapshot_dir = snapshot_dir;
    replica.alive = true;
    replicas_.push_back(std::move(replica));
    auto& stored = replicas_.back();
    stored.port = await_port(stored, timeout_ms);
    return stored;
  }

  void kill_replica(ReplicaProcess& replica) {
    if (!replica.alive) return;
    ::kill(replica.pid, SIGKILL);
    int status = 0;
    waitpid(replica.pid, &status, 0);
    if (replica.stdout_fd >= 0) {
      close(replica.stdout_fd);
      replica.stdout_fd = -1;
    }
    replica.alive = false;
  }

  /// Deque, not vector: spawning the replacement must not invalidate the
  /// victim/survivor references the drill holds into earlier replicas.
  [[nodiscard]] std::deque<ReplicaProcess>& replicas() { return replicas_; }

 private:
  [[nodiscard]] std::uint16_t await_port(ReplicaProcess& replica,
                                         int timeout_ms) {
    const std::string needle = "listening on 127.0.0.1:";
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    char buffer[4096];
    while (std::chrono::steady_clock::now() < deadline) {
      const auto at = replica.pending.find(needle);
      if (at != std::string::npos) {
        const auto end = replica.pending.find('\n', at);
        if (end != std::string::npos) {
          return static_cast<std::uint16_t>(std::stoul(
              replica.pending.substr(at + needle.size(),
                                     end - at - needle.size())));
        }
      }
      pollfd pfd{replica.stdout_fd, POLLIN, 0};
      const int ready = poll(&pfd, 1, 100);
      if (ready <= 0) continue;
      const auto got = read(replica.stdout_fd, buffer, sizeof(buffer));
      if (got <= 0) break;  // child died before announcing
      replica.pending.append(buffer, static_cast<std::size_t>(got));
    }
    kill_replica(replica);
    throw std::runtime_error("replica " + std::to_string(replica.replica_id) +
                             " never announced a listen port; output so far:\n" +
                             replica.pending);
  }

  std::deque<ReplicaProcess> replicas_;
};

/// Draws drill items deterministically so re-running a drill replays the
/// same query sequence (timestamps aside).
std::uint64_t drill_item(const util::Prf& prf, std::uint64_t index,
                         std::uint64_t items_max) {
  return prf.word(1, index) % items_max;
}

int cmd_drill(const Args& args) {
  const auto cli = args.require("cli");
  const auto instance = args.require("in");
  const auto groups = args.get_u64("groups", 3);
  const auto queries = args.get_u64("queries", 400);
  const auto items_max = std::max<std::uint64_t>(1, args.get_u64("items-max", 64));
  const auto kill_after = args.get_u64("kill-after", queries / 3);
  const auto tenant = args.get("tenant").value_or("default");
  const auto check_items =
      std::min<std::uint64_t>(args.get_u64("check-items", 32), items_max);
  const bool json = args.has("json");
  if (groups < 2) {
    throw std::invalid_argument("--groups must be >= 2 (failover needs a sibling)");
  }

  const std::string work_dir = args.get("work-dir").value_or(
      (std::filesystem::temp_directory_path() /
       ("lcaknap_fleet_" + std::to_string(getpid())))
          .string());
  std::filesystem::create_directories(work_dir);

  const std::string eps = std::to_string(args.get_double("eps", 0.1));
  const std::string seed = std::to_string(args.get_u64("seed", 0xC0DE));
  const std::string tape = std::to_string(args.get_u64("tape", 7));
  auto serve_flags = [&](const std::string& snapshot_dir,
                         std::uint64_t replica_id) {
    return std::vector<std::string>{
        "serve",           "--listen",      "0",
        "--in",            instance,        "--instance-id", tenant,
        "--eps",           eps,             "--seed",        seed,
        "--tape",          tape,            "--snapshot-dir", snapshot_dir,
        "--replica-id",    std::to_string(replica_id)};
  };

  Fleet fleet;
  auto& clock = util::system_clock();
  const auto fleet_start_us = clock.now_us();
  for (std::uint64_t g = 0; g < groups; ++g) {
    const std::string dir = work_dir + "/group" + std::to_string(g);
    fleet.spawn(cli, serve_flags(dir, g + 1), g + 1, g, dir, 30'000);
  }
  std::uint64_t initial_warm_us = 0;
  for (auto& replica : fleet.replicas()) {
    if (!fleet::wait_ready("127.0.0.1", replica.port, {tenant}, 30'000'000,
                           clock)) {
      std::cerr << "replica " << replica.replica_id << " never warmed\n";
      return 1;
    }
  }
  initial_warm_us = clock.now_us() - fleet_start_us;

  fleet::FleetClientConfig client_config;
  client_config.map.vnodes =
      static_cast<std::size_t>(args.get_u64("vnodes", 64));
  client_config.map.seed = args.get_u64("ring-seed", 0xF1EE7);
  client_config.max_attempts =
      static_cast<std::size_t>(args.get_u64("max-attempts", groups));
  client_config.attempt_budget_us = args.get_u64("budget-us", 2'000'000);
  for (const auto& replica : fleet.replicas()) {
    client_config.replicas.push_back(
        {replica.replica_id, replica.group, "127.0.0.1", replica.port});
  }
  fleet::FleetClient client(std::move(client_config), clock);

  // Optional replica-granularity chaos schedule, delivered with real
  // process-level hooks (SIGKILL / SIGSTOP+SIGCONT / on-disk corruption).
  std::optional<fleet::ReplicaChaos> chaos;
  std::vector<std::pair<pid_t, std::uint64_t>> paused;  // pid, resume at us
  if (const auto plan_spec = args.get("chaos-plan")) {
    std::vector<fleet::ReplicaTarget> targets;
    for (const auto& replica : fleet.replicas()) {
      targets.push_back({replica.replica_id,
                         "group" + std::to_string(replica.group)});
    }
    fleet::ChaosHooks hooks;
    hooks.kill = [&fleet](const fleet::ReplicaTarget& target) {
      for (auto& replica : fleet.replicas()) {
        if (replica.replica_id == target.replica_id) fleet.kill_replica(replica);
      }
    };
    hooks.brownout = [&fleet, &paused, &clock](
                         const fleet::ReplicaTarget& target,
                         std::uint64_t pause_us) {
      for (auto& replica : fleet.replicas()) {
        if (replica.replica_id == target.replica_id && replica.alive) {
          ::kill(replica.pid, SIGSTOP);
          paused.emplace_back(replica.pid, clock.now_us() + pause_us);
        }
      }
    };
    hooks.corrupt_snapshot = [&fleet, &tenant](
                                 const fleet::ReplicaTarget& target) {
      for (auto& replica : fleet.replicas()) {
        if (replica.replica_id != target.replica_id) continue;
        const auto snap = replica.snapshot_dir + "/" + tenant + ".snap";
        if (std::filesystem::exists(snap)) {
          fleet::corrupt_snapshot_byte(snap, 64);
        }
      }
    };
    chaos.emplace(fault::parse_fault_plan(*plan_spec,
                                          args.get_u64("chaos-seed", 0xC405)),
                  std::move(targets), std::move(hooks), clock);
    chaos->arm();
  }

  // The storm.  Baseline answers recorded from every served response: by
  // Lemma 4.9 they are the answers, whoever served them.
  std::map<std::uint64_t, bool> baseline;
  const util::Prf items(args.get_u64("seed", 0xC0DE) ^ 0xD811);
  ReplicaProcess* victim = nullptr;
  for (std::uint64_t q = 0; q < queries; ++q) {
    if (q == kill_after) {
      // Kill the tenant's home-group replica: the next queries must fail
      // over to a sibling mid-storm.
      const auto home = client.map().group_of(tenant);
      for (auto& replica : fleet.replicas()) {
        if (replica.group == home && replica.alive) {
          victim = &replica;
          fleet.kill_replica(replica);
          break;
        }
      }
    }
    if (chaos && q % 25 == 0) chaos->tick();
    const auto now = clock.now_us();
    for (auto it = paused.begin(); it != paused.end();) {
      if (now >= it->second) {
        ::kill(it->first, SIGCONT);
        it = paused.erase(it);
      } else {
        ++it;
      }
    }
    const auto item = drill_item(items, q, items_max);
    const auto result = client.query(tenant, item);
    if ((result.disposition == fleet::Disposition::kOk ||
         result.disposition == fleet::Disposition::kFailedOver)) {
      baseline.emplace(item, result.answer);
    }
  }
  for (const auto& [pid, resume_at] : paused) ::kill(pid, SIGCONT);
  paused.clear();

  // Snapshot-shipped bootstrap: replacement hydrates from a survivor's
  // verified .snap, never from the victim's possibly-corrupt directory.
  const ReplicaProcess* survivor = nullptr;
  for (const auto& replica : fleet.replicas()) {
    if (replica.alive) {
      survivor = &replica;
      break;
    }
  }
  if (survivor == nullptr) {
    std::cerr << "no survivor to ship a snapshot from\n";
    return 1;
  }
  const std::string replacement_dir = work_dir + "/replacement";
  const auto shipped = fleet::ship_snapshot(
      survivor->snapshot_dir + "/" + tenant + ".snap", replacement_dir, tenant);
  if (args.has("corrupt-shipment")) {
    // Chaos in flight: the replacement must typed-reject the shipment and
    // fall back to a live warm-up — slower, but never served.
    fleet::corrupt_snapshot_byte(shipped.path, 64);
  }
  const std::uint64_t replacement_group =
      victim != nullptr ? victim->group : survivor->group;
  const std::uint64_t replacement_id = 100 + replacement_group;
  const auto bootstrap_start_us = clock.now_us();
  auto& replacement =
      fleet.spawn(cli, serve_flags(replacement_dir, replacement_id),
                  replacement_id, replacement_group, replacement_dir, 30'000);
  const bool replacement_warm = fleet::wait_ready(
      "127.0.0.1", replacement.port, {tenant}, 30'000'000, clock);
  const auto bootstrap_us = clock.now_us() - bootstrap_start_us;

  // Digest-identical verification: the replacement must reproduce every
  // baseline answer, byte for byte.
  std::uint64_t verified = 0;
  std::uint64_t mismatched = 0;
  if (replacement_warm) {
    net::Client direct("127.0.0.1", replacement.port);
    std::uint64_t request_id = 1;
    for (const auto& [item, answer] : baseline) {
      net::RequestFrame request;
      request.request_id = request_id++;
      request.item = item;
      request.tenant = tenant;
      const auto response = direct.call(request);
      if (response.status == net::WireStatus::kOk &&
          (response.answer != 0) == answer) {
        ++verified;
      } else {
        ++mismatched;
      }
    }
  }

  // Cross-replica consistency over everyone still serving.
  std::vector<fleet::CheckerEndpoint> endpoints;
  for (const auto& replica : fleet.replicas()) {
    if (replica.alive) {
      endpoints.push_back({replica.replica_id, "127.0.0.1", replica.port});
    }
  }
  fleet::ConsistencyChecker checker(std::move(endpoints));
  for (std::uint64_t i = 0; i < check_items; ++i) {
    checker.check(tenant, drill_item(items, i, items_max));
  }

  const auto stats = client.stats();
  const auto& report = checker.report();
  const bool conserved = stats.conserved();
  const bool served_everything =
      stats.by_disposition[static_cast<std::size_t>(fleet::Disposition::kOk)] +
          stats.by_disposition[static_cast<std::size_t>(
              fleet::Disposition::kFailedOver)] >
      0;
  const bool ok = conserved && report.consistent() && replacement_warm &&
                  mismatched == 0 && served_everything;

  if (json) {
    std::cout << "{\"offered\":" << stats.offered;
    for (std::size_t d = 0; d < fleet::kDispositionCount; ++d) {
      std::cout << ",\"" << fleet::disposition_name(
                       static_cast<fleet::Disposition>(d))
                << "\":" << stats.by_disposition[d];
    }
    std::cout << ",\"conserved\":" << (conserved ? "true" : "false")
              << ",\"failover_attempts\":" << stats.failover_attempts
              << ",\"checks\":" << report.checks
              << ",\"divergences\":" << report.divergences
              << ",\"unavailable\":" << report.unavailable
              << ",\"replacement_warm\":" << (replacement_warm ? "true" : "false")
              << ",\"replacement_verified\":" << verified
              << ",\"replacement_mismatched\":" << mismatched
              << ",\"initial_warm_us\":" << initial_warm_us
              << ",\"bootstrap_us\":" << bootstrap_us
              << ",\"shipped_bytes\":" << shipped.bytes
              << ",\"chaos_events\":" << (chaos ? chaos->events().size() : 0)
              << "}" << std::endl;
  } else {
    util::Table table({"metric", "value"});
    table.row().cell("groups / queries").cell(std::to_string(groups) + " / " +
                                              std::to_string(queries));
    table.row().cell("offered").cell(stats.offered);
    std::string by_disposition;
    for (std::size_t d = 0; d < fleet::kDispositionCount; ++d) {
      if (stats.by_disposition[d] == 0) continue;
      if (!by_disposition.empty()) by_disposition += ", ";
      by_disposition += std::string(fleet::disposition_name(
                            static_cast<fleet::Disposition>(d))) +
                        "=" + std::to_string(stats.by_disposition[d]);
    }
    table.row().cell("by disposition").cell(
        by_disposition.empty() ? "(none)" : by_disposition);
    table.row().cell("fleet conservation").cell(conserved ? "HOLDS"
                                                          : "VIOLATED");
    table.row().cell("failover attempts / backoff slept us")
        .cell(std::to_string(stats.failover_attempts) + " / " +
              std::to_string(stats.backoff_sleep_us));
    table.row().cell("checker probes / comparisons")
        .cell(std::to_string(report.checks) + " / " +
              std::to_string(report.comparisons));
    table.row().cell("divergences (must be 0)").cell(report.divergences);
    table.row().cell("checker unavailable").cell(report.unavailable);
    table.row().cell("replacement warm").cell(replacement_warm ? "yes" : "NO");
    table.row().cell("replacement answers verified / mismatched")
        .cell(std::to_string(verified) + " / " + std::to_string(mismatched));
    table.row().cell("initial spawn-to-warm us").cell(initial_warm_us);
    table.row().cell("replacement bootstrap-to-warm us").cell(bootstrap_us);
    table.row().cell("snapshot shipped bytes").cell(shipped.bytes);
    if (chaos) {
      table.row().cell("chaos events").cell(chaos->events().size());
    }
    table.print(std::cout, "fleet drill");
    std::cout << (ok ? "DRILL PASSED" : "DRILL FAILED") << std::endl;
  }
  return ok ? 0 : 2;
}

int cmd_check(const Args& args) {
  const auto targets_csv = args.require("targets");
  const auto tenant = args.get("tenant").value_or("default");
  const auto queries = args.get_u64("queries", 64);
  const auto items_max = std::max<std::uint64_t>(1, args.get_u64("items-max", 64));
  const bool json = args.has("json");

  std::vector<fleet::CheckerEndpoint> endpoints;
  std::stringstream ss(targets_csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    const auto colon = token.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      throw std::invalid_argument("--targets entries are host:port, got: " +
                                  token);
    }
    fleet::CheckerEndpoint endpoint;
    endpoint.replica_id = endpoints.size() + 1;
    endpoint.host = token.substr(0, colon);
    endpoint.port = tools::parse_port("targets", token.substr(colon + 1));
    endpoints.push_back(std::move(endpoint));
  }

  fleet::ConsistencyChecker checker(std::move(endpoints));
  const util::Prf items(args.get_u64("seed", 0xC0DE) ^ 0xD811);
  for (std::uint64_t i = 0; i < queries; ++i) {
    checker.check(tenant, drill_item(items, i, items_max));
  }
  const auto& report = checker.report();
  if (json) {
    std::cout << "{\"checks\":" << report.checks
              << ",\"comparisons\":" << report.comparisons
              << ",\"divergences\":" << report.divergences
              << ",\"unavailable\":" << report.unavailable
              << ",\"non_ok\":" << report.non_ok << "}" << std::endl;
  } else {
    util::Table table({"metric", "value"});
    table.row().cell("probes").cell(report.checks);
    table.row().cell("comparisons").cell(report.comparisons);
    table.row().cell("divergences (must be 0)").cell(report.divergences);
    table.row().cell("unavailable").cell(report.unavailable);
    table.row().cell("non-answer statuses").cell(report.non_ok);
    table.print(std::cout, "fleet check");
    for (const auto& divergence : report.details) {
      std::cerr << "DIVERGENCE tenant=" << divergence.tenant
                << " item=" << divergence.item << ":";
      for (const auto& seen : divergence.observations) {
        std::cerr << " replica" << seen.replica_id << "="
                  << (seen.reachable
                          ? std::string(net::wire_status_name(seen.status)) +
                                "/" + (seen.answer ? "1" : "0")
                          : std::string("unreachable"));
      }
      std::cerr << "\n";
    }
  }
  return report.consistent() ? 0 : 2;
}

int cmd_map(const Args& args) {
  const auto groups = args.get_u64("groups", 3);
  fleet::FleetMapConfig config;
  config.vnodes = static_cast<std::size_t>(args.get_u64("vnodes", 64));
  config.seed = args.get_u64("ring-seed", 0xF1EE7);
  fleet::FleetMap map(config);
  for (std::uint64_t g = 0; g < groups; ++g) map.add_group(g);

  util::Table table({"tenant", "home group", "failover order"});
  std::stringstream ss(args.get("tenant-list").value_or("default"));
  std::string tenant;
  while (std::getline(ss, tenant, ',')) {
    if (tenant.empty()) continue;
    map.track(tenant);
    std::string order;
    for (const auto group : map.preference_of(tenant)) {
      if (!order.empty()) order += " -> ";
      order += std::to_string(group);
    }
    table.row().cell(tenant).cell(map.group_of(tenant)).cell(order);
  }
  table.print(std::cout, "fleet map (seed " + std::to_string(config.seed) +
                             ", " + std::to_string(config.vnodes) +
                             " vnodes)");
  return 0;
}

void usage() {
  std::cerr <<
      "usage: lcaknap_fleet <drill|check|map> [flags]\n"
      "  drill --cli PATH --in FILE [--groups 3] [--queries 400]\n"
      "        [--items-max 64] [--kill-after Q] [--tenant ID]\n"
      "        [--eps E] [--seed S] [--tape T] [--work-dir DIR]\n"
      "        [--budget-us B] [--max-attempts N] [--vnodes V] [--ring-seed S]\n"
      "        [--chaos-plan SPEC] [--chaos-seed S] [--corrupt-shipment]\n"
      "        [--check-items N] [--json]\n"
      "  check --targets host:port,host:port [--tenant ID] [--queries 64]\n"
      "        [--items-max 64] [--seed S] [--json]\n"
      "  map   --groups N [--vnodes 64] [--ring-seed S] --tenant-list a,b,c\n"
      "drill spawns one 'lcaknap_cli serve --listen' replica per group, storms\n"
      "queries through the failover client, SIGKILLs the serving replica\n"
      "mid-storm, bootstraps a replacement from a snapshot shipped off a\n"
      "survivor, and asserts: fleet conservation, zero cross-replica answer\n"
      "divergences, and a digest-identical replacement (docs/FLEET.md).\n"
      "Exit: 0 ok, 1 usage/spawn error, 2 a drilled invariant failed.\n";
}

/// The flags `command` accepts, or nullopt for an unknown command.
std::optional<FlagSpec> command_flags(const std::string& command) {
  if (command == "drill") {
    return FlagSpec{{"cli", "in", "groups", "queries", "items-max", "kill-after",
                     "tenant", "check-items", "work-dir", "eps", "seed", "tape",
                     "vnodes", "ring-seed", "max-attempts", "budget-us",
                     "chaos-plan", "chaos-seed"},
                    {"json", "corrupt-shipment"}};
  }
  if (command == "check") {
    return FlagSpec{{"targets", "tenant", "queries", "items-max", "seed"}, {"json"}};
  }
  if (command == "map") {
    return FlagSpec{{"groups", "vnodes", "ring-seed", "tenant-list"}, {}};
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto spec = argc < 2 ? std::nullopt : command_flags(argv[1]);
  if (!spec) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv, 2, *spec);
    if (command == "drill") return cmd_drill(args);
    if (command == "check") return cmd_check(args);
    return cmd_map(args);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    usage();
    return 1;
  }
}
