// Ad-budget allocation: a domain scenario for sublinear membership queries.
//
// A marketplace holds one global campaign budget (the knapsack capacity) and
// millions of candidate ad placements, each with an expected revenue (profit)
// and a cost (weight).  Bid servers must answer "is placement X in today's
// portfolio?" within a latency budget — far too tight to scan the whole
// inventory — and every bid server must answer consistently with the others.
// That is exactly the LCA contract: this example runs LCA-KP over a synthetic
// inventory and serves per-placement decisions, then audits the implied
// portfolio.
//
//   ./ad_allocation [placements]

#include <cstdlib>
#include <iostream>

#include "core/lca_kp.h"
#include "core/mapping_greedy.h"
#include "fault/chaos.h"
#include "fault/plan.h"
#include "knapsack/instance.h"
#include "knapsack/solvers/greedy.h"
#include "oracle/access.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/virtual_clock.h"

namespace {

/// Synthetic inventory: a few premium placements (huge expected revenue),
/// a long tail of efficient niche placements, and a swamp of low-value,
/// high-cost ones.
lcaknap::knapsack::Instance build_inventory(std::size_t n, std::uint64_t seed) {
  using lcaknap::knapsack::Item;
  lcaknap::util::Xoshiro256 rng(seed);
  std::vector<Item> items;
  items.reserve(n);
  const std::size_t premium = 8;
  for (std::size_t i = 0; i < premium; ++i) {
    items.push_back({5'000'000 + rng.next_in(0, 1'000'000), rng.next_in(800, 1'500)});
  }
  for (std::size_t i = premium; i < n; ++i) {
    if (rng.next_double() < 0.7) {
      // Niche placements: modest revenue, proportional cost.
      const std::int64_t revenue = rng.next_in(50, 500);
      items.push_back({revenue, std::max<std::int64_t>(1, revenue / 2 + rng.next_in(0, revenue))});
    } else {
      // Swamp: near-worthless but expensive.
      items.push_back({rng.next_in(1, 10), rng.next_in(5'000, 20'000)});
    }
  }
  std::int64_t total_cost = 0;
  std::int64_t max_cost = 0;
  for (const auto& it : items) {
    total_cost += it.weight;
    max_cost = std::max(max_cost, it.weight);
  }
  const std::int64_t budget = std::max(max_cost, total_cost / 5);
  return {std::move(items), budget};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lcaknap;

  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100'000;
  const auto inventory = build_inventory(n, 2026);
  std::cout << "inventory: " << n << " placements, budget = "
            << inventory.capacity() << " cost units\n";

  // The inventory service is remote: every call sleeps 120-200 us on a
  // virtual clock, so the report can speak in time, not just counts.
  const oracle::MaterializedAccess store(inventory);
  util::VirtualClock rpc_clock;
  const fault::ChaosAccess remote(store, fault::parse_fault_plan("rpc:0:lat=120..200", 11),
                                  rpc_clock);

  core::LcaKpConfig config;
  config.eps = 0.25;
  config.seed = 0xAD5;
  config.quantile_samples = 200'000;  // latency-conscious serving profile
  const core::LcaKp bidder(remote, config);

  // One bid server warms up (executes its run); decisions are then O(1).
  util::Xoshiro256 tape(5);
  const auto run = bidder.run_pipeline(tape);
  const double warmup_ms = static_cast<double>(rpc_clock.now_us()) / 1'000.0;

  // Serve a burst of placement decisions.
  util::Xoshiro256 traffic(17);
  std::size_t accepted = 0;
  constexpr std::size_t kBids = 2'000;
  for (std::size_t b = 0; b < kBids; ++b) {
    const auto placement = static_cast<std::size_t>(traffic.next_below(n));
    accepted += bidder.answer_from(run, placement) ? 1 : 0;
  }

  // Audit the implied portfolio.
  const auto eval = core::evaluate_run(inventory, bidder, run);
  const double greedy_norm =
      static_cast<double>(knapsack::greedy_half(inventory).solution.value) /
      static_cast<double>(inventory.total_profit());

  util::Table table({"metric", "value"});
  table.row().cell("warm-up cost (simulated ms over RPC)").cell(warmup_ms, 2);
  table.row().cell("decisions served").cell(kBids);
  table.row().cell("acceptance rate").cell(
      static_cast<double>(accepted) / static_cast<double>(kBids));
  table.row().cell("portfolio within budget").cell(eval.feasible ? "yes" : "no");
  table.row().cell("portfolio revenue share").cell(eval.norm_value);
  table.row().cell("offline greedy revenue share").cell(greedy_norm);
  table.row().cell("portfolio size").cell(eval.items.size());
  table.print(std::cout, "ad allocation audit");
  return 0;
}
