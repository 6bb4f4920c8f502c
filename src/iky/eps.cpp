#include "iky/eps.h"

#include <algorithm>
#include <stdexcept>

#include "iky/partition.h"

namespace lcaknap::iky {

std::vector<double> exact_eps(const knapsack::Instance& instance, double eps) {
  if (!(eps > 0.0 && eps < 1.0)) {
    throw std::invalid_argument("exact_eps: eps must be in (0, 1)");
  }
  const Partition part = partition_instance(instance, eps);
  std::vector<std::pair<double, double>> eff_mass;  // (efficiency, profit)
  eff_mass.reserve(part.small.size());
  for (const auto i : part.small) {
    eff_mass.emplace_back(instance.efficiency(i), instance.norm_profit(i));
  }
  std::sort(eff_mass.begin(), eff_mass.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<double> thresholds;
  double acc = 0.0;
  for (const auto& [eff, mass] : eff_mass) {
    acc += mass;
    if (acc >= eps) {
      // Never emit an increasing threshold (possible when one efficiency
      // atom spans several bands' worth of mass).
      if (thresholds.empty() || eff < thresholds.back()) thresholds.push_back(eff);
      acc = 0.0;
    }
  }
  return thresholds;
}

EpsValidity check_eps(const knapsack::Instance& instance,
                      std::span<const double> thresholds, double eps,
                      double slack) {
  for (std::size_t k = 1; k < thresholds.size(); ++k) {
    if (thresholds[k] > thresholds[k - 1]) {
      throw std::invalid_argument("check_eps: thresholds must be non-increasing");
    }
  }
  EpsValidity result;
  result.band_masses.assign(thresholds.size() + 1, 0.0);
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const double p = instance.norm_profit(i);
    if (classify_item(p, instance.efficiency(i), eps) != ItemClass::kSmall) continue;
    const double e = instance.efficiency(i);
    // Band 0: e >= e_1; band k: e_{k+1} <= e < e_k; band t: e < e_t.
    std::size_t band = thresholds.size();
    for (std::size_t k = 0; k < thresholds.size(); ++k) {
      if (e >= thresholds[k]) {
        band = k;
        break;
      }
    }
    result.band_masses[band] += p;
  }
  const double hi = eps + eps * eps + slack;
  const double lo = eps - slack;
  result.valid = true;
  for (std::size_t k = 0; k + 1 < result.band_masses.size(); ++k) {
    if (result.band_masses[k] < lo || result.band_masses[k] >= hi) {
      result.valid = false;
    }
  }
  if (!result.band_masses.empty() && result.band_masses.back() >= hi) {
    result.valid = false;
  }
  return result;
}

}  // namespace lcaknap::iky
