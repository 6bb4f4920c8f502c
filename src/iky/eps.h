#ifndef LCAKNAP_IKY_EPS_H
#define LCAKNAP_IKY_EPS_H

#include <span>
#include <vector>

#include "knapsack/instance.h"

/// \file eps.h
/// Equally Partitioning Sequences (Definition 4.3).  A non-increasing
/// sequence of efficiency thresholds e_1 >= ... >= e_t is an EPS for I when
/// every efficiency band of small items carries profit mass in
/// [eps, eps + eps^2) (the last band in [0, eps + eps^2)).
///
/// The thresholds Algorithm 2 serves are estimated in core/lca_kp.cpp
/// (`LcaKp::compute_thresholds`): reproducible quantiles
/// (reproducible::rquantile) of the small items' grid efficiencies, or, in
/// the `reproducible_quantiles = false` ablation, the plain empirical
/// quantiles of the [IKY12] route — accurate but *not reproducible*, the
/// consistency failure the paper identifies in Section 1.1.  This header
/// holds the offline references those estimates are checked against.

namespace lcaknap::iky {

/// Exact offline EPS: walks the small items by decreasing efficiency and
/// cuts a threshold whenever ~eps of profit mass has accumulated.  This is
/// the ground-truth sequence sampled estimators approximate; used by tests
/// and benches as the reference.  May return fewer thresholds than an
/// estimator would when efficiency atoms exceed eps (see DESIGN.md, finding
/// F2).
[[nodiscard]] std::vector<double> exact_eps(const knapsack::Instance& instance,
                                            double eps);

/// Offline EPS validity check against a fully known instance (Definition
/// 4.3), used by tests and benches.  `thresholds` are normalized efficiency
/// values, non-increasing.  `slack` loosens the band bounds to absorb
/// sampling error: bands must lie in [eps - slack, eps + eps^2 + slack).
struct EpsValidity {
  bool valid = false;
  /// Profit mass of band k (band 0 = efficiencies >= e_1; band k in
  /// [e_{k+1}, e_k); band t = below e_t), over small items only.
  std::vector<double> band_masses;
};
[[nodiscard]] EpsValidity check_eps(const knapsack::Instance& instance,
                                    std::span<const double> thresholds, double eps,
                                    double slack = 0.0);

}  // namespace lcaknap::iky

#endif  // LCAKNAP_IKY_EPS_H
