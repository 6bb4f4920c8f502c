#ifndef LCAKNAP_NET_SESSION_H
#define LCAKNAP_NET_SESSION_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/lca_kp.h"
#include "metrics/metrics.h"
#include "net/wire.h"
#include "serve/engine.h"
#include "store/state_store.h"

/// \file session.h
/// The tenant-routing session layer between the wire and the engines.
///
/// A serving process hosts many tenants; each decoded `RequestFrame` names
/// one by instance id.  `TenantRouter` owns one `ServeEngine` per tenant
/// and routes frames:
///
///   route(frame, cb) ── tenant lookup ──> kUnknownTenant (typed, instant)
///                    ── admission quota ─> kOverloaded   (per-tenant cap)
///                    ── tenant not warm ─> kError        (typed, instant)
///                    ── warm tenant ─────> `ServeEngine::submit(item, cb)`
///                        with the frame's relative deadline on the
///                        engine's clock
///
/// `warm_all()` is the one way a tenant's engine comes up, and callers run
/// it before they accept traffic: Theorem 4.1 charges the warm-up once per
/// replica, before its first query.  Each tenant has one source of warm
/// state: the `warm_state` it was registered with, or else the
/// `StateStore` (snapshot-first, single-flight; docs/PERSISTENCE.md).
///
/// Isolation is structural, not cooperative: every tenant has its own
/// engine (queue, workers, cache, breaker/degrade policy) over its own
/// warm state, so a chaos-plan brownout on one tenant's oracle can only
/// consume that tenant's resources — the integration suite pins that a
/// browned-out tenant never changes a healthy tenant's answers.
///
/// `route()` never blocks on evaluation; the callback fires exactly once,
/// from the router thread (rejections) or an engine thread (served
/// answers).  Wire conservation extends the engine law: frames routed ==
/// callbacks fired, with every status accounted.

namespace lcaknap::net {

/// One tenant's serving recipe.  `lca` (and the oracle access behind it)
/// must outlive the router.
struct TenantConfig {
  const core::LcaKp* lca = nullptr;
  /// Engine knobs for this tenant (workers, queue bound, batcher, cache,
  /// degrade, certify...).  A set `warm_state` is the tenant's warm state
  /// (e.g. an epoched tenant's epoch 0) and the store is not asked;
  /// otherwise `warm_all()` takes it from the `StateStore`.
  serve::EngineConfig engine;
  /// Warm-up tape of the tenant's one-time Theorem 4.1 run; part of the
  /// snapshot fingerprint the StateStore verifies.
  std::uint64_t tape_seed = 7;
  /// Per-tenant admission quota: frames in flight in the engine beyond
  /// this are shed kOverloaded before touching it.  The noisy
  /// neighbour bound: one tenant's burst cannot queue out another's.
  std::size_t max_inflight = 1024;
};

/// Where a tenant sits in the hydration state machine, for health/readiness
/// probes (`RequestFrame::kFlagHealth`): only `kWarm` serves answers; frames
/// for a tenant in any other state are answered kError.
enum class TenantReadiness {
  kUnknownTenant,  ///< not registered with this router
  kCold,           ///< registered; `warm_all()` has not reached it yet
  kHydrating,      ///< `warm_all()` is bringing its engine up
  kWarm,           ///< engine up; answers are being served
  kFailed,         ///< hydration failed
};

/// Point-in-time router counters (the wire-level conservation operands).
struct RouterStats {
  std::uint64_t routed = 0;           ///< route() calls accepted for any path
  std::uint64_t completed = 0;        ///< callbacks fired
  std::uint64_t unknown_tenant = 0;   ///< kUnknownTenant rejections
  std::uint64_t quota_shed = 0;       ///< kOverloaded from per-tenant quotas
  std::uint64_t hydrations = 0;       ///< engines brought up
  std::uint64_t hydration_failures = 0;
};

class TenantRouter {
 public:
  TenantRouter(store::StateStore& store,
               metrics::Registry& registry = metrics::global_registry());
  /// Drains every tenant engine: all accepted frames complete before
  /// destruction.
  ~TenantRouter();

  TenantRouter(const TenantRouter&) = delete;
  TenantRouter& operator=(const TenantRouter&) = delete;

  /// Declares a tenant (cold; nothing is warmed until `warm_all()`).
  /// Throws `std::invalid_argument` for an invalid id, a null `lca`, or a
  /// duplicate registration.
  void register_tenant(const std::string& id, TenantConfig config);

  /// Routes one decoded frame; `cb` fires exactly once with the response
  /// (the frame's `request_id` echoed).  Never blocks on evaluation, and
  /// starts no warm-up: a frame for a tenant that is not warm is answered
  /// kError at once.
  void route(const RequestFrame& frame,
             std::function<void(const ResponseFrame&)> cb);

  /// Brings up the engine of every cold tenant, on the caller's thread —
  /// the one way a tenant comes up.  Callers run it before they accept
  /// traffic.  A tenant whose warm-up throws ends `kFailed`.
  void warm_all();

  /// Completes all in-flight work.  Subsequent route() calls are shed
  /// kOverloaded.  Idempotent.
  void drain();

  [[nodiscard]] RouterStats stats() const;
  [[nodiscard]] std::vector<std::string> tenant_ids() const;
  /// The tenant's position in the hydration state machine — the payload of
  /// a health/readiness frame.  Never blocks on hydration.
  [[nodiscard]] TenantReadiness readiness(const std::string& id) const;
  /// The tenant's engine, or nullptr until it is warm (test hook).
  [[nodiscard]] const serve::ServeEngine* engine(const std::string& id) const;
  /// Mutable engine access for the update-applier path (`serve --updates`):
  /// the applier thread calls `advance_epoch` on it between request bursts.
  /// nullptr until the tenant is warm.
  [[nodiscard]] serve::ServeEngine* engine_mut(const std::string& id);

 private:
  enum class TenantState { kCold, kHydrating, kWarm, kFailed };
  struct Tenant {
    TenantConfig config;
    std::mutex mutex;
    TenantState state = TenantState::kCold;
    std::unique_ptr<serve::ServeEngine> engine;
    /// Frames accepted and not yet completed (inside the engine).
    std::atomic<std::size_t> inflight{0};
  };

  void hydrate(const std::string& id, Tenant& tenant);
  void complete(Tenant& tenant, std::uint64_t request_id, WireStatus status,
                const std::function<void(const ResponseFrame&)>& cb,
                bool answer = false, bool cache_hit = false,
                std::uint64_t epoch_id = 0);

  store::StateStore* store_;
  metrics::Registry* registry_;
  metrics::Gauge* tenants_warm_;
  metrics::Counter* hydration_failures_;

  mutable std::mutex mutex_;  ///< guards the tenant map
  std::unordered_map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::atomic<bool> draining_{false};

  std::atomic<std::uint64_t> routed_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> unknown_tenant_{0};
  std::atomic<std::uint64_t> quota_shed_{0};
  std::atomic<std::uint64_t> hydrations_{0};
  std::atomic<std::uint64_t> hydration_failures_count_{0};
};

}  // namespace lcaknap::net

#endif  // LCAKNAP_NET_SESSION_H
