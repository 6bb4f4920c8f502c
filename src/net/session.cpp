#include "net/session.h"

#include <stdexcept>
#include <utility>

namespace lcaknap::net {

TenantRouter::TenantRouter(store::StateStore& store,
                           metrics::Registry& registry)
    : store_(&store),
      registry_(&registry),
      tenants_warm_(&registry.gauge(
          "net_tenants_warm",
          "Tenants with a warm engine in the router (hydrated, serving)")),
      hydration_failures_(&registry.counter(
          "net_hydration_failures_total",
          "Tenant hydrations that failed; the tenant's frames are answered "
          "kError")) {}

TenantRouter::~TenantRouter() { drain(); }

void TenantRouter::register_tenant(const std::string& id,
                                   TenantConfig config) {
  if (!valid_tenant(id)) {
    throw std::invalid_argument("invalid tenant id: '" + id + "'");
  }
  if (config.lca == nullptr) {
    throw std::invalid_argument("tenant '" + id + "' has no algorithm");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] =
      tenants_.emplace(id, std::make_unique<Tenant>());
  if (!inserted) {
    throw std::invalid_argument("tenant '" + id + "' already registered");
  }
  it->second->config = std::move(config);
}

void TenantRouter::complete(Tenant& tenant, std::uint64_t request_id,
                            WireStatus status,
                            const std::function<void(const ResponseFrame&)>& cb,
                            bool answer, bool cache_hit,
                            std::uint64_t epoch_id) {
  ResponseFrame response;
  response.request_id = request_id;
  response.status = status;
  response.answer = answer;
  response.cache_hit = cache_hit;
  response.epoch_id = epoch_id;
  tenant.inflight.fetch_sub(1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  cb(response);
}

void TenantRouter::route(const RequestFrame& frame,
                         std::function<void(const ResponseFrame&)> cb) {
  routed_.fetch_add(1, std::memory_order_relaxed);
  Tenant* tenant = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = tenants_.find(frame.tenant); it != tenants_.end()) {
      tenant = it->second.get();
    }
  }
  if (tenant == nullptr) {
    unknown_tenant_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    ResponseFrame response;
    response.request_id = frame.request_id;
    response.status = WireStatus::kUnknownTenant;
    cb(response);
    return;
  }
  // Per-tenant admission quota, settled before any queue is touched: the
  // optimistic increment is undone on shed so the counter never drifts.
  const std::size_t now_inflight =
      tenant->inflight.fetch_add(1, std::memory_order_relaxed) + 1;
  if (draining_.load(std::memory_order_relaxed) ||
      now_inflight > tenant->config.max_inflight) {
    quota_shed_.fetch_add(1, std::memory_order_relaxed);
    complete(*tenant, frame.request_id, WireStatus::kOverloaded, cb);
    return;
  }
  serve::ServeEngine* engine = nullptr;
  {
    std::lock_guard<std::mutex> lock(tenant->mutex);
    if (tenant->state == TenantState::kWarm) engine = tenant->engine.get();
  }
  if (engine == nullptr) {
    // Not warm (cold, mid-warm_all, or failed): the router starts nothing.
    complete(*tenant, frame.request_id, WireStatus::kError, cb);
    return;
  }
  // The engine fires the completion exactly once from one of its threads;
  // translate its outcome onto the wire and settle the tenant's quota there.
  auto on_done = [this, tenant, request_id = frame.request_id,
                  cb = std::move(cb)](const serve::Response& r) {
    complete(*tenant, request_id, wire_status_of(r.outcome), cb, r.answer,
             r.cache_hit, r.epoch_id);
  };
  const auto item = static_cast<std::size_t>(frame.item);
  if (frame.deadline_us == 0) {
    engine->submit(item, std::move(on_done));
  } else {
    engine->submit(item,
                   std::chrono::microseconds(
                       static_cast<std::int64_t>(frame.deadline_us)),
                   std::move(on_done));
  }
}

void TenantRouter::hydrate(const std::string& id, Tenant& tenant) {
  std::unique_ptr<serve::ServeEngine> engine;
  try {
    serve::EngineConfig engine_config = tenant.config.engine;
    if (engine_config.warm_state == nullptr) {
      engine_config.warm_state =
          store_->get(id, *tenant.config.lca, tenant.config.tape_seed);
    }
    engine_config.warmup_tape_seed = tenant.config.tape_seed;
    engine = std::make_unique<serve::ServeEngine>(*tenant.config.lca,
                                                  engine_config, *registry_);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(tenant.mutex);
      tenant.state = TenantState::kFailed;
    }
    hydration_failures_count_.fetch_add(1, std::memory_order_relaxed);
    hydration_failures_->inc();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(tenant.mutex);
    tenant.engine = std::move(engine);
    tenant.state = TenantState::kWarm;
  }
  hydrations_.fetch_add(1, std::memory_order_relaxed);
  tenants_warm_->add(1.0);
}

void TenantRouter::warm_all() {
  std::vector<std::pair<std::string, Tenant*>> cold;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, tenant] : tenants_) {
      std::lock_guard<std::mutex> tlock(tenant->mutex);
      if (tenant->state == TenantState::kCold) {
        tenant->state = TenantState::kHydrating;
        cold.emplace_back(id, tenant.get());
      }
    }
  }
  for (auto& [id, tenant] : cold) hydrate(id, *tenant);
}

void TenantRouter::drain() {
  draining_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, tenant] : tenants_) {
    (void)id;
    if (tenant->engine != nullptr) tenant->engine->drain();
  }
}

RouterStats TenantRouter::stats() const {
  RouterStats stats;
  stats.routed = routed_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.unknown_tenant = unknown_tenant_.load(std::memory_order_relaxed);
  stats.quota_shed = quota_shed_.load(std::memory_order_relaxed);
  stats.hydrations = hydrations_.load(std::memory_order_relaxed);
  stats.hydration_failures =
      hydration_failures_count_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<std::string> TenantRouter::tenant_ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) ids.push_back(id);
  return ids;
}

TenantReadiness TenantRouter::readiness(const std::string& id) const {
  Tenant* tenant = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tenants_.find(id);
    if (it == tenants_.end()) return TenantReadiness::kUnknownTenant;
    tenant = it->second.get();
  }
  std::lock_guard<std::mutex> tlock(tenant->mutex);
  switch (tenant->state) {
    case TenantState::kCold: return TenantReadiness::kCold;
    case TenantState::kHydrating: return TenantReadiness::kHydrating;
    case TenantState::kWarm: return TenantReadiness::kWarm;
    case TenantState::kFailed: return TenantReadiness::kFailed;
  }
  return TenantReadiness::kFailed;
}

const serve::ServeEngine* TenantRouter::engine(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(id);
  if (it == tenants_.end()) return nullptr;
  std::lock_guard<std::mutex> tlock(it->second->mutex);
  return it->second->engine.get();
}

serve::ServeEngine* TenantRouter::engine_mut(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(id);
  if (it == tenants_.end()) return nullptr;
  std::lock_guard<std::mutex> tlock(it->second->mutex);
  return it->second->engine.get();
}

}  // namespace lcaknap::net
