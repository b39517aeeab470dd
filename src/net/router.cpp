#include "net/router.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "net/metrics.hpp"
#include "sparse/serialize.hpp"

namespace msptrsv::net {

namespace {

using core::Expected;
using core::SolveStatus;

/// FNV-1a of a string: the shard identity seed. Not a great mixer on its
/// own, which is fine -- rendezvous scoring re-mixes it below.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// splitmix64-style finalizer: the rendezvous score of (plan, shard).
/// Strong mixing is what delivers the uniform-balance property.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Only transport-level failures count against a shard's breaker: a typed
/// error (kShapeMismatch, kDeadlineExceeded, even kOverloaded) came from a
/// process healthy enough to produce it, and opening the breaker on those
/// would amplify load problems into fake outages.
bool counts_against_breaker(SolveStatus status) {
  return status == SolveStatus::kNetworkError;
}

}  // namespace

Router::Router(RouterOptions options) : options_(std::move(options)) {
  shards_.reserve(options_.endpoints.size());
  for (const Endpoint& ep : options_.endpoints) {
    ClientOptions c = options_.client;
    c.host = ep.host;
    c.port = ep.port;
    // Decorrelate the shards' backoff jitter streams.
    c.retry.seed = options_.client.retry.seed ^ fnv1a(ep.host) ^ ep.port;
    auto shard = std::make_unique<Shard>();
    shard->endpoint = ep;
    shard->client = std::make_unique<SolveClient>(std::move(c));
    shard->seed = fnv1a(ep.host + ":" + std::to_string(ep.port));
    shards_.push_back(std::move(shard));
  }
  if (options_.probe_interval.count() > 0 && !shards_.empty()) {
    prober_ = std::thread([this] { prober_loop(); });
  }
}

Router::~Router() {
  if (prober_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(prober_mutex_);
      prober_stop_ = true;
    }
    prober_cv_.notify_all();
    prober_.join();
  }
}

void Router::prober_loop() {
  std::unique_lock<std::mutex> lock(prober_mutex_);
  while (!prober_stop_) {
    if (prober_cv_.wait_for(lock, options_.probe_interval,
                            [this] { return prober_stop_; })) {
      return;
    }
    lock.unlock();
    probe_now();
    lock.lock();
  }
}

std::size_t Router::shard_of(std::uint64_t pattern_hash) const {
  std::size_t best = 0;
  std::uint64_t best_score = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::uint64_t score = mix(pattern_hash ^ shards_[s]->seed);
    if (s == 0 || score > best_score) {
      best = s;
      best_score = score;
    }
  }
  return best;
}

std::vector<std::size_t> Router::shard_order(
    std::uint64_t pattern_hash) const {
  std::vector<std::size_t> order(shards_.size());
  std::vector<std::uint64_t> score(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    order[s] = s;
    score[s] = mix(pattern_hash ^ shards_[s]->seed);
  }
  std::sort(order.begin(), order.end(),
            [&score](std::size_t a, std::size_t b) {
              return score[a] != score[b] ? score[a] > score[b] : a < b;
            });
  return order;
}

// ---- breaker ---------------------------------------------------------------

bool Router::breaker_allows(Shard& shard) {
  std::lock_guard<std::mutex> lock(shard.mutex);
  switch (shard.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kHalfOpen:
      // A trial is (or was) already in flight; let more traffic through
      // too -- the first success closes, the first failure reopens.
      return true;
    case BreakerState::kOpen:
      if (Clock::now() - shard.opened_at >= options_.breaker_cooldown) {
        shard.state = BreakerState::kHalfOpen;
        return true;
      }
      return false;
  }
  return true;
}

void Router::breaker_on_success(Shard& shard) {
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.state = BreakerState::kClosed;
  shard.consecutive = 0;
  shard.last_contact_ok = true;
}

void Router::breaker_on_failure(Shard& shard, const std::string& error) {
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.failures_total;
  shard.last_error = error;
  shard.last_contact_ok = false;
  if (shard.state == BreakerState::kHalfOpen) {
    // The trial failed: straight back to open, cooldown restarts.
    shard.state = BreakerState::kOpen;
    shard.opened_at = Clock::now();
    ++shard.opens;
    shard.consecutive = options_.breaker_failure_threshold;
    return;
  }
  if (++shard.consecutive >= options_.breaker_failure_threshold &&
      shard.state == BreakerState::kClosed) {
    shard.state = BreakerState::kOpen;
    shard.opened_at = Clock::now();
    ++shard.opens;
  }
}

ShardStatus Router::status_of(const Shard& shard) const {
  std::lock_guard<std::mutex> lock(shard.mutex);
  ShardStatus st;
  st.endpoint = shard.endpoint;
  st.breaker = shard.state;
  st.reachable = shard.last_contact_ok;
  st.consecutive_failures = static_cast<std::uint64_t>(
      shard.consecutive > 0 ? shard.consecutive : 0);
  st.failures_total = shard.failures_total;
  st.probes_sent = shard.probes;
  st.breaker_opens = shard.opens;
  st.probe_rtt_us = shard.last_rtt_us;
  st.last_error = shard.last_error;
  return st;
}

std::size_t Router::probe_now() {
  std::size_t healthy = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      ++shard->probes;
    }
    const Clock::time_point t0 = Clock::now();
    Expected<bool> pong = shard->client->ping(options_.probe_timeout);
    if (pong.ok()) {
      const double rtt_us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count();
      breaker_on_success(*shard);
      {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->last_rtt_us = rtt_us;
      }
      ++healthy;
    } else {
      breaker_on_failure(*shard, pong.error().message);
    }
  }
  return healthy;
}

std::vector<ShardStatus> Router::fleet_status() const {
  std::vector<ShardStatus> out;
  out.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    out.push_back(status_of(*shard));
  }
  return out;
}

// ---- open + routed solving -------------------------------------------------

Expected<RoutedHandle> Router::open(const sparse::CscMatrix& lower,
                                    const std::string& backend_key) {
  if (shards_.empty()) {
    return Expected<RoutedHandle>(SolveStatus::kInvalidOptions,
                                  "router has no endpoints");
  }
  const sparse::StructuralHash hash = sparse::hash_csc(lower);
  const std::size_t shard = shard_of(hash.pattern);
  Expected<PlanHandle> handle = shards_[shard]->client->open(lower, backend_key);
  if (!handle.ok()) return Expected<RoutedHandle>(handle.error());
  return RoutedHandle{shard, std::move(handle.value()), backend_key};
}

Expected<PlanHandle> Router::handle_on(std::size_t s,
                                       const RoutedHandle& plan) {
  if (s == plan.shard) return plan.handle;
  // Non-home shards get the plan by HASH-REF: the open ships only the
  // content hash, which the shard resolves against its live plan table
  // and then the fleet-shared blob directory. Cache the result so a
  // re-homed plan pays one open, not one per solve.
  const std::string key = std::to_string(s) + "/" + plan.backend_key + "/" +
                          std::to_string(plan.handle.hash.pattern) + ":" +
                          std::to_string(plan.handle.hash.values);
  {
    std::lock_guard<std::mutex> lock(failover_mutex_);
    auto it = failover_handles_.find(key);
    if (it != failover_handles_.end()) return it->second;
  }
  Expected<PlanHandle> opened =
      shards_[s]->client->open_by_hash(plan.handle.hash, plan.backend_key);
  // Only a plan of the routed factor may stand in for it.
  if (opened.ok() && opened.value().hash != plan.handle.hash) {
    opened = Expected<PlanHandle>(
        SolveStatus::kBadSnapshot,
        "shard answered a hash-ref open with another factor's plan");
  }
  if (opened.ok()) {
    std::lock_guard<std::mutex> lock(failover_mutex_);
    failover_handles_.emplace(key, opened.value());
  }
  return opened;
}

Expected<std::vector<value_t>> Router::solve(
    const RoutedHandle& plan, std::span<const value_t> b,
    service::Priority priority, std::chrono::microseconds deadline) {
  return solve_batch(plan, b, 1, priority, deadline);
}

Expected<std::vector<value_t>> Router::solve_batch(
    const RoutedHandle& plan, std::span<const value_t> rhs, index_t num_rhs,
    service::Priority priority, std::chrono::microseconds deadline) {
  if (options_.hedge_high_priority &&
      priority == service::Priority::kHigh && shards_.size() >= 2) {
    // Pick the best healthy backup down the rendezvous ranking. If none
    // qualifies (all cooling, or the hash-ref open fails) fall through to
    // the sequential path -- hedging is an optimization, never a
    // requirement.
    const std::vector<std::size_t> order = shard_order(plan.handle.hash.pattern);
    for (const std::size_t s : order) {
      if (s == plan.shard || !breaker_allows(*shards_[s])) continue;
      Expected<PlanHandle> backup = handle_on(s, plan);
      if (!backup.ok()) continue;
      return solve_hedged(plan, s, backup.value(), rhs, num_rhs, priority,
                          deadline);
    }
  }
  return solve_routed(plan, rhs, num_rhs, priority, deadline);
}

Expected<std::vector<value_t>> Router::solve_routed(
    const RoutedHandle& plan, std::span<const value_t> rhs, index_t num_rhs,
    service::Priority priority, std::chrono::microseconds deadline) {
  if (shards_.empty()) {
    return Expected<std::vector<value_t>>(SolveStatus::kInvalidOptions,
                                          "router has no endpoints");
  }
  const std::vector<std::size_t> order =
      options_.allow_failover ? shard_order(plan.handle.hash.pattern)
                              : std::vector<std::size_t>{plan.shard};
  core::SolveError last{SolveStatus::kNetworkError, "no shard attempted"};
  bool attempted = false;
  for (const std::size_t s : order) {
    Shard& shard = *shards_[s];
    if (!breaker_allows(shard)) continue;
    Expected<PlanHandle> handle = handle_on(s, plan);
    if (!handle.ok()) {
      // A failed failover OPEN: network errors count against the shard;
      // typed refusals (no shared blob dir -> kBadSnapshot) just mean
      // this shard cannot serve the plan -- skip it, it is healthy.
      if (counts_against_breaker(handle.error().status)) {
        breaker_on_failure(shard, handle.error().message);
      }
      last = handle.error();
      continue;
    }
    attempted = true;
    Expected<std::vector<value_t>> result = shard.client->solve_batch(
        handle.value(), rhs, num_rhs, priority, deadline);
    if (result.ok()) {
      breaker_on_success(shard);
      if (s != plan.shard) shard.client->note_failover();
      return result;
    }
    if (!counts_against_breaker(result.error().status)) {
      // A typed answer IS an answer: the shard is alive and this request
      // cannot fare better elsewhere (same plan, same inputs).
      breaker_on_success(shard);
      return result;
    }
    breaker_on_failure(shard, result.error().message);
    last = result.error();
  }
  if (!attempted) {
    // Every breaker was cooling. Refusing outright would make a
    // transient blip self-sustaining (no traffic -> no trial -> never
    // closes), so force one home-shard attempt as the trial.
    Shard& home = *shards_[plan.shard];
    Expected<std::vector<value_t>> result = home.client->solve_batch(
        plan.handle, rhs, num_rhs, priority, deadline);
    if (result.ok() || !counts_against_breaker(result.error().status)) {
      breaker_on_success(home);
    } else {
      breaker_on_failure(home, result.error().message);
    }
    return result;
  }
  return Expected<std::vector<value_t>>(last);
}

Expected<std::vector<value_t>> Router::solve_hedged(
    const RoutedHandle& plan, std::size_t backup,
    const PlanHandle& backup_handle, std::span<const value_t> rhs,
    index_t num_rhs, service::Priority priority,
    std::chrono::microseconds deadline) {
  Shard& home = *shards_[plan.shard];
  Shard& back = *shards_[backup];
  home.client->note_hedge();
  std::future<SolveClient::RawReply> legs[2] = {
      home.client->submit_batch_raw(plan.handle, rhs, num_rhs, priority,
                                    deadline),
      back.client->submit_batch_raw(backup_handle, rhs, num_rhs, priority,
                                    deadline)};
  Shard* owner[2] = {&home, &back};
  bool dead[2] = {false, false};
  // Poll both legs; the kernels are bit-deterministic, so whichever
  // answers first IS the answer (success or typed error alike). A leg
  // that dies on the wire feeds its shard's breaker and drops out.
  while (!dead[0] || !dead[1]) {
    for (int i = 0; i < 2; ++i) {
      if (dead[i]) continue;
      if (legs[i].wait_for(std::chrono::microseconds(200)) !=
          std::future_status::ready) {
        continue;
      }
      SolveClient::RawReply raw = legs[i].get();
      dead[i] = true;
      if (!raw.ok()) {
        breaker_on_failure(*owner[i], raw.error().message);
        continue;
      }
      Expected<std::vector<value_t>> reply =
          decode_solve_reply(std::move(raw.value()));
      if (!reply.ok() && counts_against_breaker(reply.error().status)) {
        breaker_on_failure(*owner[i], reply.error().message);
        continue;
      }
      breaker_on_success(*owner[i]);
      if (owner[i] == &back) back.client->note_failover();
      // The loser's future is abandoned: its reply (if any) completes a
      // promise nobody reads, which is exactly as cheap as it sounds.
      return reply;
    }
  }
  // Both legs died on the wire -- fall back to the sequential path, which
  // carries the retry/reconnect policy hedging deliberately skips.
  return solve_routed(plan, rhs, num_rhs, priority, deadline);
}

std::future<Expected<std::vector<value_t>>> Router::submit_batch(
    const RoutedHandle& plan, std::span<const value_t> rhs, index_t num_rhs,
    service::Priority priority, std::chrono::microseconds deadline) {
  return shards_[plan.shard]->client->submit_batch(plan.handle, rhs, num_rhs,
                                                   priority, deadline);
}

// ---- fleet observability ---------------------------------------------------

Expected<WireStats> Router::fleet_stats(std::size_t* reachable,
                                        std::vector<ShardStatus>* statuses) {
  WireStats merged;
  std::size_t answered = 0;
  core::SolveError last{SolveStatus::kNetworkError, "router has no endpoints"};
  for (const std::unique_ptr<Shard>& shard : shards_) {
    Expected<WireStats> stats = shard->client->stats();
    if (!stats.ok()) {
      // An unanswered stats pull is a transport outcome like any other:
      // record it on the shard so the fleet view shows WHICH member is
      // dark instead of silently narrowing.
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->last_contact_ok = false;
      shard->last_error = stats.error().message;
      last = stats.error();
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->last_contact_ok = true;
    }
    merged.merge(stats.value());
    ++answered;
  }
  if (statuses != nullptr) *statuses = fleet_status();
  if (reachable != nullptr) *reachable = answered;
  if (answered == 0) return Expected<WireStats>(last);
  return merged;
}

Expected<std::string> Router::fleet_metrics() {
  std::vector<ShardStatus> statuses;
  Expected<WireStats> merged = fleet_stats(nullptr, &statuses);
  if (!merged.ok()) return Expected<std::string>(merged.error());
  std::string text = render_prometheus(merged.value(), "fleet");
  // Per-shard health series, rendered here rather than in metrics.cpp:
  // shard identity belongs to the router, and a dead shard must be
  // visible IN the scrape, not inferred from a smaller sum.
  text += "# HELP msptrsv_shard_up 1 when the shard answered its last "
          "contact, 0 when it is dark.\n";
  text += "# TYPE msptrsv_shard_up gauge\n";
  for (const ShardStatus& st : statuses) {
    text += "msptrsv_shard_up{shard=\"" + st.endpoint.host + ":" +
            std::to_string(st.endpoint.port) + "\"} " +
            (st.reachable ? "1" : "0") + "\n";
  }
  text += "# HELP msptrsv_shard_breaker_state 0=closed 1=open 2=half-open.\n";
  text += "# TYPE msptrsv_shard_breaker_state gauge\n";
  for (const ShardStatus& st : statuses) {
    text += "msptrsv_shard_breaker_state{shard=\"" + st.endpoint.host + ":" +
            std::to_string(st.endpoint.port) + "\"} " +
            std::to_string(static_cast<int>(st.breaker)) + "\n";
  }
  text += "# HELP msptrsv_shard_failures_total Transport failures observed "
          "against this shard (solves, probes, stats pulls).\n";
  text += "# TYPE msptrsv_shard_failures_total counter\n";
  for (const ShardStatus& st : statuses) {
    text += "msptrsv_shard_failures_total{shard=\"" + st.endpoint.host + ":" +
            std::to_string(st.endpoint.port) + "\"} " +
            std::to_string(st.failures_total) + "\n";
  }
  text += "# HELP msptrsv_shard_probe_rtt_us Round-trip time of the last "
          "successful ping probe, microseconds.\n";
  text += "# TYPE msptrsv_shard_probe_rtt_us gauge\n";
  for (const ShardStatus& st : statuses) {
    if (st.probe_rtt_us < 0) continue;  // no successful probe yet
    char rtt[32];
    std::snprintf(rtt, sizeof(rtt), "%.1f", st.probe_rtt_us);
    text += "msptrsv_shard_probe_rtt_us{shard=\"" + st.endpoint.host + ":" +
            std::to_string(st.endpoint.port) + "\"} " + rtt + "\n";
  }
  return text;
}

Expected<std::string> Router::fleet_trace(const std::string& filter,
                                          std::size_t* reachable) {
  std::string body;
  std::size_t answered = 0;
  core::SolveError last{SolveStatus::kNetworkError, "router has no endpoints"};
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Expected<TraceDumpOkFrame> dump =
        shards_[s]->client->trace_dump(filter, /*include_slow=*/true);
    if (!dump.ok()) {
      std::lock_guard<std::mutex> lock(shards_[s]->mutex);
      shards_[s]->last_contact_ok = false;
      shards_[s]->last_error = dump.error().message;
      last = dump.error();
      continue;
    }
    ++answered;
    // Splice the shard's two documents (live rings + retained slow
    // traces) into the fleet body, re-homing their events onto this
    // shard's own pid lane so Perfetto draws the members side by side.
    // The documents are our own trace_collect_json output -- a flat
    // {"traceEvents":[...]} with "pid":1 on every event -- so the
    // string-level splice is against a known grammar, not arbitrary JSON.
    const std::string lane = "\"pid\":" + std::to_string(s + 1) + ",";
    for (std::string* doc : {&dump.value().json, &dump.value().slow_json}) {
      const std::size_t open = doc->find('[');
      const std::size_t close = doc->rfind(']');
      if (open == std::string::npos || close == std::string::npos ||
          close <= open + 1) {
        continue;  // empty or malformed document: nothing to splice
      }
      std::string events = doc->substr(open + 1, close - open - 1);
      std::size_t at = 0;
      while ((at = events.find("\"pid\":1,", at)) != std::string::npos) {
        events.replace(at, 8, lane);
        at += lane.size();
      }
      if (!body.empty()) body += ",";
      body += events;
    }
  }
  if (reachable != nullptr) *reachable = answered;
  if (answered == 0) return Expected<std::string>(last);
  return "{\"traceEvents\":[" + body + "]}";
}

Expected<std::uint64_t> Router::drain_all() {
  std::uint64_t completed = 0;
  core::SolveError first_error{SolveStatus::kOk, ""};
  for (const std::unique_ptr<Shard>& shard : shards_) {
    Expected<std::uint64_t> drained = shard->client->drain();
    if (drained.ok()) {
      completed += drained.value();
    } else if (first_error.status == SolveStatus::kOk) {
      first_error = drained.error();
    }
  }
  if (first_error.status != SolveStatus::kOk) {
    return Expected<std::uint64_t>(first_error);
  }
  return completed;
}

}  // namespace msptrsv::net
