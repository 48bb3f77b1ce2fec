#include "service/retry.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "pmemkit/checksum.hpp"

namespace cxlpmem::service {

RetryingClient::RetryingClient(std::uint16_t port, std::string host,
                               ClientOptions conn, RetryPolicy policy)
    : port_(port),
      host_(std::move(host)),
      conn_(conn),
      policy_(policy) {}

std::uint32_t RetryingClient::backoff_ms(const RetryPolicy& policy,
                                         std::uint32_t attempt,
                                         std::uint64_t draw_index) {
  // base * 2^attempt, capped, then scaled into [0.5, 1.0): decorrelates
  // concurrent clients (different seeds) while staying replayable (one
  // seed => one schedule).
  std::uint64_t ceil = policy.base_backoff_ms;
  for (std::uint32_t i = 0; i < attempt && ceil < policy.max_backoff_ms; ++i)
    ceil *= 2;
  ceil = std::min<std::uint64_t>(ceil, policy.max_backoff_ms);
  const std::uint64_t draw = pmemkit::splitmix64(policy.seed ^ draw_index);
  return static_cast<std::uint32_t>(ceil / 2 + (draw % (ceil / 2 + 1)));
}

void RetryingClient::sleep_before(std::uint32_t attempt) {
  const std::uint32_t ms = backoff_ms(policy_, attempt, draws_++);
  stats_.backoff_ms += ms;
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

api::Result<void> RetryingClient::ensure_connected() {
  if (session_) return api::Result<void>();
  api::Result<Client> c = Client::connect(port_, host_, conn_);
  if (!c.ok()) return c.error();
  session_.emplace(std::move(c).value());
  ++stats_.reconnects;
  return api::Result<void>();
}

template <typename T, typename Op>
api::Result<T> RetryingClient::run(Op&& op) {
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::milliseconds(policy_.budget_ms);
  api::Error last{api::Errc::Internal, "retry loop never ran"};
  for (std::uint32_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt != 0) {
      ++stats_.retries;
      sleep_before(attempt - 1);
      if (std::chrono::steady_clock::now() - start >= budget) break;
    }
    ++stats_.attempts;
    if (const api::Result<void> conn = ensure_connected(); !conn.ok()) {
      last = conn.error();
      if (!retryable(last.code)) return last;
      continue;
    }
    api::Result<T> r = op(*session_);
    if (r.ok()) return r;
    last = r.error();
    if (!retryable(last.code)) return r;
    // Timeout/IoFailure leave the stream in an unknown state — a late
    // reply would answer the wrong request.  Unavailable/Busy are clean
    // server replies; the connection is still synchronized.
    if (last.code == api::Errc::Timeout || last.code == api::Errc::IoFailure)
      drop_connection();
    if (std::chrono::steady_clock::now() - start >= budget) break;
  }
  last.message += " (retry budget exhausted)";
  return last;
}

api::Result<void> RetryingClient::set(std::string_view key,
                                      std::string_view value) {
  return run<void>([&](Client& c) { return c.set(key, value); });
}

api::Result<std::optional<std::string>> RetryingClient::get(
    std::string_view key) {
  return run<std::optional<std::string>>(
      [&](Client& c) { return c.get(key); });
}

api::Result<bool> RetryingClient::del(std::string_view key) {
  return run<bool>([&](Client& c) { return c.del(key); });
}

api::Result<bool> RetryingClient::exists(std::string_view key) {
  return run<bool>([&](Client& c) { return c.exists(key); });
}

api::Result<std::string> RetryingClient::ping(std::string_view msg) {
  return run<std::string>([&](Client& c) { return c.ping(msg); });
}

api::Result<std::string> RetryingClient::info() {
  return run<std::string>([&](Client& c) { return c.info(); });
}

}  // namespace cxlpmem::service
