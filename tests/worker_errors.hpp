// tests/worker_errors.hpp — first-exception capture for test worker threads.
//
// An exception escaping a std::thread body calls std::terminate, and two at
// once end in "terminate called recursively" with no test name.  Workers
// run their body through FirstError::run instead; after join, check()
// fails the test with the first exception's message.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <mutex>
#include <utility>

class FirstError {
 public:
  /// Runs a worker body, keeping the first exception any worker throws.
  template <typename F>
  void run(F&& body) noexcept {
    try {
      body();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!first_) first_ = std::current_exception();
      failed_.store(true);
    }
  }

  /// Wraps a worker body for std::thread: what it throws is kept, not fatal.
  template <typename F>
  [[nodiscard]] auto wrap(F body) {
    return [this, body = std::move(body)]() mutable { run(body); };
  }

  /// True once any worker has thrown, so peers spinning on it can stop.
  [[nodiscard]] bool any() const noexcept { return failed_.load(); }

  /// Call after join: fails the test if a worker threw.
  void check() const {
    if (!any()) return;
    const std::lock_guard<std::mutex> lock(mu_);
    try {
      std::rethrow_exception(first_);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "worker thread threw: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "worker thread threw a non-std exception";
    }
  }

 private:
  mutable std::mutex mu_;
  std::exception_ptr first_;
  std::atomic<bool> failed_{false};
};
