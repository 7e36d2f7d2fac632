// omg::Mutex / omg::MutexLock / omg::CondVar — the annotated locking shim.
//
// Thin wrappers over std::mutex / std::condition_variable carrying the
// Clang thread-safety annotations from common/thread_annotations.hpp, so
// `clang++ -Wthread-safety -Werror` can prove the codebase's locking
// discipline: every OMG_GUARDED_BY field is only touched under its mutex,
// every OMG_REQUIRES contract is met by every caller. Raw std::mutex /
// std::lock_guard / std::condition_variable are banned outside this file
// by tools/check_source_contracts.py — the analysis only sees locks it
// can name.
//
// Usage rules (docs/STATIC_ANALYSIS.md has the full discipline):
//
//   * Prefer `MutexLock lock(mu_);` scopes over manual Lock/Unlock.
//   * Condition waits are explicit loops, not predicate lambdas:
//
//       MutexLock lock(mu_);
//       while (!ready_) cv_.Wait(mu_);
//
//     A lambda body is analyzed as an unannotated function, so a
//     predicate-style wait would need suppressions; the loop form keeps
//     the analysis exact and is what std::condition_variable::wait(lock,
//     pred) expands to anyway.
//   * CondVar waits require the mutex (OMG_REQUIRES): held on entry,
//     released while blocked, re-held on return — the capability is
//     continuously "owned" from the analysis's point of view.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hpp"

namespace omg {

/// A std::mutex with capability annotations. Non-recursive, non-copyable.
class OMG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Blocks until the mutex is acquired.
  void Lock() OMG_ACQUIRE() { mu_.lock(); }

  /// Releases the mutex (must be held by this thread).
  void Unlock() OMG_RELEASE() { mu_.unlock(); }

  /// Tells the static analysis the mutex is held here without acquiring
  /// it — the escape hatch for capabilities that are provably held via an
  /// alias the analysis cannot name (e.g. the claimed-stream protocol,
  /// where "the home shard's mutex" is a runtime value). Every call site
  /// must carry a comment justifying why the capability is in fact held.
  void AssertHeld() const OMG_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scope holding an omg::Mutex. Supports early release (Unlock) so
/// wait-then-bail admission paths stay scoped.
class OMG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) OMG_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() OMG_RELEASE() {
    if (held_) mu_.Unlock();
  }

  /// Releases before scope exit (the destructor then does nothing).
  void Unlock() OMG_RELEASE() {
    mu_.Unlock();
    held_ = false;
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

/// A std::condition_variable bound to omg::Mutex. Waits temporarily adopt
/// the caller-held native mutex; notification never requires the mutex.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks until notified (or spuriously
  /// woken); re-acquires `mu` before returning. Always wait in a loop that
  /// re-checks the condition.
  void Wait(Mutex& mu) OMG_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with the caller's scope
  }

  /// Wait with a timeout; returns std::cv_status::timeout when `timeout`
  /// elapsed first. Same loop discipline as Wait.
  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         std::chrono::duration<Rep, Period> timeout)
      OMG_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, timeout);
    native.release();
    return status;
  }

  /// Wakes one waiter.
  void NotifyOne() { cv_.notify_one(); }

  /// Wakes every waiter.
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace omg
