//===- support/ThreadPool.h - Small fixed-size worker pool ---------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool used by the compiler driver to run
/// independent per-nest analyses (partitioning, communication equations,
/// loop splitting) concurrently. The pool is explicit — constructed by its
/// owner, joined in the destructor, no globals — per the repo's
/// no-static-constructor rule. Work is submitted through parallelFor, which
/// hands out indices from an atomic counter so callers keep results in
/// deterministic index order regardless of scheduling.
///
/// The SPMD plan executor forks every few tens of microseconds (one
/// parallelFor per compute nest and event phase). Waking a sleeping thread
/// costs a futex call and, on a virtual machine, an inter-processor
/// interrupt and a host reschedule, whose latency grows with the host's
/// load. So an idle worker, and the caller waiting for its helpers, first
/// spin for SpinBudget before blocking: back-to-back forks then hand work
/// over without sleeping, and a pool that goes quiet still sleeps.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SUPPORT_THREADPOOL_H
#define DHPF_SUPPORT_THREADPOOL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dhpf {

class ThreadPool {
public:
  /// Creates \p NumThreads workers (0 selects hardwareThreads()).
  explicit ThreadPool(unsigned NumThreads = 0) {
    if (NumThreads == 0)
      NumThreads = hardwareThreads();
    Workers.reserve(NumThreads);
    for (unsigned I = 0; I != NumThreads; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stopping.store(true, std::memory_order_release);
    }
    CV.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned size() const { return Workers.size(); }

  /// Runs Fn(0) .. Fn(N-1) across the pool and the calling thread; returns
  /// when all calls finished. Indices are claimed from an atomic counter,
  /// so every index runs exactly once. Fn must not throw.
  template <typename Fn> void parallelFor(size_t N, Fn &&F) {
    if (N == 0)
      return;
    auto State = std::make_shared<ForState>();
    State->N = N;
    auto Work = [State, &F] {
      for (size_t I = State->Next.fetch_add(1, std::memory_order_relaxed);
           I < State->N;
           I = State->Next.fetch_add(1, std::memory_order_relaxed))
        F(I);
    };
    size_t Helpers = Workers.size() < N ? Workers.size() : N;
    {
      std::lock_guard<std::mutex> Lock(M);
      for (size_t I = 0; I != Helpers; ++I)
        Tasks.push([State, Work] {
          Work();
          if (State->Active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> DoneLock(State->DoneM);
            State->DoneCV.notify_all();
          }
        });
      State->Active.store(Helpers, std::memory_order_relaxed);
      Queued.store(Tasks.size(), std::memory_order_release);
    }
    CV.notify_all();
    // The calling thread participates too (and does all the work when the
    // pool is size zero or fully busy).
    Work();
    if (spinUntil([&] {
          return State->Active.load(std::memory_order_acquire) == 0;
        }))
      return;
    std::unique_lock<std::mutex> DoneLock(State->DoneM);
    State->DoneCV.wait(DoneLock, [&] {
      return State->Active.load(std::memory_order_acquire) == 0;
    });
  }

  /// The host's hardware concurrency, at least 1.
  static unsigned hardwareThreads() {
    unsigned N = std::thread::hardware_concurrency();
    return N == 0 ? 1 : N;
  }

private:
  struct ForState {
    std::atomic<size_t> Next{0};
    std::atomic<size_t> Active{0};
    size_t N = 0;
    std::mutex DoneM;
    std::condition_variable DoneCV;
  };

  /// How long an idle thread polls before it blocks.
  static constexpr std::chrono::microseconds SpinBudget{100};

  /// Polls \p Ready for up to SpinBudget, pausing between polls and
  /// yielding the core to any other runnable thread; true once it holds.
  template <typename Pred> static bool spinUntil(Pred Ready) {
    auto Until = std::chrono::steady_clock::now() + SpinBudget;
    do {
      for (unsigned I = 0; I != 64; ++I) {
        if (Ready())
          return true;
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield" ::: "memory");
#endif
      }
      std::this_thread::yield();
    } while (std::chrono::steady_clock::now() < Until);
    return Ready();
  }

  void workerLoop() {
    for (;;) {
      spinUntil([&] {
        return Queued.load(std::memory_order_acquire) != 0 ||
               Stopping.load(std::memory_order_acquire);
      });
      std::function<void()> Task;
      {
        std::unique_lock<std::mutex> Lock(M);
        CV.wait(Lock, [&] { return Stopping || !Tasks.empty(); });
        if (Stopping && Tasks.empty())
          return;
        Task = std::move(Tasks.front());
        Tasks.pop();
        Queued.store(Tasks.size(), std::memory_order_relaxed);
      }
      Task();
    }
  }

  std::vector<std::thread> Workers;
  std::queue<std::function<void()>> Tasks;
  /// Tasks.size(), readable without M by spinning workers.
  std::atomic<size_t> Queued{0};
  std::mutex M;
  std::condition_variable CV;
  std::atomic<bool> Stopping{false};
};

} // namespace dhpf

#endif // DHPF_SUPPORT_THREADPOOL_H
