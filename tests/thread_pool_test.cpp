//===- tests/thread_pool_test.cpp - ThreadPool fork/join contract ---------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// parallelFor's contract under the conditions the plan executor creates:
// forks back to back (idle workers are still spinning), forks after a
// pause longer than the spin budget (idle workers have blocked), empty and
// single-index forks, and destruction right after a fork, while workers
// spin. Every index runs exactly once per call and every call returns.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace dhpf;

namespace {

/// Runs parallelFor(N) and checks every index in [0, N) ran exactly once.
void forkAndCheck(ThreadPool &Pool, size_t N) {
  std::vector<std::atomic<unsigned>> Hits(N);
  Pool.parallelFor(N, [&](size_t I) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I != N; ++I)
    ASSERT_EQ(Hits[I].load(), 1u) << "index " << I << " of " << N;
}

TEST(ThreadPool, BackToBackForksRunEveryIndexOnce) {
  ThreadPool Pool(3);
  for (size_t Round = 0; Round != 2000; ++Round)
    forkAndCheck(Pool, Round % 9);
}

TEST(ThreadPool, ForksAfterWorkersBlockRunEveryIndexOnce) {
  ThreadPool Pool(3);
  for (size_t Round = 0; Round != 20; ++Round) {
    // Well past the spin budget: the workers have gone to sleep.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    forkAndCheck(Pool, 4 + Round % 5);
  }
}

TEST(ThreadPool, DestroyedWhileWorkersSpin) {
  for (unsigned Round = 0; Round != 200; ++Round) {
    ThreadPool Pool(1 + Round % 4);
    forkAndCheck(Pool, 1 + Round % 6);
  }
}

TEST(ThreadPool, UnevenTasksFinishBeforeReturn) {
  ThreadPool Pool(3);
  std::vector<unsigned> Done(4, 0);
  for (unsigned Round = 0; Round != 50; ++Round) {
    Pool.parallelFor(Done.size(), [&](size_t I) {
      if (I == Round % Done.size())
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      ++Done[I];
    });
    for (unsigned D : Done)
      ASSERT_EQ(D, Round + 1);
  }
}

} // namespace
