//===- support/Parallel.cpp -----------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

using namespace g80;

unsigned g80::defaultJobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void g80::parallelFor(unsigned Jobs, size_t N,
                      const std::function<void(size_t)> &Body) {
  std::atomic<size_t> Next{0};
  auto Claim = [&] {
    for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) < N;)
      Body(I);
  };
  // Declared after what the helpers use, so they join before it goes.
  std::vector<std::jthread> Helpers;
  for (size_t T = 1; T < std::min<size_t>(Jobs, N); ++T)
    Helpers.emplace_back(Claim);
  Claim();
}
