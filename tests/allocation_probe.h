// Allocation probe for tests that feed hostile length or size fields.
//
// While armed, records the largest single operator-new request and refuses
// any above kAllocationCap, so code that sized a buffer from a hostile
// header or length word fails the test instead of committing gigabytes.
//
// Defines the replaceable global operator new/delete: include it from
// exactly one source file of a test binary.

#ifndef SAND_TESTS_ALLOCATION_PROBE_H_
#define SAND_TESTS_ALLOCATION_PROBE_H_

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
constexpr size_t kAllocationCap = size_t{64} << 20;
std::atomic<bool> g_probe_armed{false};
std::atomic<size_t> g_largest_allocation{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(size_t size) {
  if (g_probe_armed.load(std::memory_order_relaxed)) {
    size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (size > seen && !g_largest_allocation.compare_exchange_weak(seen, size)) {
    }
    if (size > kAllocationCap) {
      throw std::bad_alloc();
    }
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

#endif  // SAND_TESTS_ALLOCATION_PROBE_H_
