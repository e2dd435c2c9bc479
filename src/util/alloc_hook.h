// Thread-local heap-allocation counters, for tests and benchmarks that
// assert a hot path is allocation-free.
//
// Linking the sm_alloc_hook library replaces the global operator new /
// operator delete set with forwarding versions that bump thread-local
// counters. The hook is intrusive by design — link it ONLY into binaries
// that measure allocations (the notary allocation test, bench_notary),
// never into sanitizer builds (TSan/ASan interpose their own allocators
// and double-interposition misattributes or crashes).
//
// Usage:
//   const std::uint64_t before = util::alloc_hook::thread_new_count();
//   hot_path();
//   EXPECT_EQ(util::alloc_hook::thread_new_count() - before, 0u);
//
// Counters are per-thread, so concurrent activity on other threads never
// leaks into a measurement.
#pragma once

#include <cstdint>

namespace sm::util::alloc_hook {

/// True when the counting operator new/delete set is linked into this
/// binary. Callers should skip allocation assertions when false (the
/// default CMake test targets do not link the hook).
bool active();

/// Number of operator-new calls (all variants: array, nothrow, aligned)
/// made by the calling thread since it started.
std::uint64_t thread_new_count();

}  // namespace sm::util::alloc_hook
