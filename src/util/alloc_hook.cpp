#include "util/alloc_hook.h"

#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t g_news = 0;

void* allocate(std::size_t size) {
  ++g_news;
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* allocate_aligned(std::size_t size, std::size_t align) {
  ++g_news;
  if (size == 0) size = align;
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded);
}

void deallocate(void* p) { std::free(p); }

// Throwing operator-new forms must not return nullptr; the hot paths
// under test never exhaust memory, so abort stands in for std::bad_alloc
// (throwing from a replaced operator new without exception-allocation
// machinery of its own risks recursion).
void* checked(void* p) {
  if (p == nullptr) std::abort();
  return p;
}

}  // namespace

namespace sm::util::alloc_hook {

bool active() { return true; }

std::uint64_t thread_new_count() { return g_news; }

}  // namespace sm::util::alloc_hook

// The full replaceable allocation-function set forwards to the helpers
// above; only allocations are counted.

void* operator new(std::size_t size) { return checked(allocate(size)); }

void* operator new[](std::size_t size) { return checked(allocate(size)); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  return checked(allocate_aligned(size, static_cast<std::size_t>(align)));
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return checked(allocate_aligned(size, static_cast<std::size_t>(align)));
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return allocate_aligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return allocate_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { deallocate(p); }

void operator delete[](void* p) noexcept { deallocate(p); }

void operator delete(void* p, std::size_t) noexcept { deallocate(p); }

void operator delete[](void* p, std::size_t) noexcept { deallocate(p); }

void operator delete(void* p, std::align_val_t) noexcept { deallocate(p); }

void operator delete[](void* p, std::align_val_t) noexcept {
  deallocate(p);
}

void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  deallocate(p);
}

void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  deallocate(p);
}

void operator delete(void* p, const std::nothrow_t&) noexcept {
  deallocate(p);
}

void operator delete[](void* p, const std::nothrow_t&) noexcept {
  deallocate(p);
}
