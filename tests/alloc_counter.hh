/**
 * @file
 * Live heap-allocation counter for leak regression tests.  Including
 * this header replaces the global operator new/delete of the test
 * executable, so include it from exactly one source file per binary.
 *
 * Count the net allocations of a scope as
 *     long long before = csb::test::liveAllocations();
 *     { ... }
 *     EXPECT_EQ(csb::test::liveAllocations() - before, 0);
 * after warming up anything that interns state on first use.
 */

#ifndef CSB_TESTS_ALLOC_COUNTER_HH
#define CSB_TESTS_ALLOC_COUNTER_HH

#include <atomic>
#include <cstdlib>
#include <new>

namespace csb::test {

inline std::atomic<long long> liveAllocationCount{0};

/** Blocks allocated through operator new and not yet deleted. */
inline long long
liveAllocations()
{
    return liveAllocationCount.load(std::memory_order_relaxed);
}

/** malloc, counted; null when out of memory. */
inline void *
countedMalloc(std::size_t size) noexcept
{
    void *ptr = std::malloc(size != 0 ? size : 1);
    if (ptr)
        liveAllocationCount.fetch_add(1, std::memory_order_relaxed);
    return ptr;
}

} // namespace csb::test

// Every replaceable non-aligned form is replaced, so no allocation can
// reach a sanitizer's operator new and come back through this delete.
// The replacements pair malloc with free by design; GCC's inliner
// would otherwise flag free() on a pointer from operator new.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    if (void *ptr = csb::test::countedMalloc(size))
        return ptr;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return csb::test::countedMalloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return csb::test::countedMalloc(size);
}

void
operator delete(void *ptr) noexcept
{
    if (!ptr)
        return;
    csb::test::liveAllocationCount.fetch_sub(1, std::memory_order_relaxed);
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    ::operator delete(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    ::operator delete(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    ::operator delete(ptr);
}

void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    ::operator delete(ptr);
}

void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    ::operator delete(ptr);
}

#pragma GCC diagnostic pop

#endif // CSB_TESTS_ALLOC_COUNTER_HH
