/**
 * @file
 * Counting global operator new. Each thread counts its own
 * allocations, so the count costs one thread-local increment and never
 * contends between pool lanes. The default operator new[] and the
 * nothrow forms forward here; the default operator delete frees with
 * std::free, which matches the std::malloc below.
 */

#include <cstdlib>
#include <new>

#include "common.hh"

namespace
{

thread_local uint64_t t_allocations = 0;

} // namespace

namespace perfbench
{

uint64_t
threadAllocations()
{
    return t_allocations;
}

} // namespace perfbench

void *
operator new(std::size_t size)
{
    ++t_allocations;
    if (size == 0)
        size = 1;
    for (;;) {
        if (void *p = std::malloc(size))
            return p;
        std::new_handler handler = std::get_new_handler();
        if (handler == nullptr)
            throw std::bad_alloc();
        handler();
    }
}
