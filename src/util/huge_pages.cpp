#include "util/huge_pages.hpp"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace voyager {

void
advise_huge_pages(void *mem, std::size_t bytes)
{
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    static const std::size_t page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    if (bytes < (std::size_t{2} << 20))
        return;
    const auto addr = reinterpret_cast<std::uintptr_t>(mem);
    const std::uintptr_t lo = (addr + page - 1) & ~(page - 1);
    const std::uintptr_t hi = (addr + bytes) & ~(page - 1);
    if (hi > lo)
        ::madvise(reinterpret_cast<void *>(lo), hi - lo, MADV_HUGEPAGE);
#else
    (void)mem;
    (void)bytes;
#endif
}

}  // namespace voyager
