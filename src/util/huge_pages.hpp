/**
 * @file
 * Transparent-huge-page advice for large, long-lived buffers: the
 * flat hash tables' slot arrays and the trace access buffers.
 */
#pragma once

#include <cstddef>

namespace voyager {

/**
 * Ask the kernel to back `[mem, mem + bytes)` with transparent huge
 * pages when the range is at least 2 MiB. Random probes into a
 * multi-MB table otherwise spend a TLB walk per lookup, and filling a
 * multi-MB buffer takes one page fault per 4 KiB. Only whole pages
 * inside the range are advised, so neighbouring allocations keep
 * their pages. Advisory only: on other systems, or when the kernel
 * refuses, the range keeps 4 KiB pages.
 */
void advise_huge_pages(void *mem, std::size_t bytes);

}  // namespace voyager
