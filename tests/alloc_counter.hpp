// Global heap-allocation counter for the zero-allocation tests. Linking
// alloc_counter.cpp into a test binary replaces the global operator new /
// delete family; every path through operator new bumps g_alloc_count, so a
// test can assert that a code region performs no heap allocations.
#pragma once

#include <atomic>
#include <cstddef>

extern std::atomic<std::size_t> g_alloc_count;
