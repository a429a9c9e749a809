// Counting global operator new for the allocation-auditing benches.
//
// Linking alloc_counter.cpp into a bench replaces every form of global
// operator new/delete (plain, array, nothrow, over-aligned) with a
// malloc-backed pair that counts each allocation. Benches read the count
// before and after a measured window.
#pragma once

namespace decos::bench {

/// Global allocations made through operator new since process start.
[[nodiscard]] unsigned long long allocations();

/// Sanitizer builds interpose the allocator, which skews the counting
/// hook: allocation figures are report-only there, never hard gates.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kAllocatorSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kAllocatorSanitized = true;
#else
inline constexpr bool kAllocatorSanitized = false;
#endif
#else
inline constexpr bool kAllocatorSanitized = false;
#endif

}  // namespace decos::bench
