// PARCEL_ASAN: defined when the translation unit is built with
// AddressSanitizer (GCC's __SANITIZE_ADDRESS__ or clang's
// __has_feature(address_sanitizer)). Allocators that recycle memory by
// hand — the per-run arena, the callback block cache — key on it to hand
// ASan back the lifetimes it would otherwise lose (DESIGN.md §11).
#pragma once

#if defined(__SANITIZE_ADDRESS__)
#define PARCEL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARCEL_ASAN 1
#endif
#endif
