// Cache-line alignment for fast-path structures.
//
// The host call path crosses a handful of hot structures on every LRPC:
// the A-stack linkage record, the free-list head, the binding-table
// entry, the client binding and the per-processor state. Keeping each on its
// own cache line (and packing the fields a Null call touches into one line)
// is what docs/fast_path.md calls the layout audit: every aligned structure
// carries static_asserts pinning the audited layout, and lrpc_lint (rule
// lrpc-cacheline) flags mutable shared state declared inside fast-path
// regions without this annotation.
//
// 64 bytes is the line size of every x86-64 and most AArch64 parts; we pin
// it rather than using std::hardware_destructive_interference_size, whose
// value is ABI-unstable across compilers (GCC warns on any use in a header).

#ifndef SRC_COMMON_CACHELINE_H_
#define SRC_COMMON_CACHELINE_H_

#include <cstddef>

namespace lrpc {

inline constexpr std::size_t kCacheLineSize = 64;

}  // namespace lrpc

// Annotation for mutable shared state on the fast path: aligns the object
// (or member) to a cache-line boundary so writers on different lines never
// false-share.
#define LRPC_CACHELINE_ALIGNED alignas(::lrpc::kCacheLineSize)

#endif  // SRC_COMMON_CACHELINE_H_
