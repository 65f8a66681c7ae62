// Binary stream I/O primitives: the project's only sanctioned bridge between
// typed objects and byte streams.
//
// Checkpoint/serialization code used to hand-roll
// `out.write(reinterpret_cast<const char*>(&v), sizeof(v))` at every site
// (14 casts across nn/serialize, optim/optimizer, train/checkpoint). All of
// them funnel through the two functions below now, so the type-punning
// surface the `cast` check audits is exactly two lines. Everything here
// is constrained to trivially-copyable types, for which object
// representation I/O is well-defined.
//
// Like core/check.hpp, this header is dependency-free and included from any
// layer (see DESIGN.md §11).
#pragma once

#include <cstddef>
#include <istream>
#include <ostream>
#include <span>
#include <type_traits>

namespace minsgd::core {

/// Writes `n` bytes of the object representation starting at `p`.
inline void write_bytes(std::ostream& out, const void* p, std::size_t n) {
  // The ostream byte interface is char*; viewing any object representation
  // as char is explicitly sanctioned by the standard's aliasing rules, and
  // every typed overload in this header funnels through here.
  // minsgd-analyze: allow(cast): write_bytes is the sole object-to-char
  // bridge; every typed overload in io.hpp funnels through it (see above)
  out.write(reinterpret_cast<const char*>(p),
            static_cast<std::streamsize>(n));
}

/// Reads `n` bytes into the storage at `p`. Stream state signals truncation;
/// callers decide whether that throws (file input) or CHECK-fails.
inline void read_bytes(std::istream& in, void* p, std::size_t n) {
  // minsgd-analyze: allow(cast): the char-to-object mirror of write_bytes
  in.read(reinterpret_cast<char*>(p), static_cast<std::streamsize>(n));
}

/// Writes the object representation of a trivially-copyable value.
template <typename T>
void write_pod(std::ostream& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>,
                "write_pod requires a trivially-copyable type");
  write_bytes(out, &v, sizeof(v));
}

/// Reads a trivially-copyable value in place; check `in` for truncation.
template <typename T>
void read_pod(std::istream& in, T& v) {
  static_assert(std::is_trivially_copyable_v<T>,
                "read_pod requires a trivially-copyable type");
  read_bytes(in, &v, sizeof(v));
}

/// Bulk float payloads (tensor data) without an intermediate copy.
inline void write_f32(std::ostream& out, std::span<const float> data) {
  write_bytes(out, data.data(), data.size() * sizeof(float));
}

inline void read_f32(std::istream& in, std::span<float> data) {
  read_bytes(in, data.data(), data.size() * sizeof(float));
}

}  // namespace minsgd::core
