// MINSGD_CHECK / MINSGD_DCHECK: the project's invariant layer.
//
// MINSGD_CHECK(cond, msg...)   always on. On violation, prints the failed
//                              expression, the formatted message, and the
//                              source location to stderr, then aborts.
// MINSGD_DCHECK(cond, msg...)  hot-path variant. Compiled in when NDEBUG is
//                              not defined or when MINSGD_DCHECK_ON is
//                              defined (cmake -DMINSGD_DCHECK=ON); otherwise
//                              it expands to nothing and its arguments are
//                              not evaluated.
//
// Policy (DESIGN.md §11): CHECK/DCHECK guard *programmer* invariants —
// conditions that can only be false because calling code is wrong (shape
// contracts between layers, communicator tag-space discipline, save-side
// checkpoint preconditions). Violations are not recoverable, so they abort;
// the fault-tolerant trainer must never catch its way past a broken
// invariant. Validation of *external input* (checkpoint files on disk,
// user-facing constructor arguments) stays exception-based: those paths are
// recoverable and tier-1 tests exercise them with EXPECT_THROW.
//
// This header is dependency-free on purpose: it lives in src/core/ but is
// included from the bottom of the dependency order (tensor) upward.
//
// The analyzer check `naked-assert` (tools/analyze/checks.py) forbids
// plain assert() in src/ so every invariant goes through this layer.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace minsgd::check_detail {

/// Failure hook invoked once, after the message is written to stderr and
/// before abort. The postmortem layer (obs/postmortem.hpp) registers a dump
/// here so a CHECK violation leaves the flight-recorder black box behind.
/// A plain function pointer, not std::function: registration must not
/// allocate, and the abort path must not run arbitrary destructors.
using FailureHook = void (*)(const char* message);

inline std::atomic<FailureHook>& failure_hook_slot() {
  static std::atomic<FailureHook> hook{nullptr};
  return hook;
}

inline std::string format_message() { return {}; }

template <typename... Args>
std::string format_message(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

[[noreturn]] inline void check_fail(const char* kind, const char* expr,
                                    const char* file, int line,
                                    const std::string& msg) {
  // One single write so concurrent failures from pool threads do not
  // interleave mid-line.
  std::string out = std::string(kind) + " failed: " + expr;
  if (!msg.empty()) out += " — " + msg;
  out += " [" + std::string(file) + ":" + std::to_string(line) + "]\n";
  std::fputs(out.c_str(), stderr);
  std::fflush(stderr);
  // First failure wins the hook: a second CHECK tripping inside the hook
  // itself (or on another thread mid-dump) must not recurse or re-dump.
  static std::atomic<bool> hook_fired{false};
  if (const FailureHook hook =
          failure_hook_slot().load(std::memory_order_acquire)) {
    if (!hook_fired.exchange(true, std::memory_order_acq_rel)) {
      hook(out.c_str());
    }
  }
  std::abort();
}

}  // namespace minsgd::check_detail

namespace minsgd {

/// Registers the process-wide CHECK failure hook (nullptr clears it). The
/// hook runs at most once per process, on the first failing CHECK, before
/// abort.
inline void set_check_failure_hook(check_detail::FailureHook hook) {
  check_detail::failure_hook_slot().store(hook, std::memory_order_release);
}

}  // namespace minsgd

// Always-on invariant check. Extra arguments are streamed into the failure
// message: MINSGD_CHECK(a == b, "size mismatch: ", a, " vs ", b).
#define MINSGD_CHECK(cond, ...)                                         \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::minsgd::check_detail::check_fail(                               \
          "MINSGD_CHECK", #cond, __FILE__, __LINE__,                    \
          ::minsgd::check_detail::format_message(__VA_ARGS__));         \
    }                                                                   \
  } while (false)

// Expansion used when debug checks are compiled out: arguments are never
// evaluated. Kept as a named macro so tests/test_check.cpp can exercise the
// off-branch regardless of how the test binary itself was configured.
#define MINSGD_DCHECK_DISABLED(cond, ...) \
  do {                                    \
  } while (false)

#if !defined(NDEBUG) || defined(MINSGD_DCHECK_ON)
#define MINSGD_DCHECK_ENABLED 1
#define MINSGD_DCHECK(cond, ...) MINSGD_CHECK(cond, __VA_ARGS__)
#else
#define MINSGD_DCHECK_ENABLED 0
#define MINSGD_DCHECK(cond, ...) MINSGD_DCHECK_DISABLED(cond, __VA_ARGS__)
#endif
