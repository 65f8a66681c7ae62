// Firing: a leftover suppression in the retired linter's tag spelling.
// It suppresses nothing, so it must be reported rather than ignored.
// Expected finding: suppression-audit/malformed-suppression
namespace minsgd {

// minsgd-lint: allow(thread-spawn): spawn_helper runs outside any context
inline void spawn_helper() {}

}  // namespace minsgd
