// Firing: naked assert() where MINSGD_CHECK / MINSGD_DCHECK is required.
// Expected findings: naked-assert/assert twice (the include and the call).
#include <cassert>

int halve(int n) {
  assert(n % 2 == 0);
  return n / 2;
}
