// Firing: header without #pragma once, with an upward-relative include and
// a C header spelling. Expected findings: one per include-hygiene rule.
#include "../tensor/ops.hpp"
#include <stdint.h>

inline int three() { return 3; }
