// Firing: `using namespace` at header scope.
// Expected finding: using-namespace-header/using-namespace
#pragma once

#include <string>

using namespace std;

inline string greet() { return "hi"; }
