// Firing: allow() naming a check that does not exist.
// Expected finding: suppression-audit/malformed-suppression

// minsgd-analyze: allow(made-up-rule): three() needs a check nobody defined
inline int three() { return 3; }
