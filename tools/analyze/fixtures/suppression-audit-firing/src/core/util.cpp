namespace minsgd {

int helper_fn(int x) {
  // minsgd-analyze: allow(cast): required by old_removed_helper for endianness
  return x;
}

int other_fn(int x) {
  // minsgd-analyze: allow(env-gate): short
  return x;
}

}  // namespace minsgd
