namespace minsgd {

int parse_widget(const char* s) {
  // minsgd-analyze: allow(cast): parse_widget byte-views its input here; the
  // typed overloads all funnel through this one bridge.
  return static_cast<int>(s[0]);
}

}  // namespace minsgd
