#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace minsgd::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local int t_rank = -1;
thread_local int t_depth = 0;

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

int set_thread_rank(int rank) {
  const int prev = t_rank;
  t_rank = rank;
  return prev;
}

int thread_rank() { return t_rank; }

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

void Tracer::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

std::int64_t Tracer::now_ns() const {
  return steady_ns() - epoch_ns_.load(std::memory_order_relaxed);
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // Cache keyed by tracer identity so tests with their own Tracer instances
  // don't cross-record; rebinding registers a fresh buffer. The binding is
  // a destructor-bearing thread_local: when the thread exits (comm worker,
  // elastic joiner), every buffer it ever registered is flushed-on-detach —
  // marked so clear() can prune it — and the cache is reset so a span
  // recorded during later TLS destruction cannot touch a dead shared_ptr.
  struct Binding {
    Tracer* bound = nullptr;
    std::shared_ptr<ThreadBuffer> buf;
    std::vector<std::weak_ptr<ThreadBuffer>> owned;
    ~Binding() {
      for (const auto& w : owned) {
        if (const auto b = w.lock()) {
          b->detached.store(true, std::memory_order_release);
        }
      }
      bound = nullptr;
    }
  };
  thread_local Binding tb;
  if (tb.bound != this) {
    tb.buf = std::make_shared<ThreadBuffer>();
    tb.owned.push_back(tb.buf);
    std::lock_guard lk(registry_mu_);
    tb.buf->tid = next_tid_++;
    buffers_.push_back(tb.buf);
    tb.bound = this;
  }
  return *tb.buf;
}

void Tracer::record(Span s) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard lk(buf.mu);
  buf.spans.push_back(std::move(s));
}

std::vector<Span> Tracer::snapshot() const {
  std::vector<std::shared_ptr<ThreadBuffer>> bufs;
  {
    std::lock_guard lk(registry_mu_);
    bufs = buffers_;
  }
  std::vector<Span> all;
  for (const auto& b : bufs) {
    std::lock_guard lk(b->mu);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

std::size_t Tracer::span_count() const {
  std::vector<std::shared_ptr<ThreadBuffer>> bufs;
  {
    std::lock_guard lk(registry_mu_);
    bufs = buffers_;
  }
  std::size_t n = 0;
  for (const auto& b : bufs) {
    std::lock_guard lk(b->mu);
    n += b->spans.size();
  }
  return n;
}

void Tracer::clear() {
  std::vector<std::shared_ptr<ThreadBuffer>> bufs;
  {
    std::lock_guard lk(registry_mu_);
    bufs = buffers_;
  }
  for (const auto& b : bufs) {
    std::lock_guard lk(b->mu);
    b->spans.clear();
  }
  {
    // Detached buffers are now drained; dropping them bounds the registry
    // under thread churn (a detached buffer can never record again).
    std::lock_guard lk(registry_mu_);
    std::erase_if(buffers_, [](const std::shared_ptr<ThreadBuffer>& b) {
      return b->detached.load(std::memory_order_acquire);
    });
  }
  epoch_ns_.store(steady_ns(), std::memory_order_relaxed);
}

std::size_t Tracer::thread_buffer_count() const {
  std::lock_guard lk(registry_mu_);
  return buffers_.size();
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const auto spans = snapshot();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Name the pid lanes: rank R -> "rank R", -1 -> "driver".
  std::vector<int> ranks;
  for (const auto& s : spans) {
    if (std::find(ranks.begin(), ranks.end(), s.rank) == ranks.end()) {
      ranks.push_back(s.rank);
    }
  }
  std::sort(ranks.begin(), ranks.end());
  for (const int r : ranks) {
    out << (first ? "" : ",") << "{\"name\":\"process_name\",\"ph\":\"M\","
        << "\"pid\":" << r << ",\"args\":{\"name\":\""
        << (r < 0 ? std::string("driver") : "rank " + std::to_string(r))
        << "\"}}";
    first = false;
  }
  char num[64];
  for (const auto& s : spans) {
    out << (first ? "" : ",") << "{\"name\":\"";
    json::write_escaped(out, s.name);
    out << "\",\"cat\":\"" << s.category << "\",\"ph\":\"X\"";
    // trace_event timestamps are microseconds; keep ns resolution with a
    // fractional part.
    std::snprintf(num, sizeof(num), "%.3f",
                  static_cast<double>(s.start_ns) / 1000.0);
    out << ",\"ts\":" << num;
    std::snprintf(num, sizeof(num), "%.3f",
                  static_cast<double>(s.dur_ns) / 1000.0);
    out << ",\"dur\":" << num;
    out << ",\"pid\":" << s.rank << ",\"tid\":" << s.tid << ",\"args\":{";
    bool first_arg = true;
    if (s.bytes >= 0) {
      out << "\"bytes\":" << s.bytes;
      first_arg = false;
    }
    if (!s.label.empty()) {
      out << (first_arg ? "" : ",") << "\"label\":\"";
      json::write_escaped(out, s.label);
      out << "\"";
      first_arg = false;
    }
    if (s.threads >= 0) {
      out << (first_arg ? "" : ",") << "\"threads\":" << s.threads;
      first_arg = false;
    }
    out << (first_arg ? "" : ",") << "\"depth\":" << s.depth << "}}";
    first = false;
  }
  out << "]}\n";
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Tracer: cannot open " + path);
  write_chrome_trace(out);
}

std::vector<SpanStat> Tracer::summary() const {
  const auto spans = snapshot();
  struct Acc {
    std::vector<std::int64_t> durs;
    const char* category = "";
    int min_depth = 0;
  };
  // Key on (category, name): the same name in two categories is two rows.
  std::map<std::pair<std::string, std::string>, Acc> by_name;
  for (const auto& s : spans) {
    auto& acc = by_name[{std::string(s.category), s.name}];
    if (acc.durs.empty() || s.depth < acc.min_depth) acc.min_depth = s.depth;
    acc.category = s.category;
    acc.durs.push_back(s.dur_ns);
  }
  std::vector<SpanStat> stats;
  stats.reserve(by_name.size());
  for (auto& [key, acc] : by_name) {
    SpanStat st;
    st.name = key.second;
    st.category = acc.category;
    st.count = static_cast<std::int64_t>(acc.durs.size());
    std::sort(acc.durs.begin(), acc.durs.end());
    for (const auto d : acc.durs) st.total_ns += d;
    st.max_ns = acc.durs.back();
    // p95 = smallest duration >= 95% of the samples (nearest-rank method).
    const auto idx = static_cast<std::size_t>(
        (acc.durs.size() * 95 + 99) / 100);  // ceil(0.95 n)
    st.p95_ns = acc.durs[std::min(idx == 0 ? 0 : idx - 1,
                                  acc.durs.size() - 1)];
    st.min_depth = acc.min_depth;
    stats.push_back(std::move(st));
  }
  // Group by category (alphabetical), biggest total first within a group.
  std::sort(stats.begin(), stats.end(),
            [](const SpanStat& a, const SpanStat& b) {
              const int c = std::string(a.category).compare(b.category);
              if (c != 0) return c < 0;
              return a.total_ns > b.total_ns;
            });
  return stats;
}

void Tracer::write_summary(std::ostream& out) const {
  const auto stats = summary();
  const char* cur_cat = nullptr;
  char line[256];
  for (const auto& st : stats) {
    if (!cur_cat || std::string(cur_cat) != st.category) {
      cur_cat = st.category;
      std::snprintf(line, sizeof(line),
                    "%-38s %10s %8s %10s %10s %10s\n", cur_cat, "total_ms",
                    "count", "mean_us", "p95_us", "max_us");
      out << line;
    }
    std::string name(static_cast<std::size_t>(2 * (st.min_depth + 1)), ' ');
    name += st.name;
    std::snprintf(line, sizeof(line),
                  "%-38s %10.3f %8lld %10.1f %10.1f %10.1f\n", name.c_str(),
                  static_cast<double>(st.total_ns) / 1e6,
                  static_cast<long long>(st.count), st.mean_ns() / 1e3,
                  static_cast<double>(st.p95_ns) / 1e3,
                  static_cast<double>(st.max_ns) / 1e3);
    out << line;
  }
}

void ScopedSpan::begin(std::string name, const char* category) {
  span_.name = std::move(name);
  span_.category = category;
  span_.rank = t_rank;
  span_.depth = t_depth++;
  span_.start_ns = tracer().now_ns();
  active_ = true;
}

void ScopedSpan::stop() {
  if (!active_) return;
  active_ = false;
  --t_depth;
  Tracer& tr = tracer();
  span_.dur_ns = tr.now_ns() - span_.start_ns;
  span_.tid = tr.local_buffer().tid;
  tr.record(std::move(span_));
}

}  // namespace minsgd::obs
