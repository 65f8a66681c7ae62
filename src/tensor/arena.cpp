#include "tensor/arena.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace minsgd {

namespace {

// 64-byte alignment keeps every arena slice on a cacheline boundary.
constexpr std::int64_t kAlignFloats = 16;

std::int64_t align_up(std::int64_t n) {
  return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

bool intervals_overlap(const ArenaItem& a, const ArenaItem& b) {
  return a.def <= b.last && b.def <= a.last;
}

}  // namespace

void TensorArena::build(std::vector<ArenaItem> items) {
  items_ = std::move(items);
  const std::size_t n = items_.size();
  offsets_.assign(n, 0);
  raw_ = 0;
  for (const auto& it : items_) {
    MINSGD_CHECK(it.elems >= it.shape.numel() && it.def <= it.last,
                 "TensorArena: bad item (elems ", it.elems, ", [", it.def,
                 ",", it.last, "])");
    raw_ += align_up(it.elems);
  }

  // Greedy best-fit: place items largest-first (id breaks ties, so the
  // layout is deterministic). For each item, collect the already-placed
  // items whose liveness intervals overlap it — those are the only bytes it
  // must avoid — sort them by offset, and scan the gaps between them for
  // the smallest one that fits. No gap => append at the high-water mark.
  // minsgd-analyze: allow(hot-path-alloc): layout scratch of a plan build.
  // ExecutionPlan::build runs when a Network's plan key (input shape,
  // training flag) changes, never in a steady-state iteration.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (items_[a].elems != items_[b].elems) {
      return items_[a].elems > items_[b].elems;
    }
    return a < b;
  });

  total_ = 0;
  // minsgd-analyze: allow(hot-path-alloc): plan-build only, as `order`
  // above (ExecutionPlan::build).
  std::vector<std::pair<std::int64_t, std::int64_t>> busy;  // offset, size
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t id = order[k];
    const std::int64_t sz = align_up(items_[id].elems);
    busy.clear();
    for (std::size_t j = 0; j < k; ++j) {  // order[0, k) is placed
      const std::size_t other = order[j];
      if (intervals_overlap(items_[id], items_[other])) {
        busy.emplace_back(offsets_[other], align_up(items_[other].elems));
      }
    }
    std::sort(busy.begin(), busy.end());

    std::int64_t best_off = -1;
    std::int64_t best_gap = std::numeric_limits<std::int64_t>::max();
    std::int64_t cursor = 0;  // end of the highest busy byte seen so far
    for (const auto& [off, bsz] : busy) {
      if (off > cursor) {
        const std::int64_t gap = off - cursor;
        if (gap >= sz && gap < best_gap) {
          best_gap = gap;
          best_off = cursor;
        }
      }
      cursor = std::max(cursor, off + bsz);
    }
    offsets_[id] = best_off >= 0 ? best_off : cursor;
    total_ = std::max(total_, offsets_[id] + sz);
  }

  block_.assign(static_cast<std::size_t>(total_), 0.0f);
  // minsgd-analyze: allow(hot-path-alloc): unbound view handles, rebound
  // below onto block_; plan-build only (ExecutionPlan::build).
  views_.assign(n, Tensor{});
  for (std::size_t id = 0; id < n; ++id) {
    views_[id].bind(block_.data() + offsets_[id], items_[id].elems,
                    items_[id].shape);
  }
}

void TensorArena::release() {
  views_.clear();
  offsets_.clear();
  items_.clear();
  block_.clear();
  block_.shrink_to_fit();
  total_ = 0;
  raw_ = 0;
}

}  // namespace minsgd
