#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace minsgd {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  ASSERT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t({4}, 2.5f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}),
               std::invalid_argument);
}

TEST(Tensor, RowMajor2dIndexing) {
  Tensor t({2, 3}, std::vector<float>{0, 1, 2, 3, 4, 5});
  EXPECT_EQ(t.at(0, 0), 0.0f);
  EXPECT_EQ(t.at(0, 2), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 2), 5.0f);
}

TEST(Tensor, Nchw4dIndexing) {
  Tensor t({2, 2, 2, 2});
  t.at(1, 1, 1, 1) = 42.0f;
  EXPECT_EQ(t[15], 42.0f);
  t.at(0, 1, 0, 1) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
}

TEST(Tensor, CopyIsDeep) {
  Tensor a({2}, 1.0f);
  Tensor b = a;
  b[0] = 9.0f;
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(b[0], 9.0f);
}

TEST(Tensor, ReshapedPreservesData) {
  Tensor a({2, 3}, std::vector<float>{0, 1, 2, 3, 4, 5});
  Tensor b = a.reshaped({3, 2});
  EXPECT_EQ(b.shape(), Shape({3, 2}));
  EXPECT_EQ(b.at(2, 1), 5.0f);
}

TEST(Tensor, ReshapedRejectsNumelMismatch) {
  Tensor a({2, 3});
  EXPECT_THROW(a.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, ResizeReallocatesOnlyOnNumelChange) {
  Tensor a({2, 3}, 5.0f);
  a.resize({3, 2});  // same numel: data kept
  EXPECT_EQ(a[0], 5.0f);
  a.resize({4, 4});  // different numel: zeroed
  EXPECT_EQ(a.numel(), 16);
  EXPECT_EQ(a[0], 0.0f);
}

TEST(Tensor, FillAndZero) {
  Tensor a({3}, 1.0f);
  a.fill(2.0f);
  EXPECT_EQ(a[2], 2.0f);
  a.zero();
  EXPECT_EQ(a[0], 0.0f);
}

TEST(Tensor, SpanViewsData) {
  Tensor a({3}, 1.5f);
  auto s = a.span();
  s[1] = 3.0f;
  EXPECT_EQ(a[1], 3.0f);
  EXPECT_EQ(s.size(), 3u);
}

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
}

// ---------------- bound storage ----------------

TEST(TensorBound, CopyAssignWritesThroughTheBinding) {
  std::vector<float> storage(6, 4.0f);
  Tensor t;
  t.bind(storage.data(), 6, {2, 3});
  const Tensor src({3}, 7.0f);
  t = src;
  EXPECT_TRUE(t.bound());
  EXPECT_EQ(t.data(), storage.data());
  EXPECT_EQ(t.shape(), Shape({3}));
  EXPECT_EQ(storage[0], 7.0f);
  EXPECT_EQ(storage[2], 7.0f);
  EXPECT_EQ(storage[3], 4.0f);  // beyond the new numel: left as written
}

TEST(TensorBound, MoveAssignWritesThroughTheBinding) {
  std::vector<float> storage(4, 0.0f);
  Tensor t;
  t.bind(storage.data(), 4, {4});
  t = Tensor({2, 2}, 3.0f);
  EXPECT_TRUE(t.bound());
  EXPECT_EQ(t.bound_capacity(), 4);
  EXPECT_EQ(t.data(), storage.data());
  EXPECT_EQ(t.shape(), Shape({2, 2}));
  for (float v : storage) EXPECT_EQ(v, 3.0f);
}

TEST(TensorBound, AssignBeyondCapacityFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<float> storage(4, 0.0f);
  Tensor t;
  t.bind(storage.data(), 4, {4});
  EXPECT_DEATH(t = Tensor({5}), "bound capacity");
  const Tensor big({6});
  EXPECT_DEATH(t = big, "bound capacity");
}

TEST(TensorBound, CopyOfBoundTensorOwnsItsData) {
  std::vector<float> storage(3, 2.0f);
  Tensor view;
  view.bind(storage.data(), 3, {3});
  Tensor copy = view;
  EXPECT_FALSE(copy.bound());
  EXPECT_NE(copy.data(), storage.data());
  copy[0] = 9.0f;
  EXPECT_EQ(storage[0], 2.0f);
  EXPECT_EQ(copy[1], 2.0f);
}

TEST(TensorBound, MoveConstructTransfersTheView) {
  std::vector<float> storage(3, 1.0f);
  Tensor view;
  view.bind(storage.data(), 3, {3});
  Tensor moved(std::move(view));
  EXPECT_TRUE(moved.bound());
  EXPECT_EQ(moved.data(), storage.data());
  EXPECT_EQ(moved.bound_capacity(), 3);
  moved[2] = 5.0f;
  EXPECT_EQ(storage[2], 5.0f);
}

TEST(TensorBound, ResizeStaysInsideTheCapacity) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<float> storage(8, 1.0f);
  Tensor t;
  t.bind(storage.data(), 8, {2, 4});
  t.resize({4, 2});  // same numel: reshaped in place, data kept
  EXPECT_EQ(t.data(), storage.data());
  EXPECT_EQ(storage[0], 1.0f);
  t.resize({3});  // smaller numel: the new extent is zero-filled
  EXPECT_TRUE(t.bound());
  EXPECT_EQ(t.data(), storage.data());
  EXPECT_EQ(t.numel(), 3);
  EXPECT_EQ(storage[0], 0.0f);
  EXPECT_EQ(storage[3], 1.0f);
  EXPECT_DEATH(t.resize({9}), "exceeds bound capacity");
}

}  // namespace
}  // namespace minsgd
