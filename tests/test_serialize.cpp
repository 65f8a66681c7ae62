#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "nn/models.hpp"
#include "nn/serialize.hpp"
#include "optim/sgd.hpp"
#include "train/checkpoint.hpp"

namespace minsgd {
namespace {

std::unique_ptr<nn::Network> make_net() {
  return nn::tiny_alexnet(4, 16, nn::AlexNetNorm::kBN, 4);
}

TEST(Serialize, RoundTripRestoresExactWeights) {
  auto a = make_net();
  Rng rng(9);
  a->init(rng);
  std::stringstream buf;
  nn::save_checkpoint(*a, buf);

  auto b = make_net();
  Rng rng2(1234);  // different init, must be fully overwritten
  b->init(rng2);
  nn::load_checkpoint(*b, buf);
  EXPECT_EQ(a->flatten_params(), b->flatten_params());
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ckpt.bin";
  auto a = make_net();
  Rng rng(3);
  a->init(rng);
  nn::save_checkpoint(*a, path);
  auto b = make_net();
  b->init(rng);
  for (auto& p : b->params()) p.value->fill(0.0f);
  nn::load_checkpoint(*b, path);
  EXPECT_EQ(a->flatten_params(), b->flatten_params());
  std::remove(path.c_str());
}

TEST(Serialize, RejectsBadMagic) {
  auto net = make_net();
  std::stringstream buf("not a checkpoint at all");
  EXPECT_THROW(nn::load_checkpoint(*net, buf), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedFile) {
  auto net = make_net();
  Rng rng(5);
  net->init(rng);
  std::stringstream buf;
  nn::save_checkpoint(*net, buf);
  const std::string full = buf.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(nn::load_checkpoint(*net, truncated), std::runtime_error);
}

TEST(Serialize, RejectsArchitectureMismatch) {
  auto a = make_net();
  Rng rng(7);
  a->init(rng);
  std::stringstream buf;
  nn::save_checkpoint(*a, buf);
  auto other = nn::tiny_alexnet(8, 16, nn::AlexNetNorm::kBN, 4);  // 8 classes
  other->init(rng);
  EXPECT_THROW(nn::load_checkpoint(*other, buf), std::runtime_error);
}

TEST(Serialize, RejectsMissingFile) {
  auto net = make_net();
  EXPECT_THROW(nn::load_checkpoint(*net, "/no/such/file.bin"),
               std::runtime_error);
}

TEST(Serialize, CheckpointPreservesInference) {
  const ComputeContext ctx;
  auto a = make_net();
  Rng rng(11);
  a->init(rng);
  Tensor x({2, 3, 16, 16});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor ya;
  a->forward(x, ya, /*training=*/false, ctx);

  std::stringstream buf;
  nn::save_checkpoint(*a, buf);
  auto b = make_net();
  Rng rng2(99);
  b->init(rng2);
  nn::load_checkpoint(*b, buf);
  Tensor yb;
  b->forward(x, yb, /*training=*/false, ctx);
  for (std::int64_t i = 0; i < ya.numel(); ++i) {
    EXPECT_NEAR(ya[i], yb[i], 1e-5);
  }
}

TEST(Serialize, BatchNormRunningStatsAreCheckpointed) {
  // Train-mode forwards move the running statistics; a checkpoint must
  // capture them or eval-mode inference changes after reload.
  const ComputeContext ctx;
  auto a = make_net();
  Rng rng(21);
  a->init(rng);
  Tensor x({8, 3, 16, 16});
  rng.fill_normal(x.span(), 2.0f, 3.0f);
  Tensor y;
  for (int i = 0; i < 5; ++i) a->forward(x, y, /*training=*/true, ctx);
  Tensor eval_before;
  a->forward(x, eval_before, /*training=*/false, ctx);

  std::stringstream buf;
  nn::save_checkpoint(*a, buf);
  auto b = make_net();
  Rng rng2(77);
  b->init(rng2);
  nn::load_checkpoint(*b, buf);
  Tensor eval_after;
  b->forward(x, eval_after, /*training=*/false, ctx);
  for (std::int64_t i = 0; i < eval_before.numel(); ++i) {
    ASSERT_NEAR(eval_before[i], eval_after[i], 1e-5);
  }
}

TEST(Serialize, BuffersAreNamedAndAggregated) {
  auto net = make_net();
  const auto bufs = net->buffers();
  ASSERT_FALSE(bufs.empty());
  // Two buffers (mean, var) per BatchNorm layer; names carry the layer path.
  EXPECT_NE(bufs[0].name.find("bn"), std::string::npos);
  EXPECT_NE(bufs[0].name.find("running_mean"), std::string::npos);
}

// ---------------- legacy v1 (weight-only) files ----------------

TEST(SerializeV1, LegacyWeightOnlyFileStillLoads) {
  const ComputeContext ctx;
  auto a = make_net();
  Rng rng(13);
  a->init(rng);
  // Move the running stats away from their init values so we can observe
  // that a v1 load leaves them alone.
  Tensor x({4, 3, 16, 16}), y;
  rng.fill_normal(x.span(), 1.0f, 2.0f);
  a->forward(x, y, /*training=*/true, ctx);

  std::stringstream buf;
  nn::save_checkpoint(*a, buf, /*version=*/1);

  auto b = make_net();
  Rng rng2(131);
  b->init(rng2);
  const auto b_buffers_before = [&] {
    std::vector<float> flat;
    for (const auto& ref : b->buffers()) {
      const auto s = ref.value->span();
      flat.insert(flat.end(), s.begin(), s.end());
    }
    return flat;
  };
  const auto before = b_buffers_before();
  nn::load_checkpoint(*b, buf);
  EXPECT_EQ(a->flatten_params(), b->flatten_params());  // weights restored
  EXPECT_EQ(b_buffers_before(), before);  // buffers untouched by a v1 file
}

TEST(SerializeV1, RejectsUnknownVersionOnSave) {
  auto net = make_net();
  std::stringstream buf;
  EXPECT_THROW(nn::save_checkpoint(*net, buf, /*version=*/3),
               std::invalid_argument);
}

// ---------------- train checkpoint (v2: optimizer + schedule + RNG) -------

train::TrainCheckpoint sample_meta() {
  train::TrainCheckpoint meta;
  meta.epoch = 3;
  meta.iter = 5;
  meta.global_iter = 29;
  meta.world = 4;
  meta.global_batch = 64;
  return meta;
}

/// Steps the optimizer a few times so it owns non-trivial momentum state.
void warm_up(nn::Network& net, optim::Optimizer& opt, Rng& rng) {
  const ComputeContext ctx;
  auto params = net.params();
  for (int s = 0; s < 3; ++s) {
    for (auto& p : params) rng.fill_normal(p.grad->span(), 0.0f, 0.1f);
    opt.step(params, 0.05, ctx);
  }
}

TEST(TrainCheckpoint, RoundTripRestoresFullTrainerState) {
  const ComputeContext ctx;
  auto a = make_net();
  Rng rng(17);
  a->init(rng);
  optim::Sgd opt_a({.momentum = 0.9, .weight_decay = 0.0});
  warm_up(*a, opt_a, rng);
  auto meta = sample_meta();
  rng.normal(0.0, 1.0);  // leave a cached Box-Muller value in flight
  meta.rng = rng.state();

  std::stringstream buf;
  train::save_train_checkpoint(buf, *a, opt_a, meta);

  auto b = make_net();
  Rng rng_b(1717);
  b->init(rng_b);
  optim::Sgd opt_b({.momentum = 0.9, .weight_decay = 0.0});
  train::TrainCheckpoint got;
  train::load_train_checkpoint(buf, *b, opt_b, got, /*expect_world=*/4,
                               /*expect_global_batch=*/64);

  EXPECT_EQ(got.epoch, meta.epoch);
  EXPECT_EQ(got.iter, meta.iter);
  EXPECT_EQ(got.global_iter, meta.global_iter);
  EXPECT_EQ(got.world, meta.world);
  EXPECT_EQ(got.global_batch, meta.global_batch);
  EXPECT_EQ(a->flatten_params(), b->flatten_params());

  // The restored RNG stream must continue exactly where the saved one was,
  // including the half-consumed Box-Muller pair.
  Rng resumed(1);
  resumed.set_state(got.rng);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rng.normal(0.0, 1.0), resumed.normal(0.0, 1.0));
  }

  // Momentum survives: identical gradients must produce identical steps.
  auto pa = a->params();
  auto pb = b->params();
  Rng grads(55);
  for (auto& p : pa) grads.fill_normal(p.grad->span(), 0.0f, 0.1f);
  for (std::size_t i = 0; i < pb.size(); ++i) {
    std::copy(pa[i].grad->span().begin(), pa[i].grad->span().end(),
              pb[i].grad->span().begin());
  }
  opt_a.step(pa, 0.05, ctx);
  opt_b.step(pb, 0.05, ctx);
  EXPECT_EQ(a->flatten_params(), b->flatten_params());
}

TEST(TrainCheckpoint, WeightOnlyFileFailsLoudly) {
  auto net = make_net();
  Rng rng(19);
  net->init(rng);
  std::stringstream buf;
  nn::save_checkpoint(*net, buf);  // a model ("MSGD") file, not a train one
  optim::Sgd opt;
  train::TrainCheckpoint meta;
  try {
    train::load_train_checkpoint(buf, *net, opt, meta);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("weight-only"), std::string::npos) << what;
    EXPECT_NE(what.find("nn::load_checkpoint"), std::string::npos) << what;
  }
}

TEST(TrainCheckpoint, RejectsGeometryMismatch) {
  auto net = make_net();
  Rng rng(23);
  net->init(rng);
  optim::Sgd opt;
  std::stringstream buf;
  train::save_train_checkpoint(buf, *net, opt, sample_meta());  // world=4
  train::TrainCheckpoint meta;
  EXPECT_THROW(train::load_train_checkpoint(buf, *net, opt, meta,
                                            /*expect_world=*/8,
                                            /*expect_global_batch=*/64),
               std::runtime_error);
}

TEST(TrainCheckpoint, RejectsArchitectureMismatch) {
  auto a = make_net();
  Rng rng(29);
  a->init(rng);
  optim::Sgd opt;
  std::stringstream buf;
  train::save_train_checkpoint(buf, *a, opt, sample_meta());
  auto other = nn::tiny_alexnet(8, 16, nn::AlexNetNorm::kBN, 4);  // 8 classes
  other->init(rng);
  train::TrainCheckpoint meta;
  EXPECT_THROW(train::load_train_checkpoint(buf, *other, opt, meta),
               std::runtime_error);
}

TEST(TrainCheckpoint, RejectsTruncation) {
  auto net = make_net();
  Rng rng(31);
  net->init(rng);
  optim::Sgd opt;
  std::stringstream buf;
  train::save_train_checkpoint(buf, *net, opt, sample_meta());
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() - 3));  // lose the footer
  train::TrainCheckpoint meta;
  EXPECT_THROW(train::load_train_checkpoint(cut, *net, opt, meta),
               std::runtime_error);
}

TEST(TrainCheckpoint, AtomicFileWriteLeavesNoTempBehind) {
  const std::string path = ::testing::TempDir() + "/train_ckpt.bin";
  auto net = make_net();
  Rng rng(37);
  net->init(rng);
  optim::Sgd opt;
  train::save_train_checkpoint(path, *net, opt, sample_meta());
  EXPECT_TRUE(std::ifstream(path, std::ios::binary).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp", std::ios::binary).good());
  auto b = make_net();
  b->init(rng);
  optim::Sgd opt_b;
  train::TrainCheckpoint meta;
  train::load_train_checkpoint(path, *b, opt_b, meta);
  EXPECT_EQ(net->flatten_params(), b->flatten_params());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace minsgd
