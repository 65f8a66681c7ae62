// LargeBatchRecipe: the paper's contribution as a public API.
//
// A recipe fixes the epoch budget and assembles the three ingredients of
// large-batch training exactly as the paper composes them:
//
//   * linear LR scaling from (base_batch, base_lr) to the target batch,
//   * gradual warmup over the first few epochs,
//   * poly(power=2) decay over the fixed iteration budget,
//   * and either plain momentum SGD (the Goyal et al. baseline recipe) or
//     LARS (the paper's recipe) as the update rule.
//
// Everything the benches sweep — batch size, warmup length, LR rule — is a
// field here, so an experiment reads like the paper's tables.
#pragma once

#include <cstdint>
#include <optional>
#include <functional>
#include <memory>

#include "data/synthetic.hpp"
#include "optim/lars.hpp"
#include "optim/schedule.hpp"
#include "optim/sgd.hpp"
#include "train/trainer.hpp"

namespace minsgd::core {

enum class LrRule {
  kLinearWarmup,  // linear scaling + warmup (Goyal et al. 2017)
  kLars,          // LARS + warmup (You et al.; this paper)
};

const char* to_string(LrRule rule);

struct RecipeConfig {
  // Reference configuration the scaling starts from.
  std::int64_t base_batch = 32;
  double base_lr = 0.05;

  // Target run.
  std::int64_t global_batch = 32;
  std::int64_t epochs = 12;
  double warmup_epochs = 0.0;  // paper uses 5-13 epochs at large batch
  LrRule rule = LrRule::kLinearWarmup;

  // Update-rule hyperparameters (paper: momentum 0.9, wd 0.0005, poly 2).
  double momentum = 0.9;
  double weight_decay = 0.0005;
  double poly_power = 2.0;
  double lars_trust_coeff = 0.02;

  bool augment = false;   // weak augmentation (default pad-crop + hflip)
  /// Overrides the augmentation transform when `augment` is set (e.g.
  /// flip-only for flip-closed synthetic tasks).
  std::optional<data::AugmentConfig> augment_config;
  std::uint64_t init_seed = 7;
  bool verbose = false;
};

/// The assembled, ready-to-run pieces of a recipe.
struct Recipe {
  optim::LrSchedulePtr schedule;
  std::function<std::unique_ptr<optim::Optimizer>()> optimizer_factory;
  train::TrainOptions options;
  double scaled_lr = 0.0;          // the post-warmup peak learning rate
  std::int64_t total_iterations = 0;
};

/// Builds the schedule/optimizer/options for `config` against `dataset`.
Recipe make_recipe(const RecipeConfig& config,
                   const data::SyntheticImageNet& dataset);

/// Convenience: build + train in one process.
train::TrainResult run_recipe(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const RecipeConfig& config, const data::SyntheticImageNet& dataset);

/// Convenience: build + train data-parallel on a simulated cluster.
train::DistResult run_recipe_distributed(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const RecipeConfig& config, const data::SyntheticImageNet& dataset,
    int world, comm::AllreduceAlgo algo = comm::AllreduceAlgo::kRing);

}  // namespace minsgd::core
