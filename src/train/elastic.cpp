#include "train/elastic.hpp"

#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/check.hpp"
#include "train/checkpoint.hpp"
#include "train/sync_replica.hpp"

namespace minsgd::train {
namespace {

/// Broadcasts the root's serialized v2 checkpoint (plus the divergence
/// baseline) over the group and loads it on every other member. Raw bytes
/// ride in floats via memcpy; the 4-float header carries the byte length as
/// hi*65536 + lo (both < 2^24, so exact in float) and the baseline. The
/// root does not round-trip its own state: serialize/deserialize is exact,
/// so skipping the reload preserves bit-identity trivially.
void broadcast_state(comm::Communicator& gc, int root, SyncReplica& replica,
                     TrainCheckpoint& meta) {
  std::string bytes;
  if (gc.rank() == root) {
    std::ostringstream os;
    save_train_checkpoint(os, replica.net(), replica.opt(), meta);
    bytes = os.str();
  }
  const auto first = replica.first_loss();
  float hdr[4] = {static_cast<float>(bytes.size() / 65536),
                  static_cast<float>(bytes.size() % 65536),
                  first ? 1.0f : 0.0f, static_cast<float>(first.value_or(0.0))};
  gc.broadcast(std::span<float>(hdr, 4), root);
  const std::size_t len = static_cast<std::size_t>(hdr[0]) * 65536 +
                          static_cast<std::size_t>(hdr[1]);
  std::vector<float> payload((len + 3) / 4, 0.0f);
  if (gc.rank() == root) {
    std::memcpy(payload.data(), bytes.data(), bytes.size());
  }
  if (!payload.empty()) {
    gc.broadcast(payload, root);
  }
  if (gc.rank() != root) {
    std::string raw(len, '\0');
    std::memcpy(raw.data(), payload.data(), len);
    std::istringstream is(raw);
    load_train_checkpoint(is, replica.net(), replica.opt(), meta,
                          /*expect_world=*/0);
    // The baseline crossed the wire as a float; every member (including
    // the root, which rounded at capture) now holds the identical double.
    replica.set_first_loss(hdr[2] != 0.0f
                               ? std::optional<double>(hdr[3])
                               : std::nullopt);
  }
}

}  // namespace

void ElasticOptions::validate() const {
  MINSGD_CHECK(local_batch >= 1, "ElasticOptions: local_batch ", local_batch,
               " < 1");
  MINSGD_CHECK(initial_world >= 1, "ElasticOptions: initial_world ",
               initial_world, " < 1");
  MINSGD_CHECK(max_world >= initial_world, "ElasticOptions: max_world ",
               max_world, " < initial_world ", initial_world);
  MINSGD_CHECK(total_iterations >= 0, "ElasticOptions: total_iterations ",
               total_iterations, " < 0");
  MINSGD_CHECK(base_global_batch >= 0, "ElasticOptions: base_global_batch ",
               base_global_batch, " < 0");
  MINSGD_CHECK(recv_timeout.count() >= 0,
               "ElasticOptions: recv_timeout < 0");
  MINSGD_CHECK(train.epochs >= 1, "ElasticOptions: epochs ", train.epochs,
               " < 1");
  for (const auto& ev : events) {
    MINSGD_CHECK(ev.rank >= 0 && ev.rank < max_world,
                 "ElasticOptions: event rank ", ev.rank,
                 " outside [0, max_world=", max_world, ")");
    MINSGD_CHECK(ev.at_iter >= 0, "ElasticOptions: event at_iter ",
                 ev.at_iter, " < 0");
  }
}

ElasticResult train_sync_elastic(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const std::function<std::unique_ptr<optim::Optimizer>()>& opt_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const ElasticOptions& options,
    std::shared_ptr<comm::FaultInjector> injector) {
  options.validate();
  const TrainOptions& t = options.train;
  validate_sync_options(t, options.local_batch * options.initial_world,
                        options.initial_world, "train_sync_elastic");
  const std::int64_t base_gb =
      options.base_global_batch != 0
          ? options.base_global_batch
          : options.local_batch * options.initial_world;
  if (options.local_batch * options.max_world > dataset.train_size() ||
      base_gb > dataset.train_size()) {
    throw std::invalid_argument(
        "train_sync_elastic: a world's global batch exceeds the training "
        "set");
  }
  // Base-geometry epoch length; the schedule, the eval cadence, and the
  // derived iteration budget all key off it so runs with different
  // membership histories stay comparable.
  const std::int64_t ipw = dataset.train_size() / base_gb;
  const std::int64_t total_iters = options.total_iterations != 0
                                       ? options.total_iterations
                                       : t.epochs * ipw;
  if (total_iters <= 0) {
    throw std::invalid_argument("train_sync_elastic: zero-iteration run");
  }

  comm::SimCluster cluster(
      comm::ClusterOptions{options.max_world, t.compute_threads});
  if (injector) cluster.set_fault_injector(std::move(injector));
  if (options.recv_timeout.count() > 0) {
    cluster.set_recv_timeout(options.recv_timeout);
  }

  comm::MembershipView init;
  init.generation = 0;
  for (int r = 0; r < options.initial_world; ++r) init.ranks.push_back(r);
  comm::ElasticCoordinator coordinator(cluster, init, options.events);

  RunLog log;
  std::string final_state;  // guarded by log.mu

  auto rank_fn = [&](comm::Communicator& comm) {
    const int phys = comm.rank();  // full-world: physical identity
    // The replica (and its network's plan) survives generation changes;
    // the plan rebuilds on the batch-geometry change after a resize.
    auto net = model_factory();
    auto opt = opt_factory();
    SyncReplica replica(*net, *opt, t, comm::AllreduceAlgo::kRing);
    optim::ElasticLrScale lrs(schedule, base_gb);
    const RunShape shape{lrs, dataset, t, ipw, total_iters,
                         /*print_world=*/true};

    // Per-generation state, rebuilt by adopt() after every commit.
    std::unique_ptr<comm::Communicator> gc;
    std::unique_ptr<data::ShardedLoader> loader;

    std::int64_t global_iter = 0;  // next iteration to execute
    bool has_state = false;        // replica holds real training state
    bool diverged = false;
    bool active = phys < options.initial_world;
    // The last step is applied. A fault after it (the closing barrier)
    // changes no weight, so the rank finishes instead of re-forming.
    auto done = [&] { return diverged || global_iter >= total_iters; };

    auto teardown = [&] {
      replica.detach();  // joins the comm worker before transport changes
      loader.reset();
      gc.reset();
    };

    auto adopt = [&](const comm::MembershipView& view) {
      teardown();
      gc = std::make_unique<comm::Communicator>(cluster, phys, view, 0);
      const std::int64_t gb = options.local_batch * view.world();
      loader = std::make_unique<data::ShardedLoader>(dataset, gb, gc->rank(),
                                                     view.world(), t.augment);
      lrs.set_batch(gb);
      replica.attach(*gc, *loader);
    };

    // The v2 checkpoint header for position `gi` in this generation.
    auto meta_at = [&](std::int64_t gi) {
      TrainCheckpoint meta;
      meta.global_iter = gi;
      meta.epoch = gi / loader->iterations_per_epoch();
      meta.iter = gi % loader->iterations_per_epoch();
      meta.world = gc->world();
      meta.global_batch = loader->global_batch();
      meta.rng = Rng(t.init_seed).state();
      return meta;
    };

    auto state_sync = [&](const comm::ReconfigOutcome& oc) {
      TrainCheckpoint meta =
          oc.is_root ? meta_at(oc.resume_iter) : TrainCheckpoint{};
      broadcast_state(*gc, oc.state_root, replica, meta);
      global_iter = oc.resume_iter;
      replica.set_steps_done(oc.resume_iter);
      has_state = true;
    };

    // The one reconfiguration routine: scheduled resizes, fault and crash
    // survivors and admitted joiners all re-form here. Retries until a
    // committed view either includes this rank with its state synced (stays
    // active) or excludes it (parks as standby). The state broadcast is the
    // new generation's first traffic and its only liveness check: a payload
    // that faults or fails to load burns the generation and re-forms; a
    // rank whose sync fails kMaxRounds times in a row is reported dead, so
    // the next view drops it instead of listing a rank that never synced.
    auto do_reconfig = [&] {
      for (int sync_failures = 0;;) {
        replica.detach();
        comm::ReconfigOutcome oc;
        try {
          oc = coordinator.reconfigure(
              phys, has_state ? replica.steps_done() : -1);
        } catch (const std::runtime_error&) {
          break;  // run declared failed; await_admission then returns false
        }
        if (oc.role != comm::MemberRole::kMember) break;
        adopt(oc.view);
        try {
          state_sync(oc);
          active = true;
          return;
        } catch (const comm::RankFailure&) {
          coordinator.report_death(phys);
          break;  // the slot parks as a replacement standby
        } catch (const std::exception&) {
          if (++sync_failures > comm::ElasticCoordinator::kMaxRounds) {
            coordinator.report_death(phys);
            break;
          }
          coordinator.report_failure(phys);
        }
      }
      teardown();
      active = false;
    };

    if (active) {
      adopt(coordinator.view());
      if (!options.resume_state.empty()) {
        std::istringstream is(options.resume_state);
        TrainCheckpoint meta;
        load_train_checkpoint(is, replica.net(), replica.opt(), meta,
                              /*expect_world=*/0);
        global_iter = meta.global_iter;
        replica.set_steps_done(meta.global_iter);
      }
      has_state = true;
    }

    for (;;) {
      if (!active) {
        if (!coordinator.await_admission(phys)) break;
        do_reconfig();
        continue;
      }

      if (done()) {
        // Every member that applied the last step holds the same bytes, so
        // the first to finish records them: a straggler that lost the last
        // step's final message finds the run over and records nothing.
        if (coordinator.finish()) {
          std::ostringstream os;
          save_train_checkpoint(os, replica.net(), replica.opt(),
                                meta_at(global_iter));
          log.finish(replica, global_iter, diverged);
          std::lock_guard lk(log.mu);
          final_state = os.str();
        }
        break;
      }

      if (coordinator.reconfig_due(global_iter)) {
        do_reconfig();
        continue;
      }

      try {
        run_iteration(replica, shape, log, global_iter, diverged);
      } catch (const comm::RankFailure&) {
        coordinator.report_death(phys);
        teardown();
        active = false;  // the slot parks as a replacement standby
      } catch (const comm::CommTimeout&) {
        if (!done()) {
          coordinator.report_failure(phys);
          do_reconfig();
        }
      } catch (const comm::ClusterAborted&) {
        // A peer observed the fault first; its report is already pending.
        if (!done()) do_reconfig();
      }
    }
  };

  try {
    cluster.run(rank_fn);
  } catch (...) {
    if (coordinator.run_failed()) {
      throw std::runtime_error("train_sync_elastic: " +
                               coordinator.fail_reason());
    }
    throw;
  }
  if (coordinator.run_failed()) {
    throw std::runtime_error("train_sync_elastic: " +
                             coordinator.fail_reason());
  }

  ElasticResult out;
  out.result = log.result();
  out.final_weights = std::move(log.final_weights);
  out.final_state = std::move(final_state);
  out.iterations = log.iterations;
  out.reconfigs = coordinator.records();
  out.reconfigurations = static_cast<int>(out.reconfigs.size());
  out.traffic = cluster.total_traffic();
  out.faults = cluster.total_faults();
  publish_run_metrics(cluster, log.exposed_ns, log.total_ns);
  return out;
}

}  // namespace minsgd::train
