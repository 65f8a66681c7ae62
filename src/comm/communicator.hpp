// Communicator: the rank-facing message-passing API (an MPI subset).
//
// Point-to-point send/recv over mailboxes, plus the collectives synchronous
// SGD needs: barrier, binomial-tree broadcast/reduce, allgather, and an
// allreduce with selectable algorithm (star, ring, binomial tree,
// recursive halving-doubling). All collectives are implemented *on top of*
// send/recv so the traffic meter sees every message — the message/byte
// counts of Figures 8-10 are measured, not assumed.
//
// Usage contract (as in MPI): every rank of the cluster must call the same
// sequence of collective operations.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/mailbox.hpp"
#include "comm/traffic.hpp"

namespace minsgd {
class ComputeContext;
}

namespace minsgd::comm {

class SimCluster;
struct MembershipView;

enum class AllreduceAlgo {
  kStar,              // everyone -> root, root sums, root -> everyone
  kRing,              // reduce-scatter + allgather ring (bandwidth-optimal)
  kTree,              // binomial reduce to 0 + binomial broadcast
  kRecursiveHalving,  // recursive halving-doubling (latency-optimal-ish)
};

const char* to_string(AllreduceAlgo algo);

class Communicator {
 public:
  /// Full-world communicator over the cluster (generation 0, virtual rank
  /// == physical rank). `channel` selects a disjoint collective-tag space;
  /// all ranks of a collective must use the same channel. Channel 0 is the
  /// default rank-facing channel; the async collective engine's worker
  /// thread uses channel 1 so its collectives can run concurrently with the
  /// main channel's without tag collisions.
  Communicator(SimCluster& cluster, int rank, int channel = 0);

  /// Group communicator over the members of `view`. This rank's virtual
  /// rank is its dense index in the view; collective tags carry the view's
  /// generation as a prefix, so in-flight traffic from an older generation
  /// can never match (see membership.hpp). `physical_rank` must be a
  /// member of the view.
  Communicator(SimCluster& cluster, int physical_rank,
               const MembershipView& view, int channel = 0);

  /// Same membership and generation as `base`, different channel.
  Communicator(const Communicator& base, int channel);

  /// Virtual rank: this rank's dense index among the group members (equal
  /// to the physical rank for a full-world communicator).
  int rank() const { return rank_; }
  /// Members of this communicator's group (the cluster world when full).
  int world() const;
  /// The underlying cluster thread identity, regardless of group.
  int physical_rank() const { return phys_; }
  /// Membership generation whose tag space this communicator speaks.
  std::int64_t generation() const { return generation_; }
  SimCluster& cluster() const { return cluster_; }

  /// This rank's compute context (its slice of the cluster's global intra-op
  /// thread budget). Rank code must use this — never the process default —
  /// so total worker threads stay bounded.
  const ComputeContext& ctx() const;

  // -- point to point ----------------------------------------------------
  /// Buffered, non-blocking send (never deadlocks on unmatched recv order).
  /// Subject to the cluster's fault injector, if any: the message may be
  /// dropped, delayed, duplicated, or corrupted, and an injected crash
  /// surfaces here as RankFailure. Throws ClusterAborted once the cluster
  /// has aborted.
  void send(int dst, std::int64_t tag, std::span<const float> data);

  /// Blocks until the matching message arrives, the cluster's recv deadline
  /// expires (throws CommTimeout with a queue snapshot), or the cluster
  /// aborts (throws ClusterAborted).
  std::vector<float> recv(int src, std::int64_t tag);

  /// recv with an explicit deadline overriding the cluster default.
  std::vector<float> recv_for(int src, std::int64_t tag,
                              std::chrono::milliseconds timeout);

  /// Ring allreduce steps whose outgoing chunk is at least this many bytes
  /// use the rendezvous protocol (see exchange()); smaller ones stay eager.
  /// The bench_ablation_allreduce transport sweep (EXPERIMENTS.md, 4-vCPU
  /// AVX-512 VM, worlds 2 and 4, plus a run with this constant at 0) timed
  /// rendezvous per call 1.5-1.7x slower than eager at 4 KiB chunks, 1-11%
  /// slower at 64 KiB, even at 128 KiB, and ahead in every run from
  /// 256 KiB on (1.0-1.3x at 256 KiB, 1.6-2.0x at 1 MiB, 3-7x at 32 MiB).
  /// The 32 KiB chunks of a 64 KiB overlap bucket on two ranks therefore
  /// stay eager.
  static constexpr std::size_t kRendezvousBytes = std::size_t{256} << 10;

  // -- collectives ---------------------------------------------------------
  /// Synchronizes all ranks.
  void barrier();

  /// Binomial-tree broadcast of `data` from `root` (in place on non-roots).
  void broadcast(std::span<float> data, int root = 0);

  /// Binomial-tree sum-reduction into `root`'s buffer; other ranks' buffers
  /// are left unspecified.
  void reduce_sum(std::span<float> data, int root = 0);

  /// In-place allreduce (sum) with the chosen algorithm.
  void allreduce_sum(std::span<float> data,
                     AllreduceAlgo algo = AllreduceAlgo::kRing);

  /// Gathers equal-size `local` contributions from every rank into `out`
  /// (out.size() == world * local.size()), rank-major order.
  void allgather(std::span<const float> local, std::span<float> out);

 private:
  void allreduce_star(std::span<float> data);
  void allreduce_ring(std::span<float> data);
  void allreduce_tree(std::span<float> data);
  void allreduce_rhd(std::span<float> data);

  /// One ring step: sends `out` to `dst` and lands the message from `src`
  /// in `in` (adds it when `add`, else copies it). An `out` of at least
  /// kRendezvousBytes goes by rendezvous when no fault injector is
  /// installed: the peer reads it straight out of this rank's buffer, and
  /// exchange() returns only once that read is acknowledged, or, on abort
  /// or deadline, once the view is withdrawn or its read has finished.
  /// Smaller chunks, and every chunk under an injector, take the eager
  /// send() path. Either way the meter records one message of out's bytes,
  /// and `in` must not overlap `out`.
  void exchange(int dst, int src, std::int64_t tag, std::span<const float> out,
                std::span<float> in, bool add);

  /// Takes the message (src, tag) from this rank's mailbox, throwing
  /// CommTimeout after `timeout` or ClusterAborted on abort.
  Message take(int src, std::int64_t tag, std::chrono::milliseconds timeout);

  /// Attributes sends inside a collective to that collective for the
  /// traffic meter. Only the *outermost* collective claims the traffic
  /// (allreduce-tree's internal reduce/broadcast stay "allreduce-tree");
  /// a Communicator is used by exactly one rank thread, so a plain member
  /// suffices.
  class OpScope {
   public:
    OpScope(Communicator& comm, WireOp op) : comm_(comm), prev_(comm.op_) {
      if (prev_ == WireOp::kP2P) comm_.op_ = op;
    }
    ~OpScope() { comm_.op_ = prev_; }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    Communicator& comm_;
    WireOp prev_;
  };

  /// Next tag for a collective op. All ranks run the same collective
  /// sequence per channel, so matching counters yield matching tags.
  std::int64_t next_collective_tag() { return tag_base_ + seq_++; }

  /// Outermost-collective entry hook for the fault injector's straggler
  /// stall (a slow node arriving late, distinct from per-message delay).
  /// No-op inside nested collectives or without an injector.
  void maybe_stall();

  /// Physical rank behind group-virtual rank `v`.
  int to_phys(int v) const {
    return members_.empty() ? v : members_[static_cast<std::size_t>(v)];
  }

  static constexpr std::int64_t kCollectiveBase = std::int64_t{1} << 40;
  /// Tag distance between channels; collective sequence numbers never get
  /// anywhere near this.
  static constexpr std::int64_t kChannelStride = std::int64_t{1} << 36;
  static constexpr int kMaxChannels = 8;
  /// Tag distance between membership generations, above the channel space,
  /// so {generation, channel, seq} tags are all mutually disjoint.
  static constexpr std::int64_t kGenerationStride = std::int64_t{1} << 43;
  static constexpr std::int64_t kMaxGenerations = std::int64_t{1} << 19;

  SimCluster& cluster_;
  int rank_;  // virtual rank within members_ (== phys_ when full-world)
  std::vector<int> members_;  // ascending physical ranks; empty = full world
  int phys_;
  int channel_ = 0;
  std::int64_t generation_ = 0;
  std::int64_t tag_base_ = kCollectiveBase;
  std::int64_t seq_ = 0;
  /// Rendezvous counter for the message-free full-world barrier; stands in
  /// for a wire tag in its flight events (all ranks run the same barrier
  /// sequence, so counters align like collective tags do).
  std::int64_t barrier_seq_ = 0;
  WireOp op_ = WireOp::kP2P;
};

}  // namespace minsgd::comm
