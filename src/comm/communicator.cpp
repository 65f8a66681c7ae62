#include "comm/communicator.hpp"

#include <algorithm>
#include <stdexcept>

#include "comm/cluster.hpp"
#include "comm/fault.hpp"
#include "comm/membership.hpp"
#include "core/check.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace minsgd::comm {

const char* to_string(AllreduceAlgo algo) {
  switch (algo) {
    case AllreduceAlgo::kStar: return "star";
    case AllreduceAlgo::kRing: return "ring";
    case AllreduceAlgo::kTree: return "tree";
    case AllreduceAlgo::kRecursiveHalving: return "rec-halving-doubling";
  }
  return "?";
}

const char* to_string(WireOp op) {
  switch (op) {
    case WireOp::kP2P: return "p2p";
    case WireOp::kBroadcast: return "broadcast";
    case WireOp::kReduce: return "reduce";
    case WireOp::kAllgather: return "allgather";
    case WireOp::kAllreduceStar: return "allreduce-star";
    case WireOp::kAllreduceRing: return "allreduce-ring";
    case WireOp::kAllreduceTree: return "allreduce-tree";
    case WireOp::kAllreduceRhd: return "allreduce-rhd";
    case WireOp::kCount: break;
  }
  return "?";
}

namespace {

WireOp wire_op(AllreduceAlgo algo) {
  switch (algo) {
    case AllreduceAlgo::kStar: return WireOp::kAllreduceStar;
    case AllreduceAlgo::kRing: return WireOp::kAllreduceRing;
    case AllreduceAlgo::kTree: return WireOp::kAllreduceTree;
    case AllreduceAlgo::kRecursiveHalving: return WireOp::kAllreduceRhd;
  }
  return WireOp::kP2P;
}

/// Hands a taken rendezvous message's view back to its sender once the
/// read is over, on every exit path; no-op for eager messages.
struct ReadGuard {
  explicit ReadGuard(Rendezvous* r) : rv(r) {}
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;
  ~ReadGuard() {
    if (rv != nullptr) rv->home->complete(*rv);
  }
  Rendezvous* rv;
};

obs::FlightOp flight_op(AllreduceAlgo algo) {
  switch (algo) {
    case AllreduceAlgo::kStar: return obs::FlightOp::kAllreduceStar;
    case AllreduceAlgo::kRing: return obs::FlightOp::kAllreduceRing;
    case AllreduceAlgo::kTree: return obs::FlightOp::kAllreduceTree;
    case AllreduceAlgo::kRecursiveHalving: return obs::FlightOp::kAllreduceRhd;
  }
  return obs::FlightOp::kNone;
}

}  // namespace

Communicator::Communicator(SimCluster& cluster, int rank, int channel)
    : cluster_(cluster), rank_(rank), phys_(rank) {
  // Construction is cluster-internal (SimCluster::run, the async engine);
  // a bad rank or channel is a wiring bug, not recoverable input.
  MINSGD_CHECK(rank >= 0 && rank < cluster.world(),
               "Communicator: rank ", rank, " outside world ",
               cluster.world());
  MINSGD_CHECK(channel >= 0 && channel < kMaxChannels,
               "Communicator: channel ", channel, " outside [0, ",
               kMaxChannels, ")");
  channel_ = channel;
  tag_base_ = kCollectiveBase + channel * kChannelStride;
}

Communicator::Communicator(SimCluster& cluster, int physical_rank,
                           const MembershipView& view, int channel)
    : cluster_(cluster),
      rank_(view.index_of(physical_rank)),
      members_(view.ranks),
      phys_(physical_rank),
      generation_(view.generation) {
  MINSGD_CHECK(rank_ >= 0, "Communicator: physical rank ", physical_rank,
               " not a member of generation ", view.generation);
  MINSGD_CHECK(channel >= 0 && channel < kMaxChannels,
               "Communicator: channel ", channel, " outside [0, ",
               kMaxChannels, ")");
  MINSGD_CHECK(generation_ >= 0 && generation_ < kMaxGenerations,
               "Communicator: generation ", generation_, " outside [0, ",
               kMaxGenerations, ")");
  int prev = -1;
  for (int r : members_) {
    MINSGD_CHECK(r > prev && r >= 0 && r < cluster.world(),
                 "Communicator: view ranks must be ascending physical "
                 "ranks, got ", r);
    prev = r;
  }
  channel_ = channel;
  tag_base_ = kCollectiveBase + channel * kChannelStride +
              generation_ * kGenerationStride;
}

Communicator::Communicator(const Communicator& base, int channel)
    : cluster_(base.cluster_),
      rank_(base.rank_),
      members_(base.members_),
      phys_(base.phys_),
      generation_(base.generation_) {
  MINSGD_CHECK(channel >= 0 && channel < kMaxChannels,
               "Communicator: channel ", channel, " outside [0, ",
               kMaxChannels, ")");
  channel_ = channel;
  tag_base_ = kCollectiveBase + channel * kChannelStride +
              generation_ * kGenerationStride;
}

int Communicator::world() const {
  return members_.empty() ? cluster_.world()
                          : static_cast<int>(members_.size());
}

const ComputeContext& Communicator::ctx() const {
  return cluster_.rank_context(phys_);
}

void Communicator::send(int dst, std::int64_t tag,
                        std::span<const float> data) {
  // Tag-space discipline: non-negative, and below the end of the
  // generation-prefixed channelized collective space. P2P callers must stay
  // under kCollectiveBase; the only tags at or above it are minted by
  // next_collective_tag (the analyzer's `tag-space` check keeps it so).
  MINSGD_CHECK(tag >= 0 &&
                   tag < kCollectiveBase + kMaxGenerations * kGenerationStride,
               "Communicator::send: tag ", tag, " outside the tag space");
  if (dst < 0 || dst >= world()) {
    throw std::invalid_argument("Communicator::send: bad destination");
  }
  if (dst == rank_) {
    throw std::invalid_argument("Communicator::send: self-send not allowed");
  }
  if (cluster_.aborted()) {
    throw ClusterAborted("Communicator::send: " + cluster_.abort_reason());
  }
  // The wire is addressed by physical rank: group communicators translate
  // their dense virtual ranks here, so mailboxes, the fault injector, and
  // the traffic meter all keep one identity per OS thread.
  const int dphys = to_phys(dst);
  Message msg{phys_, tag, std::vector<float>(data.begin(), data.end())};
  auto* injector = cluster_.fault_injector();
  SendAction action = SendAction::kDeliver;
  if (injector) {
    // May throw RankFailure (injected crash), sleep (straggler stall), or
    // corrupt the payload in place.
    action = injector->on_send(phys_, dphys, tag, msg.payload);
  }
  // Dropped and duplicated messages still went on the wire: the meter
  // counts what the sender emitted, not what arrived.
  cluster_.meter().record_send(static_cast<std::size_t>(phys_),
                               static_cast<std::int64_t>(data.size()) * 4,
                               op_);
  if (action == SendAction::kDrop) return;
  if (action == SendAction::kDeliverTwice) {
    cluster_.meter().record_send(static_cast<std::size_t>(phys_),
                                 static_cast<std::int64_t>(data.size()) * 4,
                                 op_);
    cluster_.mailbox(dphys).deliver(msg);
  }
  cluster_.mailbox(dphys).deliver(std::move(msg));
}

std::vector<float> Communicator::recv(int src, std::int64_t tag) {
  return recv_for(src, tag, cluster_.recv_timeout());
}

std::vector<float> Communicator::recv_for(int src, std::int64_t tag,
                                          std::chrono::milliseconds timeout) {
  Message msg = take(src, tag, timeout);
  if (msg.rendezvous == nullptr) return std::move(msg.payload);
  ReadGuard read{msg.rendezvous};
  return std::vector<float>(msg.view.begin(), msg.view.end());
}

Message Communicator::take(int src, std::int64_t tag,
                           std::chrono::milliseconds timeout) {
  MINSGD_CHECK(tag >= 0 &&
                   tag < kCollectiveBase + kMaxGenerations * kGenerationStride,
               "Communicator::recv: tag ", tag, " outside the tag space");
  if (src < 0 || src >= world()) {
    throw std::invalid_argument("Communicator::recv: bad source");
  }
  const int sphys = to_phys(src);
  Mailbox& mb = cluster_.mailbox(phys_);
  Message msg;
  switch (mb.take_for(sphys, tag, timeout, msg)) {
    case Mailbox::TakeStatus::kOk:
      return msg;
    case Mailbox::TakeStatus::kTimeout:
      // The black box records the hang before the unwind starts: which tag
      // this rank starved on, and from whom, survives in the postmortem
      // even if no peer ever learns about the timeout.
      MINSGD_FLIGHT(obs::FlightKind::kFault, obs::FlightOp::kTimeout,
                    channel_, tag, generation_, 0, sphys);
      throw CommTimeout(phys_, sphys, tag, timeout, mb.snapshot());
    case Mailbox::TakeStatus::kAborted:
      throw ClusterAborted("Communicator::recv: " + cluster_.abort_reason());
  }
  throw std::logic_error("Communicator::recv: unreachable");
}

void Communicator::exchange(int dst, int src, std::int64_t tag,
                            std::span<const float> out, std::span<float> in,
                            bool add) {
  const auto receive = [&] {
    Message msg = take(src, tag, cluster_.recv_timeout());
    ReadGuard read{msg.rendezvous};
    const std::span<const float> got = msg.data();
    if (add) {
      axpy(1.0f, got, in);
    } else {
      MINSGD_CHECK(got.size() == in.size(), "exchange: payload size mismatch (",
                   got.size(), " vs ", in.size(), ")");
      std::copy(got.begin(), got.end(), in.begin());
    }
  };
  if (out.size_bytes() < kRendezvousBytes ||
      cluster_.fault_injector() != nullptr) {
    send(dst, tag, out);
    receive();
    return;
  }
  if (cluster_.aborted()) {
    throw ClusterAborted("Communicator::exchange: " + cluster_.abort_reason());
  }
  const int dphys = to_phys(dst);
  Mailbox& peer = cluster_.mailbox(dphys);
  Mailbox& home = cluster_.mailbox(phys_);
  Rendezvous rv{&home};
  cluster_.meter().record_send(static_cast<std::size_t>(phys_),
                               static_cast<std::int64_t>(out.size_bytes()),
                               op_);
  peer.deliver(Message{phys_, tag, {}, out, &rv});
  // From here on `out` belongs to the peer until it completes `rv` or the
  // message is withdrawn unread; no exit path may skip that.
  const auto reclaim = [&] {
    if (!peer.withdraw(rv)) {
      home.wait_complete(rv, Mailbox::kNoTimeout, /*abortable=*/false);
    }
  };
  try {
    receive();
  } catch (...) {
    reclaim();
    throw;
  }
  const auto timeout = cluster_.recv_timeout();
  const auto status = home.wait_complete(rv, timeout, /*abortable=*/true);
  if (status == Mailbox::TakeStatus::kOk) return;
  reclaim();
  if (status == Mailbox::TakeStatus::kAborted) {
    throw ClusterAborted("Communicator::exchange: " + cluster_.abort_reason());
  }
  MINSGD_FLIGHT(obs::FlightKind::kFault, obs::FlightOp::kTimeout, channel_,
                tag, generation_, 0, dphys);
  throw CommTimeout(phys_, dphys, tag, timeout, home.snapshot());
}

void Communicator::maybe_stall() {
  // Only the outermost collective stalls (op_ still unclaimed): the nested
  // collectives of allreduce-tree model one late arrival, not three.
  if (op_ != WireOp::kP2P) return;
  if (auto* injector = cluster_.fault_injector()) {
    injector->on_collective_enter(phys_);
  }
}

void Communicator::barrier() {
  obs::ScopedSpan sp("barrier", obs::cat::kComm);
  if (members_.empty()) {
    maybe_stall();
    // The message-free path has no wire tag; the barrier counter stands in
    // (all ranks run the same barrier sequence, so counters align).
    const std::int64_t id = barrier_seq_++;
    MINSGD_FLIGHT(obs::FlightKind::kCollBegin, obs::FlightOp::kBarrier,
                  channel_, id, generation_, 0, 0);
    cluster_.barrier_sync().arrive_and_wait();
    MINSGD_FLIGHT(obs::FlightKind::kCollEnd, obs::FlightOp::kBarrier,
                  channel_, id, generation_, 0, 0);
    return;
  }
  // The shared-memory cluster barrier is sized to the full world, so a
  // group rendezvous must go over the wire: a 1-float tree allreduce in the
  // group's own tag space. (Test Traffic.BarrierIsFree pins the full-world
  // barrier to the message-free path above.)
  float token = 0.0f;
  allreduce_sum(std::span<float>(&token, 1), AllreduceAlgo::kTree);
}

void Communicator::broadcast(std::span<float> data, int root) {
  const int p = world();
  if (p == 1) return;
  maybe_stall();
  OpScope op(*this, WireOp::kBroadcast);
  obs::ScopedSpan sp("broadcast", obs::cat::kComm);
  sp.set_bytes(static_cast<std::int64_t>(data.size()) * 4);
  const std::int64_t tag = next_collective_tag();
  MINSGD_FLIGHT(obs::FlightKind::kCollBegin, obs::FlightOp::kBroadcast,
                channel_, tag, generation_,
                static_cast<std::int64_t>(data.size()) * 4, root);
  const int vrank = (rank_ - root + p) % p;
  // Receive from parent (the peer that differs in the lowest set bit).
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      const int vsrc = vrank - mask;
      auto payload = recv((vsrc + root) % p, tag);
      // All ranks pass same-shaped buffers to a collective; a mismatch means
      // the SPMD program diverged, which no rank can recover from.
      MINSGD_CHECK(payload.size() == data.size(),
                   "broadcast: payload size mismatch (", payload.size(),
                   " vs ", data.size(), ")");
      std::copy(payload.begin(), payload.end(), data.begin());
      break;
    }
    mask <<= 1;
  }
  // Forward to children.
  mask >>= 1;
  while (mask > 0) {
    if ((vrank & mask) == 0 && vrank + mask < p) {
      send(((vrank + mask) + root) % p, tag, data);
    }
    mask >>= 1;
  }
  MINSGD_FLIGHT(obs::FlightKind::kCollEnd, obs::FlightOp::kBroadcast,
                channel_, tag, generation_, 0, root);
}

void Communicator::reduce_sum(std::span<float> data, int root) {
  const int p = world();
  if (p == 1) return;
  maybe_stall();
  OpScope op(*this, WireOp::kReduce);
  obs::ScopedSpan sp("reduce", obs::cat::kComm);
  sp.set_bytes(static_cast<std::int64_t>(data.size()) * 4);
  const std::int64_t tag = next_collective_tag();
  MINSGD_FLIGHT(obs::FlightKind::kCollBegin, obs::FlightOp::kReduce,
                channel_, tag, generation_,
                static_cast<std::int64_t>(data.size()) * 4, root);
  const int vrank = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((vrank & mask) == 0) {
      if (vrank + mask < p) {
        auto payload = recv(((vrank + mask) + root) % p, tag);
        MINSGD_CHECK(payload.size() == data.size(),
                     "reduce_sum: payload size mismatch (", payload.size(),
                     " vs ", data.size(), ")");
        axpy(1.0f, payload, data);
      }
    } else {
      send(((vrank - mask) + root) % p, tag, data);
      break;
    }
    mask <<= 1;
  }
  MINSGD_FLIGHT(obs::FlightKind::kCollEnd, obs::FlightOp::kReduce,
                channel_, tag, generation_, 0, root);
}

void Communicator::allreduce_sum(std::span<float> data, AllreduceAlgo algo) {
  if (world() == 1) return;
  maybe_stall();
  OpScope op(*this, wire_op(algo));
  obs::ScopedSpan sp;
  if (obs::tracer().enabled()) {
    sp.start(std::string("allreduce.") + to_string(algo), obs::cat::kComm);
    sp.set_bytes(static_cast<std::int64_t>(data.size()) * 4);
    sp.set_label(to_string(algo));
  }
  // The first tag the algorithm will mint identifies this allreduce across
  // ranks; the FlightOp keeps the wrapper distinct from a nested collective
  // that reuses the same tag (allreduce-tree's inner reduce).
  const std::int64_t tag = tag_base_ + seq_;
  MINSGD_FLIGHT(obs::FlightKind::kCollBegin, flight_op(algo), channel_, tag,
                generation_, static_cast<std::int64_t>(data.size()) * 4, 0);
  switch (algo) {
    case AllreduceAlgo::kStar: allreduce_star(data); break;
    case AllreduceAlgo::kRing: allreduce_ring(data); break;
    case AllreduceAlgo::kTree: allreduce_tree(data); break;
    case AllreduceAlgo::kRecursiveHalving: allreduce_rhd(data); break;
  }
  MINSGD_FLIGHT(obs::FlightKind::kCollEnd, flight_op(algo), channel_, tag,
                generation_, 0, 0);
}

void Communicator::allgather(std::span<const float> local,
                             std::span<float> out) {
  const int p = world();
  const std::size_t n = local.size();
  if (out.size() != n * static_cast<std::size_t>(p)) {
    throw std::invalid_argument("allgather: out must be world * local");
  }
  maybe_stall();
  OpScope op(*this, WireOp::kAllgather);
  obs::ScopedSpan sp("allgather", obs::cat::kComm);
  sp.set_bytes(static_cast<std::int64_t>(n) * 4);
  const std::int64_t tag = next_collective_tag();
  MINSGD_FLIGHT(obs::FlightKind::kCollBegin, obs::FlightOp::kAllgather,
                channel_, tag, generation_,
                static_cast<std::int64_t>(n) * 4, 0);
  std::copy(local.begin(), local.end(),
            out.begin() + static_cast<std::ptrdiff_t>(n) * rank_);
  // Simple ring rotation: world-1 steps, each step pass the slot you just
  // received (starting with your own).
  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;
  int cur = rank_;
  for (int step = 0; step < p - 1; ++step) {
    send(right, tag + step,
         out.subspan(static_cast<std::size_t>(cur) * n, n));
    auto payload = recv(left, tag + step);
    cur = (cur - 1 + p) % p;
    std::copy(payload.begin(), payload.end(),
              out.begin() + static_cast<std::ptrdiff_t>(cur) * n);
  }
  seq_ += p;  // consumed p-1 step tags; keep counters aligned across ranks
  MINSGD_FLIGHT(obs::FlightKind::kCollEnd, obs::FlightOp::kAllgather,
                channel_, tag, generation_, 0, 0);
}

void Communicator::allreduce_star(std::span<float> data) {
  const std::int64_t tag = next_collective_tag();
  if (rank_ == 0) {
    for (int src = 1; src < world(); ++src) {
      auto payload = recv(src, tag);
      axpy(1.0f, payload, data);
    }
    for (int dst = 1; dst < world(); ++dst) send(dst, tag + 1, data);
  } else {
    send(0, tag, data);
    auto payload = recv(0, tag + 1);
    std::copy(payload.begin(), payload.end(), data.begin());
  }
  ++seq_;  // the reply tag
}

void Communicator::allreduce_tree(std::span<float> data) {
  reduce_sum(data, 0);
  broadcast(data, 0);
}

void Communicator::allreduce_ring(std::span<float> data) {
  const int p = world();
  const std::int64_t n = static_cast<std::int64_t>(data.size());
  if (n < p) {
    // Degenerate tiny payload: tree is simpler and correct.
    allreduce_tree(data);
    return;
  }
  const std::int64_t base_tag = next_collective_tag();
  seq_ += 2 * (p - 1);  // reserve a tag per step

  // Chunk c covers [c*n/p, (c+1)*n/p).
  auto chunk_begin = [&](int c) { return static_cast<std::int64_t>(c) * n / p; };
  auto chunk = [&](int c) {
    const std::int64_t b = chunk_begin(c);
    const std::int64_t e = static_cast<std::int64_t>(c + 1) * n / p;
    return data.subspan(static_cast<std::size_t>(b),
                        static_cast<std::size_t>(e - b));
  };

  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;

  // Reduce-scatter: after p-1 steps, rank r owns the full sum of chunk
  // (r+1) mod p.
  for (int step = 0; step < p - 1; ++step) {
    const int send_c = (rank_ - step + p) % p;
    const int recv_c = (rank_ - step - 1 + p) % p;
    exchange(right, left, base_tag + step, chunk(send_c), chunk(recv_c),
             /*add=*/true);
  }
  // Allgather: circulate the completed chunks.
  for (int step = 0; step < p - 1; ++step) {
    const int send_c = (rank_ + 1 - step + p) % p;
    const int recv_c = (rank_ - step + p) % p;
    exchange(right, left, base_tag + (p - 1) + step, chunk(send_c),
             chunk(recv_c), /*add=*/false);
  }
}

void Communicator::allreduce_rhd(std::span<float> data) {
  const int p = world();
  // Largest power of two <= p.
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int rem = p - p2;
  const std::int64_t tag = next_collective_tag();
  seq_ += 64;  // generous reservation: log2(p) phases + remainder traffic

  // Fold the surplus ranks into the first `rem` ranks.
  bool active = true;
  if (rank_ >= p2) {
    send(rank_ - p2, tag, data);
    active = false;
  } else if (rank_ < rem) {
    auto payload = recv(rank_ + p2, tag);
    axpy(1.0f, payload, data);
  }

  if (active) {
    // Recursive doubling on the p2 active ranks: exchange with partner at
    // distance `mask`, both sides add. (This is the halving-doubling
    // pattern specialized to whole-vector exchange; bandwidth-optimal
    // variants split the vector, which kTree/kRing already cover.)
    for (int mask = 1; mask < p2; mask <<= 1) {
      const int partner = rank_ ^ mask;
      send(partner, tag + 1 + mask, data);
      auto payload = recv(partner, tag + 1 + mask);
      axpy(1.0f, payload, data);
    }
  }

  // Unfold: send results back to the surplus ranks.
  if (rank_ < rem) {
    send(rank_ + p2, tag + 2, data);
  } else if (rank_ >= p2) {
    auto payload = recv(rank_ - p2, tag + 2);
    std::copy(payload.begin(), payload.end(), data.begin());
  }
}

}  // namespace minsgd::comm
