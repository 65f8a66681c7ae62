// Energy model (paper Table 12, Horowitz's 45nm numbers).
//
// The paper's point: moving a word costs orders of magnitude more energy
// than computing with it (DRAM access 640 pJ vs float multiply 3.7 pJ), so
// reducing communication volume — which large batches do — saves energy as
// well as time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace minsgd::perf {

enum class OpKind { kComputation, kCommunication };

struct EnergyEntry {
  std::string operation;
  OpKind kind;
  double picojoules;
};

/// The 45nm CMOS energy table exactly as the paper reproduces it.
const std::vector<EnergyEntry>& energy_table_45nm();

/// Convenience accessors for the entries the estimators use.
double energy_pj_float_add();
double energy_pj_float_mul();
double energy_pj_dram_access();

/// Energy estimate for one training iteration, in joules.
///
/// Computation: flops split evenly into adds and multiplies.
/// Communication: every gradient word is read from DRAM, moved, and written
/// back at the receiver (2 DRAM accesses per word per hop).
struct IterationEnergy {
  double compute_j = 0.0;
  double comm_j = 0.0;
  double total() const { return compute_j + comm_j; }
};

IterationEnergy estimate_iteration_energy(std::int64_t flops,
                                          std::int64_t comm_words,
                                          std::int64_t hops);

}  // namespace minsgd::perf
