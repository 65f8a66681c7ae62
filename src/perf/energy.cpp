#include "perf/energy.hpp"

namespace minsgd::perf {

const std::vector<EnergyEntry>& energy_table_45nm() {
  static const std::vector<EnergyEntry> table = {
      {"32 bit int add", OpKind::kComputation, 0.1},
      {"32 bit float add", OpKind::kComputation, 0.9},
      {"32 bit register access", OpKind::kCommunication, 1.0},
      {"32 bit int multiply", OpKind::kComputation, 3.1},
      {"32 bit float multiply", OpKind::kComputation, 3.7},
      {"32 bit SRAM access", OpKind::kCommunication, 5.0},
      {"32 bit DRAM access", OpKind::kCommunication, 640.0},
  };
  return table;
}

double energy_pj_float_add() { return 0.9; }
double energy_pj_float_mul() { return 3.7; }
double energy_pj_dram_access() { return 640.0; }

IterationEnergy estimate_iteration_energy(std::int64_t flops,
                                          std::int64_t comm_words,
                                          std::int64_t hops) {
  IterationEnergy e;
  const double half_flops = static_cast<double>(flops) / 2.0;
  e.compute_j =
      (half_flops * energy_pj_float_add() + half_flops * energy_pj_float_mul())
      * 1e-12;
  e.comm_j = static_cast<double>(comm_words) * static_cast<double>(hops) *
             2.0 * energy_pj_dram_access() * 1e-12;
  return e;
}

}  // namespace minsgd::perf
