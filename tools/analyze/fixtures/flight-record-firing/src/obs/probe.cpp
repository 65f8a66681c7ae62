// Firing: direct flight-recorder record() calls bypassing the
// MINSGD_FLIGHT macro (and its enabled() gate).
// Expected findings: flight-record/direct-record for each bad_* function.
#include "obs/flight.hpp"

void bad_direct_singleton(long tag) {
  minsgd::obs::flight().record(minsgd::obs::FlightKind::kCollBegin,
                               minsgd::obs::FlightOp::kBarrier, 0, tag, 0, 0,
                               0);
}

void bad_named_reference(long tag) {
  auto& rec = minsgd::obs::flight();
  rec.record(minsgd::obs::FlightKind::kCollEnd,
             minsgd::obs::FlightOp::kBarrier, 0, tag, 0, 0, 0);
}

void good_macro(long tag) {
  MINSGD_FLIGHT(minsgd::obs::FlightKind::kCollBegin,
                minsgd::obs::FlightOp::kBarrier, 0, tag, 0, 0, 0);
}
