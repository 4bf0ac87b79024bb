// Counter invariants, written once: relations between counters that every
// run must keep, asserted by the suites that drive those counters.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "common/counters.h"
#include "dist/router.h"

namespace diffpattern::test {

/// Every failover is classified into exactly one fault class, so the
/// per-class breakdown sums back to the total.
inline void expect_failover_taxonomy(const dist::RouterCounters& c) {
  EXPECT_EQ(c.failovers,
            c.transport_timeouts + c.transport_errors + c.decode_failures);
}

/// Each fused slot either evaluates or skips every one of the schedule's
/// `k` steps. Holds once no job is mid-round and none was cancelled.
inline void expect_eval_accounting(const common::ServiceCounters& c,
                                   std::int64_t k) {
  EXPECT_EQ(c.net_evals + c.steps_skipped, c.fused_slots_total * k);
}

}  // namespace diffpattern::test
