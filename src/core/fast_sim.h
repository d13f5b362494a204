// Compatibility shim: the crash-free fast sim is run_fast_sim_crash with a
// null adversary (core/fast_sim_crash.h). These names remain only because
// the repository benchmark (benchmark/) still calls run_fast_sim directly;
// nothing else may include this header. Delete it once the benchmark times
// fast-sim cells through api::FastSimBackend::run (ROADMAP.md, open item 2).
#pragma once

#include "core/fast_sim_crash.h"

namespace bil::core {

using FastSimOptions = CrashFastSimOptions;
using FastSimResult = CrashFastSimResult;

/// A failure-free run_fast_sim_crash.
[[nodiscard]] inline FastSimResult run_fast_sim(const FastSimOptions& options) {
  return run_fast_sim_crash(options, nullptr);
}

}  // namespace bil::core
