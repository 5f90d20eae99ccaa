// Older serve-layer names of the scheduler's admission types, still used by
// perfbench/.  Both tenant quota families -- sliding-window rate limits and
// in-flight rank caps -- are applied by sched::run_schedule, configured
// through sched::SchedulerConfig::quotas (sched/scheduler.hpp).
#pragma once

#include "sched/scheduler.hpp"

namespace hprs::serve {

using ServiceConfig = sched::SchedulerConfig;
using TenantQuotas = sched::TenantQuotas;
using RateRejection = sched::RateRejection;
using sched::apply_rate_limits;

}  // namespace hprs::serve
