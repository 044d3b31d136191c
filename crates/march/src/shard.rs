//! Compatibility re-export of the deterministic parallel executor.
//!
//! [`ShardPlan`] started life in this module driving the fault
//! simulator's universe sharding; once population diagnosis (`bisd`)
//! and SoC construction (`esram-diag`) adopted the same pattern, the
//! plan — and the executor built around it — moved to the dedicated
//! [`esram_exec`] crate. Everything is re-exported here so existing
//! `march::ShardPlan` / `march::shard::THREADS_ENV` paths keep working,
//! and so downstream crates (`bisd`, `esram-diag`) reach the shared
//! env-knob machinery and cost table without a direct `esram-exec`
//! dependency edge.

pub use esram_exec::{
    block_ranges, cost_ranges, even_ranges, panic_payload, steal_schedule, CostCalibration, CostDomain,
    DomainWeights, EnvFallback, ExecError, FailAction, Failpoint, FailpointGuard, FailpointSet,
    FaultSimKernel, InjectedFailure, ItemFault, RunToken, ShardPlan, ShardStrategy, DEFAULT_BLOCK_SIZE,
    FAILPOINTS_ENV, FAULTSIM_KERNEL_ENV, SCHED_ENV, THREADS_ENV,
};

pub use esram_exec::env::{parse_knob, read_knob};
pub use esram_exec::failpoint;
