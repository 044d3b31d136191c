//! Compatibility re-export of the deterministic parallel executor.
//!
//! [`ShardPlan`] started life in this module driving the fault
//! simulator's universe sharding; once population diagnosis (`bisd`)
//! and SoC construction (`esram-diag`) adopted the same pattern, the
//! plan — and the executor built around it — moved to the dedicated
//! [`esram_exec`] crate. Everything is re-exported here so existing
//! `march::ShardPlan` paths keep working, and so downstream crates
//! (`bisd`, `esram-diag`) reach the executor, the failpoint harness and
//! the cost table without a direct `esram-exec` dependency edge. A run
//! is configured by explicit values only: a [`ShardPlan`], the
//! simulator's `with_kernel` and a [`FailpointGuard`].

pub use esram_exec::{
    block_ranges, cost_ranges, even_ranges, panic_payload, steal_schedule, CostCalibration, CostDomain,
    DomainWeights, ExecError, FailAction, Failpoint, FailpointGuard, FailpointSet, InjectedFailure,
    ItemFault, RunToken, ShardPlan, ShardStrategy, DEFAULT_BLOCK_SIZE,
};

pub use esram_exec::failpoint;
