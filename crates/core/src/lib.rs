//! # phonebit-core
//!
//! The PhoneBit inference engine — the paper's primary contribution
//! (Chen et al., *PhoneBit*, DATE 2020), built on the `phonebit-gpusim`
//! simulated mobile GPU and the `phonebit-nn` operator library.
//!
//! The deployment pipeline mirrors the paper's Fig 2:
//!
//! 1. A trained float checkpoint ([`phonebit_nn::graph::NetworkDef`]) is
//!    [`convert`]ed: weights sign-binarized and channel-packed, batch-norms
//!    fused into per-channel thresholds `ξ = µ − βσ/γ − b` (Eqn 6).
//! 2. The result — a [`model::PbitModel`] — serializes to the compressed
//!    `.pbit` [`format`](mod@crate::format) module.
//! 3. On the phone, a [`engine::Session`] stages the model against the
//!    device's memory budget and runs inference with per-layer timing.
//!
//! [`estimate::estimate_arch`] reproduces the engine's exact dispatch
//! sequence from shapes alone, for full-scale benchmarking, and
//! [`estimate::estimate_arch_with`] adds a batch and the ablation knobs.
//! The lowered [`plan::ExecutionPlan`] carries every cost input the
//! estimator needs — each float conv's fused activation epilogue on its
//! [`plan::StepOp::FConv`] and each layer's staged weight bytes on
//! [`plan::ExecutionPlan::staged_layer_bytes`] — so the engine and the
//! estimator charge the same plan and nothing travels beside it; [`planner`]
//! computes deployed memory footprints; [`builder::NetworkBuilder`] is the
//! Fig-3-style construction API.
//!
//! For serving-scale throughput, [`Session::new_batched`](engine::Session::new_batched)
//! stages the same weights once and runs whole request windows — one
//! batch-covering dispatch per kernel over a double-banked arena;
//! [`estimate::estimate_arch_with`] models it at full scale and
//! [`planner::plan_on_batched`] / [`planner::max_feasible_batch`] size the
//! batched deployment against a phone's budget.
//!
//! For device sharing, [`serve::DeviceRuntime`] co-resides several
//! heterogeneous models as tenants on one device: a pooled arena
//! ([`planner::plan_multitenant`]), a work-stealing window scheduler
//! ([`serve::schedule_windows`]), and contention-aware per-tenant
//! admission against the other tenants' registered dispatch mix. One
//! admit-and-model step returns each tenant's admission, plan and window
//! costs: the runtime stages exactly those plans, and the serving and
//! fleet estimators schedule exactly those costs.
//! [`serve::ServeRuntime`] is the single-tenant wrapper.
//!
//! For robustness, the runtime also serves **open-loop**: requests arrive
//! on seeded stochastic processes ([`arrival::ArrivalProcess`]) with
//! deadlines anchored to arrival, and
//! [`serve::DeviceRuntime::serve_open_loop`] survives an injected
//! [`phonebit_gpusim::FaultPlan`] (transient dispatch failures, thermal
//! throttle epochs) by bounded retry with backoff, deadline shedding, and
//! shed-triggered batch replans — with live
//! [`attach`](serve::DeviceRuntime::attach) /
//! [`detach`](serve::DeviceRuntime::detach) that never restage surviving
//! tenants.
//!
//! [`convert`]: convert::convert

#![warn(missing_docs)]

pub mod arrival;
pub mod builder;
pub mod convert;
pub mod engine;
pub mod estimate;
pub mod fleet;
pub mod format;
pub mod model;
pub mod paging;
pub mod plan;
pub mod planner;
pub mod serve;
pub mod stats;

pub use arrival::ArrivalProcess;
pub use builder::NetworkBuilder;
pub use convert::convert;
pub use engine::{
    ActivationData, EngineError, MultiStream, ResidencyManager, Session, StagedModel, Stream,
};
pub use estimate::{estimate_arch, estimate_arch_with, EstimateOptions};
pub use fleet::{
    estimate_fleet, zipf_rates, Fleet, FleetAction, FleetDeviceReport, FleetDeviceSpec, FleetEvent,
    FleetMigration, FleetOptions, FleetOutcome, FleetReport, FleetRequestFate, FleetTenantReport,
    RoutePolicy, RoutedRequest,
};
pub use model::{PbitLayer, PbitModel};
pub use paging::{paged_floor_bytes, paged_min_bytes, BankState, PagingSchedule, PagingStep};
pub use plan::{
    ChainDecision, CompressDecision, CompressStats, CompressionMode, ExecutionPlan, FusedKind,
    FusedMember, FusionMode, PlanStep, PlanValue, RouteOverrides, StepOp, ValueKind, ValueRole,
};
pub use planner::{
    max_feasible_batch, max_feasible_batch_multitenant, max_feasible_batch_sharded, plan,
    plan_batched, plan_multitenant, plan_on, plan_on_batched, plan_on_sharded, select_conv_path,
    select_conv_path_with, ConvPath, ConvPlan, MemoryPlan, MultiTenantPlan,
};
pub use serve::{
    estimate_serve, estimate_serve_multitenant, estimate_serve_multitenant_budgeted,
    estimate_serve_open_loop, schedule_open_loop, schedule_windows, Admission, DeviceRuntime,
    MultiServeReport, MultiTenantEstimate, OpenLoopAttempt, OpenLoopEstimate, OpenLoopLoad,
    OpenLoopOptions, OpenLoopReport, OpenLoopSchedule, OpenLoopWindow, OpenLoopWorkload,
    RetryPolicy, ScheduledWindow, ServeEstimate, ServeOptions, ServeReport, ServeRuntime,
    ShedReason, Tenant, TenantEstimate, TenantLoad, TenantOpenLoopEstimate, TenantOpenLoopReport,
    TenantServeReport, TenantSpec, TenantTraffic, TenantWorkload, WindowFate,
};
pub use stats::{LayerRun, RunReport};
