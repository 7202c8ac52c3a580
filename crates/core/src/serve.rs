//! The multi-tenant device runtime: co-resident [`StagedModel`]s on one
//! simulated GPU, a work-stealing window scheduler, and contention-aware
//! admission — with the single-model sharded [`ServeRuntime`] kept as a
//! thin wrapper over it.
//!
//! PhoneBit's premise is that the mobile GPU is a shared, scarce device —
//! and real phones run several networks at once (a detector next to a
//! classifier, a camera pipeline next to an always-on model). The
//! [`DeviceRuntime`] serves that regime: a **tenant registry** of multiple
//! heterogeneous models, each staged once (weights, GEMM banks, its own
//! [`ExecutionPlan`], SLO and arrival queue) into **one** budgeted device
//! context, sharing one [`DeviceClock`] and a **pooled arena** — every
//! stream holds a single slice sized to the largest tenant's banks, so any
//! stream can run any tenant's plan and the planner's cross-tenant peak is
//! `Σ weights + streams × max_tenant(banks × Σ slots)` (see
//! [`plan_multitenant`](crate::planner::plan_multitenant)) instead of the
//! per-model `weights + N × banks × Σ slots` formula multiplied across
//! tenants.
//!
//! **Work-stealing window scheduler.** Per-tenant arrival queues feed a
//! shared ready-set; whenever a stream goes idle it pulls the pending
//! window whose tenant is *furthest from its SLO* — least slack
//! (`deadline − (now + service)`) first, earliest-deadline tie-break, then
//! tenant order for determinism. Deadlines pace each tenant's windows at
//! its SLO (or its own modeled steady window when no SLO is set), so a
//! bursty tenant cannot starve a light one and idle streams absorb
//! backlog. The schedule is computed **deterministically on modeled time**
//! by [`schedule_windows`] and then executed verbatim: the runtime, the
//! full-scale [`estimate_serve`] / [`estimate_serve_multitenant`] models,
//! and the admission controller all drive this one code path, so the
//! modeled p95 cannot drift from the executed dispatch order.
//!
//! **Contention-aware admission.** Single-model sharding assumed every
//! other stream mirrors the current dispatch (symmetric streams). With
//! heterogeneous tenants that is wrong, so each tenant's batch is chosen
//! against the *other tenants' expected dispatch mix*: every tenant's plan
//! is walked once on a solo clocked queue to measure its [`QueueLoad`]
//! (mean CU fraction × busy duty), the blend is registered on the shared
//! clock ([`DeviceClock::set_mix`]), and candidate batches are modeled
//! under that mix. A single tenant degenerates to the symmetric model, so
//! every PR 4 admission decision is unchanged.
//!
//! Serving remains **bit-exact**: requests are windowed in arrival order
//! per tenant and outputs are reassembled into request order;
//! `tests/serve_multitenant.rs` pins co-resident outputs against solo runs
//! across the micro zoo and all four binary-convolution routes.
//!
//! [`Session`]: crate::Session
//! [`max_feasible_batch`]: crate::planner::max_feasible_batch

use std::sync::Arc;
use std::thread;

use phonebit_gpusim::buffer::{Context, SimError};
use phonebit_gpusim::clock::{DeviceClock, FaultPlan};
use phonebit_gpusim::cost::QueueLoad;
use phonebit_gpusim::queue::CommandQueue;
use phonebit_gpusim::{DeviceProfile, ExecutorClass, Phone};
use phonebit_nn::graph::NetworkArch;
use phonebit_tensor::tensor::Tensor;

use crate::arrival::ArrivalProcess;
use crate::engine::{ActivationData, EngineError, MultiStream, StagedModel};
use crate::estimate::walk_plan;
use crate::model::PbitModel;
use crate::plan::{ExecutionPlan, RouteOverrides};
use crate::stats::RunReport;

// ---------------------------------------------------------------------------
// Options and admission
// ---------------------------------------------------------------------------

/// Knobs for staging a [`ServeRuntime`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Concurrent streams sharing the staged model (>= 1).
    pub streams: usize,
    /// Requested window size, honored up to the sharded memory cap;
    /// `None` lets the admission controller pick the best probed window
    /// (sizes up to 64, always including the memory cap when it binds
    /// below that) against the SLO — or modeled throughput when no SLO is
    /// set.
    pub batch: Option<usize>,
    /// p95 steady-window latency target, milliseconds.
    pub slo_ms: Option<f64>,
    /// Route overrides applied when lowering and staging the plan — set
    /// [`RouteOverrides::fusion`] to serve fused chains; admission models
    /// the same overridden plan the streams execute.
    pub overrides: RouteOverrides,
    /// Pooled weight-residency budget, bytes: when the model's binary
    /// banks overflow it, the runtime pages them through a hot set at the
    /// paged floor instead of refusing to stage. `None` (the default)
    /// keeps every bank resident — the exact unpaged runtime.
    pub weight_budget: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            streams: 2,
            batch: None,
            slo_ms: None,
            overrides: RouteOverrides::default(),
            weight_budget: None,
        }
    }
}

/// What the admission controller decided at staging time, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    /// The admitted window size.
    pub batch: usize,
    /// Memory cap: the largest window that still fits the app budget —
    /// sharded arenas next to the shared weights for a single tenant, the
    /// pooled cross-tenant peak with every neighbor's batch held fixed for
    /// a co-resident one.
    pub max_feasible_batch: usize,
    /// Modeled steady-window latency of the admitted batch under
    /// multi-stream contention (the co-resident tenants' registered mix,
    /// when there are neighbors), milliseconds.
    pub modeled_window_ms: f64,
    /// The p95 target the controller optimized against, if any.
    pub slo_ms: Option<f64>,
    /// Whether the **admitted** batch's modeled latency meets the SLO
    /// (always `true` when no SLO was given). Under auto admission a
    /// `false` means even a single-image window is modeled over target —
    /// the runtime serves degraded; with an explicit requested batch it is
    /// that batch's verdict only (a smaller window might still meet the
    /// target).
    pub slo_met: bool,
    /// Weight-residency grant under paged admission: `None` when the
    /// tenant's full weight set is resident (always, without a weight
    /// budget), `Some(bytes)` when the tenant streams its banks through a
    /// hot set of this size — its no-stall paged floor
    /// ([`paged_floor_bytes`](crate::paged_floor_bytes)), or the hard
    /// minimum ([`paged_min_bytes`](crate::paged_min_bytes)) when the
    /// floors alone overflow the pooled budget. Modeled window latencies
    /// already fold in the upload stalls the grant implies.
    pub weight_grant_bytes: Option<usize>,
}

// ---------------------------------------------------------------------------
// The work-stealing window scheduler
// ---------------------------------------------------------------------------

/// One tenant's pending window stream, as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantLoad {
    /// Windows pending in this tenant's arrival queue.
    pub windows: usize,
    /// Modeled service time of a **cold** window — the first this tenant
    /// runs on a given stream (its lane unprimed there), milliseconds.
    pub cold_ms: f64,
    /// Modeled service time of a primed window, milliseconds (equal to
    /// `cold_ms` for single-bank batch-1 plans, which never prime).
    pub steady_ms: f64,
    /// Pacing target per window, milliseconds: the tenant's SLO when set,
    /// else its own modeled steady window. Window `k`'s deadline is
    /// `(k + 1) × target_ms`, which is what "furthest from its SLO" is
    /// measured against.
    pub target_ms: f64,
}

/// One window placed by [`schedule_windows`]: which tenant's window ran
/// where, and when, on the modeled clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledWindow {
    /// Tenant index into the [`TenantLoad`] slice.
    pub tenant: usize,
    /// Per-tenant window index (arrival order).
    pub index: usize,
    /// Stream that pulled the window.
    pub stream: usize,
    /// Modeled start, milliseconds.
    pub start_ms: f64,
    /// Modeled completion, milliseconds.
    pub end_ms: f64,
    /// The pacing deadline the window was scheduled against, milliseconds.
    pub deadline_ms: f64,
}

/// The work-stealing window schedule: per-tenant queues feed a shared
/// ready-set, and each time a stream goes idle (the stream with the
/// smallest modeled busy-until time; lowest index on ties) it **pulls**
/// the pending head window whose tenant is furthest from its SLO —
/// minimum slack `deadline − (now + service)` first, earliest deadline on
/// ties, then tenant order. Deterministic in its inputs; no wall-clock
/// races. With one tenant and uniform windows this degenerates to the
/// round-robin placement the single-model sharded runtime always used.
///
/// Both the runtime (to place real windows on real streams) and the
/// full-scale estimators / admission controller (to read p95 off modeled
/// completions) call this one function — the modeled and executed window
/// orders cannot drift apart.
///
/// # Panics
///
/// Panics when `streams == 0` or any load's `target_ms <= 0`.
pub fn schedule_windows(tenants: &[TenantLoad], streams: usize) -> Vec<ScheduledWindow> {
    assert!(streams >= 1, "a schedule needs >= 1 stream");
    for t in tenants {
        assert!(t.target_ms > 0.0, "pacing target must be positive");
    }
    let total: usize = tenants.iter().map(|t| t.windows).sum();
    let mut free = vec![0.0f64; streams];
    let mut next = vec![0usize; tenants.len()];
    let mut primed = vec![vec![false; tenants.len()]; streams];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let stream = (0..streams)
            .min_by(|&a, &b| {
                free[a]
                    .partial_cmp(&free[b])
                    .expect("modeled times are finite")
                    .then(a.cmp(&b))
            })
            .expect("streams >= 1");
        let now = free[stream];
        // (tenant, slack, deadline, duration) of the best pending head.
        let mut best: Option<(usize, f64, f64, f64)> = None;
        for (t, load) in tenants.iter().enumerate() {
            if next[t] >= load.windows {
                continue;
            }
            let dur = if primed[stream][t] {
                load.steady_ms
            } else {
                load.cold_ms
            };
            let deadline = (next[t] + 1) as f64 * load.target_ms;
            let slack = deadline - (now + dur);
            let wins = match best {
                None => true,
                Some((_, bs, bd, _)) => {
                    slack < bs - 1e-12 || ((slack - bs).abs() <= 1e-12 && deadline < bd - 1e-12)
                }
            };
            if wins {
                best = Some((t, slack, deadline, dur));
            }
        }
        let (tenant, _, deadline_ms, dur) = best.expect("a pending window exists");
        out.push(ScheduledWindow {
            tenant,
            index: next[tenant],
            stream,
            start_ms: now,
            end_ms: now + dur,
            deadline_ms,
        });
        free[stream] = now + dur;
        primed[stream][tenant] = true;
        next[tenant] += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// The open-loop scheduler: arrival-anchored deadlines, faults, retry, shed
// ---------------------------------------------------------------------------

/// Bounded retry with exponential backoff — the recovery half of the
/// open-loop serving policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-executions allowed after a faulted attempt before the window is
    /// shed (`0` sheds on the first fault).
    pub max_retries: usize,
    /// Backoff after the `k`-th consecutive fault is
    /// `steady_ms × backoff_scale × 2^(k−1)` — the re-enqueued window
    /// becomes ready again only after that pause.
    pub backoff_scale: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_scale: 0.5,
        }
    }
}

/// One open-loop window as the scheduler sees it: when its last member
/// request arrived (the window cannot start before that) and the deadline
/// inherited from its **first** member's arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopWindow {
    /// Arrival of the window's last member request, milliseconds — the
    /// earliest the window can be dispatched.
    pub ready_ms: f64,
    /// Shedding deadline: first member arrival + SLO, milliseconds.
    /// `f64::INFINITY` when the tenant has no SLO — such windows are never
    /// shed for lateness (they still pace the scheduler by
    /// `ready + steady`).
    pub deadline_ms: f64,
}

/// One tenant's open-loop stream: its windows (arrival order) and modeled
/// window costs.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopLoad {
    /// Windows in arrival order.
    pub windows: Vec<OpenLoopWindow>,
    /// Modeled cold-window service, milliseconds.
    pub cold_ms: f64,
    /// Modeled primed-window service, milliseconds.
    pub steady_ms: f64,
}

/// Why a window was dropped instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Even an optimistic (steady, currently-derated) dispatch could no
    /// longer meet the window's deadline.
    DeadlinePast,
    /// The retry budget was exhausted by consecutive faulted attempts.
    RetriesExhausted,
}

/// The terminal state of one open-loop window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowFate {
    /// The window completed on a non-faulted attempt.
    Served {
        /// Stream that ran the serving attempt.
        stream: usize,
        /// Modeled start of the serving attempt, milliseconds.
        start_ms: f64,
        /// Modeled completion, milliseconds — per-request latency is this
        /// minus each member's arrival.
        end_ms: f64,
        /// Execution attempts consumed (1 = no faults).
        attempts: usize,
    },
    /// The window was dropped.
    Shed {
        /// Modeled time of the shed decision, milliseconds.
        at_ms: f64,
        /// Execution attempts consumed before shedding.
        attempts: usize,
        /// Why.
        reason: ShedReason,
    },
}

impl WindowFate {
    /// Whether the window was served.
    pub fn is_served(&self) -> bool {
        matches!(self, WindowFate::Served { .. })
    }
}

/// One execution attempt placed by [`schedule_open_loop`] — faulted
/// attempts burn real device time and are listed here exactly as the
/// executor will run them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopAttempt {
    /// Tenant index.
    pub tenant: usize,
    /// Per-tenant window index (arrival order).
    pub index: usize,
    /// 1-based attempt number for this window.
    pub attempt: usize,
    /// Stream that ran the attempt.
    pub stream: usize,
    /// Modeled start, milliseconds.
    pub start_ms: f64,
    /// Modeled completion, milliseconds (`start + service × slowdown`).
    pub end_ms: f64,
    /// Whether the attempt faulted (rolled off the seeded
    /// [`FaultPlan`], identically for scheduler and executor).
    pub faulted: bool,
    /// Thermal derating applied to the attempt (`1.0` when unthrottled).
    pub slowdown: f64,
}

/// An open-loop schedule: every execution attempt in dispatch order plus
/// one terminal [`WindowFate`] per window.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopSchedule {
    /// Every attempt, in modeled dispatch order.
    pub attempts: Vec<OpenLoopAttempt>,
    /// Per-tenant, per-window fates (same shape as the input loads).
    pub fates: Vec<Vec<WindowFate>>,
    /// Last modeled completion, milliseconds.
    pub wall_ms: f64,
}

/// A stable identity for one execution attempt, independent of dispatch
/// order: the [`FaultPlan`] rolls fault outcomes off this key, so a
/// multi-threaded executor and the sequential scheduler — which enumerate
/// attempts in different orders — observe identical faults.
fn fault_key(tenant: usize, index: usize, attempt: usize) -> u64 {
    (tenant as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add((attempt as u64).wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// The open-loop work-stealing schedule: arrival-anchored deadlines,
/// injected faults, bounded retry with backoff, and deadline shedding.
///
/// The idle stream (smallest modeled busy-until; lowest index on ties)
/// repeatedly pulls work:
///
/// 1. **Shed** every pending window whose deadline is hopeless — even an
///    optimistic dispatch (primed service under the current derate,
///    started the moment the window is ready) would finish past its
///    deadline. Windows without an SLO are never shed.
/// 2. Among windows that are **ready** (last member arrived, backoff
///    elapsed; per tenant only the earliest such window is eligible, so a
///    tenant's windows serve in arrival order unless an earlier one is
///    parked in backoff), pull the one with least slack
///    `deadline − (now + service)` — earliest deadline on ties, then
///    tenant order. No-SLO windows compete with the pacing deadline
///    `ready + steady` (the closed-loop convention) instead of infinity,
///    so an SLO neighbor cannot starve them.
/// 3. If nothing is ready, idle the stream forward to the next ready
///    time.
///
/// Each dispatched attempt rolls the seeded [`FaultPlan`] (keyed on
/// tenant/window/attempt — dispatch-order independent) and stretches by
/// the plan's thermal derate at its start time. A faulted attempt burns
/// its full service time (the fault is detected at completion), then
/// re-enqueues with exponential backoff, up to
/// [`RetryPolicy::max_retries`]; past that the window is shed. Faulted
/// attempts still prime their (stream, tenant) lane — the executor really
/// runs them.
///
/// Deterministic in its inputs; `fault: None` with all-infinite deadlines
/// reduces to fault-free FIFO work stealing.
///
/// # Panics
///
/// Panics when `streams == 0` or any load's `steady_ms <= 0`.
pub fn schedule_open_loop(
    tenants: &[OpenLoopLoad],
    streams: usize,
    fault: Option<&FaultPlan>,
    policy: &RetryPolicy,
) -> OpenLoopSchedule {
    assert!(streams >= 1, "a schedule needs >= 1 stream");
    for t in tenants {
        assert!(t.steady_ms > 0.0, "window service must be positive");
    }
    let slowdown_at = |ms: f64| fault.map_or(1.0, |f| f.slowdown_at(ms));
    /// One unresolved window: when it may next run and which attempt is
    /// next.
    #[derive(Clone, Copy)]
    struct Pending {
        ready_ms: f64,
        attempt: usize,
    }
    let mut pending: Vec<Vec<Option<Pending>>> = tenants
        .iter()
        .map(|t| {
            t.windows
                .iter()
                .map(|w| {
                    Some(Pending {
                        ready_ms: w.ready_ms,
                        attempt: 1,
                    })
                })
                .collect()
        })
        .collect();
    let mut fates: Vec<Vec<Option<WindowFate>>> = tenants
        .iter()
        .map(|t| vec![None; t.windows.len()])
        .collect();
    let mut unresolved: usize = tenants.iter().map(|t| t.windows.len()).sum();
    let mut free = vec![0.0f64; streams];
    let mut primed = vec![vec![false; tenants.len()]; streams];
    let mut attempts = Vec::new();

    while unresolved > 0 {
        let stream = (0..streams)
            .min_by(|&a, &b| {
                free[a]
                    .partial_cmp(&free[b])
                    .expect("modeled times are finite")
                    .then(a.cmp(&b))
            })
            .expect("streams >= 1");
        let now = free[stream];

        // Shed pass: drop hopeless windows (finite deadlines only). The
        // check is optimistic — primed service at the current derate from
        // the earliest possible start — so only truly unservable windows
        // are shed and shedding stays bounded.
        for (t, load) in tenants.iter().enumerate() {
            for (i, slot) in pending[t].iter_mut().enumerate() {
                let Some(p) = slot else { continue };
                let deadline = load.windows[i].deadline_ms;
                if !deadline.is_finite() {
                    continue;
                }
                let start = now.max(p.ready_ms);
                if start + load.steady_ms * slowdown_at(start) > deadline {
                    fates[t][i] = Some(WindowFate::Shed {
                        at_ms: start,
                        attempts: p.attempt - 1,
                        reason: ShedReason::DeadlinePast,
                    });
                    *slot = None;
                    unresolved -= 1;
                }
            }
        }
        if unresolved == 0 {
            break;
        }

        // Eligible = per tenant, the earliest pending window that is
        // ready at `now`. Pull the least-slack one.
        let mut best: Option<(usize, usize, f64, f64, f64)> = None; // (t, i, slack, deadline, dur)
        for (t, load) in tenants.iter().enumerate() {
            let Some(i) = pending[t]
                .iter()
                .position(|s| s.is_some_and(|p| p.ready_ms <= now))
            else {
                continue;
            };
            let base = if primed[stream][t] {
                load.steady_ms
            } else {
                load.cold_ms
            };
            let dur = base * slowdown_at(now);
            let deadline = if load.windows[i].deadline_ms.is_finite() {
                load.windows[i].deadline_ms
            } else {
                // Pacing stand-in for no-SLO windows: serve promptly, as
                // the closed-loop scheduler paces by the steady window.
                load.windows[i].ready_ms + load.steady_ms
            };
            let slack = deadline - (now + dur);
            let wins = match best {
                None => true,
                Some((_, _, bs, bd, _)) => {
                    slack < bs - 1e-12 || ((slack - bs).abs() <= 1e-12 && deadline < bd - 1e-12)
                }
            };
            if wins {
                best = Some((t, i, slack, deadline, dur));
            }
        }

        let Some((t, i, _, _, dur)) = best else {
            // Nothing ready: idle this stream forward to the next ready
            // time (strictly later than `now`, so the loop advances).
            let next_ready = pending
                .iter()
                .flatten()
                .flatten()
                .map(|p| p.ready_ms)
                .fold(f64::INFINITY, f64::min);
            debug_assert!(next_ready > now, "a ready window would have matched");
            free[stream] = next_ready;
            continue;
        };

        let p = pending[t][i].expect("best came from the pending set");
        let end = now + dur;
        let faulted = fault.is_some_and(|f| f.attempt_faults(fault_key(t, i, p.attempt), now));
        attempts.push(OpenLoopAttempt {
            tenant: t,
            index: i,
            attempt: p.attempt,
            stream,
            start_ms: now,
            end_ms: end,
            faulted,
            slowdown: slowdown_at(now),
        });
        free[stream] = end;
        primed[stream][t] = true;
        if !faulted {
            fates[t][i] = Some(WindowFate::Served {
                stream,
                start_ms: now,
                end_ms: end,
                attempts: p.attempt,
            });
            pending[t][i] = None;
            unresolved -= 1;
        } else if p.attempt > policy.max_retries {
            fates[t][i] = Some(WindowFate::Shed {
                at_ms: end,
                attempts: p.attempt,
                reason: ShedReason::RetriesExhausted,
            });
            pending[t][i] = None;
            unresolved -= 1;
        } else {
            // Exponential backoff: the window re-enters the ready set
            // only after the pause, re-enqueued through the same
            // work-stealing pull as fresh arrivals.
            let backoff =
                tenants[t].steady_ms * policy.backoff_scale * (1 << (p.attempt - 1)) as f64;
            pending[t][i] = Some(Pending {
                ready_ms: end + backoff,
                attempt: p.attempt + 1,
            });
        }
    }

    let wall_ms = attempts
        .iter()
        .map(|a: &OpenLoopAttempt| a.end_ms)
        .fold(0.0, f64::max);
    OpenLoopSchedule {
        attempts,
        fates: fates
            .into_iter()
            .map(|t| {
                t.into_iter()
                    .map(|f| f.expect("every window resolved"))
                    .collect()
            })
            .collect(),
        wall_ms,
    }
}

/// Groups one tenant's request arrivals into consecutive windows of
/// `batch`: each window is ready when its **last** member has arrived and
/// inherits its deadline from its **first** member (`arrival + slo`) —
/// open-loop deadlines anchor to arrival time, not to batch submission.
///
/// Crate-visible so the fleet layer can window a device's *routed slice*
/// of a tenant's arrivals with the identical grouping rule.
pub(crate) fn open_loop_windows(
    arrivals_ms: &[f64],
    batch: usize,
    slo_ms: Option<f64>,
) -> Vec<OpenLoopWindow> {
    let batch = batch.max(1);
    (0..arrivals_ms.len())
        .step_by(batch)
        .map(|start| {
            let end = (start + batch).min(arrivals_ms.len());
            OpenLoopWindow {
                ready_ms: arrivals_ms[end - 1],
                deadline_ms: slo_ms.map_or(f64::INFINITY, |slo| arrivals_ms[start] + slo),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Plan sources and contention-aware admission
// ---------------------------------------------------------------------------

/// Where a tenant's plans come from: a deployed model (the runtime) or a
/// shape-level architecture (the full-scale estimators and the fleet's
/// analytic path).
pub(crate) enum PlanSource<'a> {
    Model(&'a PbitModel),
    Arch(&'a NetworkArch),
}

impl PlanSource<'_> {
    pub(crate) fn plan_at(
        &self,
        gpu: &DeviceProfile,
        batch: usize,
        overrides: RouteOverrides,
    ) -> Result<ExecutionPlan, EngineError> {
        match self {
            PlanSource::Model(m) => ExecutionPlan::for_model_batched_with(m, gpu, batch, overrides)
                .map_err(|e| EngineError::DomainMismatch {
                    layer: e.layer,
                    expected: e.expected,
                }),
            PlanSource::Arch(a) => Ok(ExecutionPlan::for_arch_batched_with(
                a, gpu, batch, overrides,
            )),
        }
    }
}

/// One tenant's ask, as the admission controller sees it. Crate-visible so
/// the fleet layer can run per-device admission over its placed tenant
/// subsets.
pub(crate) struct TenantAsk<'a> {
    pub(crate) source: PlanSource<'a>,
    pub(crate) batch: Option<usize>,
    pub(crate) slo_ms: Option<f64>,
    pub(crate) overrides: RouteOverrides,
}

/// Measures the expected [`QueueLoad`] one window of `plan` puts on the
/// device: walk the plan's exact dispatch sequence on a solo clocked queue
/// and read back the busy-weighted mean CU fraction and the device-busy
/// duty cycle over the window (host gaps — launch and framework overhead —
/// leave the device free).
fn measure_load(plan: &ExecutionPlan, gpu: &DeviceProfile) -> QueueLoad {
    let clock = DeviceClock::new(gpu.clone());
    let mut q = CommandQueue::new(gpu.clone(), ExecutorClass::PhoneBitOpenCl)
        .with_clock(Arc::clone(&clock));
    let _ = walk_plan(&mut q, plan, crate::EstimateOptions::default());
    let wall = q.elapsed_s() + q.per_run_overhead_s();
    QueueLoad {
        cu_frac: clock.mean_cu_frac(),
        busy: if wall > 0.0 {
            (clock.busy_s() / wall).clamp(0.0, 1.0)
        } else {
            0.0
        },
    }
}

/// The blend of every tenant's measured load — what each of the other
/// streams is expected to be running at any moment, since any idle stream
/// pulls any tenant's window. CU fraction is busy-weighted; duty is the
/// plain mean.
fn aggregate_load(loads: &[QueueLoad]) -> QueueLoad {
    let busy_sum: f64 = loads.iter().map(|l| l.busy).sum();
    let cu_frac = if busy_sum > 0.0 {
        loads.iter().map(|l| l.cu_frac * l.busy).sum::<f64>() / busy_sum
    } else {
        0.0
    };
    QueueLoad {
        cu_frac,
        busy: busy_sum / loads.len().max(1) as f64,
    }
}

/// Models one tenant window's (cold, steady) seconds under the given
/// clock configuration: the plan's exact dispatch sequence on a clocked
/// queue — symmetric `streams` mirrors when `mix` is `None`, the
/// registered heterogeneous mix otherwise. Cold windows add the per-run
/// framework overhead; primed batched streams hide it behind the previous
/// window (double buffering), batch-1 single-bank streams never prime.
pub(crate) fn modeled_window_under(
    plan: &ExecutionPlan,
    gpu: &DeviceProfile,
    streams: usize,
    mix: Option<&[QueueLoad]>,
) -> (f64, f64) {
    let clock = DeviceClock::with_streams(gpu.clone(), streams);
    if let Some(m) = mix {
        clock.set_mix(Some(m.to_vec()));
    }
    let mut q = CommandQueue::new(gpu.clone(), ExecutorClass::PhoneBitOpenCl).with_clock(clock);
    let _ = walk_plan(&mut q, plan, crate::EstimateOptions::default());
    let busy = q.elapsed_s();
    let cold = busy + q.per_run_overhead_s();
    let steady = if plan.batch > 1 { busy } else { cold };
    (cold, steady)
}

/// Window sizes the admission controller probes: fine steps where
/// launch-overhead amortization changes fastest, coarser above, ceiling
/// at 64 (beyond that amortization has flattened and windows only add
/// latency). The memory cap is appended as a candidate whenever it binds
/// below the ceiling, so "the largest batch that fits" is always
/// reachable.
const ADMISSION_CANDIDATES: [usize; 12] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];

/// The probe list for a given memory cap (ascending, deduplicated).
fn admission_candidates(max_feasible: usize) -> Vec<usize> {
    let mut candidates: Vec<usize> = ADMISSION_CANDIDATES
        .iter()
        .copied()
        .filter(|&b| b <= max_feasible)
        .collect();
    if max_feasible < ADMISSION_CANDIDATES[ADMISSION_CANDIDATES.len() - 1]
        && candidates.last() != Some(&max_feasible)
    {
        candidates.push(max_feasible);
    }
    candidates
}

/// The mix a co-resident registry registers on the shared clock: each of
/// the `streams − 1` *other* queues is expected to run the blend of every
/// tenant's measured [`QueueLoad`] under its current plan. `None` for a
/// single tenant (the symmetric-streams model).
fn registered_mix<'a>(
    plans: impl ExactSizeIterator<Item = &'a ExecutionPlan>,
    gpu: &DeviceProfile,
    streams: usize,
) -> Option<Vec<QueueLoad>> {
    if plans.len() <= 1 {
        return None;
    }
    let loads: Vec<QueueLoad> = plans.map(|p| measure_load(p, gpu)).collect();
    Some(vec![aggregate_load(&loads); streams.saturating_sub(1)])
}

/// One tenant as admitted: the decision, the effective overrides (asked
/// overrides plus any residency grant), the plan lowered at the admitted
/// batch under them, and that plan's (cold, steady) window seconds under
/// the registered mix. The runtime stages exactly this plan and the
/// estimators schedule exactly these window costs.
pub(crate) struct Admitted {
    pub(crate) admission: Admission,
    pub(crate) overrides: RouteOverrides,
    pub(crate) plan: ExecutionPlan,
    pub(crate) cold_s: f64,
    pub(crate) steady_s: f64,
}

/// Contention-aware admission for a registry of co-resident tenants,
/// followed by the window model at the chosen batches — the one
/// admit-and-model step behind [`DeviceRuntime`], the serving estimators
/// and the fleet's analytic devices.
///
/// Each tenant's memory cap comes from the **pooled** cross-tenant peak
/// (`Σ weights + streams × max_tenant(banks × Σ slots)`) with every
/// neighbor's batch held fixed, and each candidate batch's window is
/// modeled against the *other tenants' registered mix* on the shared clock
/// — `streams − 1` queues each running the blend of every tenant's
/// measured [`QueueLoad`] — rather than against `streams` clones of the
/// tenant itself. A single tenant keeps the symmetric-streams model, so
/// single-model admission decisions are unchanged. Two fixed passes: the
/// second re-measures loads at the first pass's chosen batches.
///
/// An optional pooled **weight budget** bounds the bytes of binary weight
/// banks resident across all tenants at once. `None` keeps every tenant
/// fully resident — the exact unpaged controller, byte for byte.
///
/// With a budget below the tenants' summed weights, residency grants are
/// **tiered**: a tenant is fully resident (its overrides untouched, so its
/// plans stay byte-identical to the unpaged ones), granted exactly its
/// *paged floor* — the smallest hot set that still overlaps every upload
/// with the previous step's compute
/// ([`paged_floor_bytes`](crate::paged_floor_bytes)) — or, when the
/// no-stall floors alone overflow the budget, degraded to its *paged
/// minimum* — the single largest bank
/// ([`paged_min_bytes`](crate::paged_min_bytes)), under which uploads the
/// look-ahead can no longer co-reside serialize against compute (more
/// stalls, same bit-exact outputs). Budgets strictly between the tiers buy
/// nothing: the streaming schedule evicts every bank after use regardless,
/// so stalls only change at the tier boundaries. Everyone starts at the
/// floor; tenants with the most floor-to-minimum headroom are degraded
/// first until the sum fits, then tenants are upgraded back to full
/// residency in ascending weight order while the budget still holds. If
/// even the minima overflow the budget, the set is unservable —
/// [`EngineError::OutOfMemory`].
///
/// Returns one [`Admitted`] per tenant plus the registered mix at the
/// chosen batches — the one the runtime installs on the clock. Plans are
/// lowered under the **effective overrides** (asked overrides plus any
/// [`RouteOverrides::weight_budget`] grant), stalls included, so
/// scheduler, estimator, and executor roll identical stall decisions.
pub(crate) fn admit_and_model(
    asks: &[TenantAsk<'_>],
    phone: &Phone,
    streams: usize,
    weight_budget: Option<usize>,
) -> Result<(Vec<Admitted>, Option<Vec<QueueLoad>>), EngineError> {
    let gpu = &phone.gpu;
    let budget = phone.app_budget_bytes();
    let n = asks.len();

    // Base batch-1 plans under the *asked* overrides. Weight banks — and
    // so paged floors and grants — are batch-invariant, so the grant
    // decision is made once, here, before any batch probing.
    let base: Vec<ExecutionPlan> = asks
        .iter()
        .map(|a| a.source.plan_at(gpu, 1, a.overrides))
        .collect::<Result<_, _>>()?;
    let weights: Vec<usize> = base.iter().map(|p| p.weights_bytes).collect();

    // Binary residency grants: `None` = fully resident, `Some(floor)` =
    // stream through a hot set of `floor` bytes. An ask whose overrides
    // already carry a weight budget is **pinned** — live attach passes
    // survivors this way, and a staged tenant cannot be re-granted — so
    // it keeps its existing residency (streaming below its grant,
    // effectively resident at or above it) and only contributes its
    // pinned footprint to the pool.
    let pinned: Vec<bool> = asks
        .iter()
        .map(|a| a.overrides.weight_budget.is_some())
        .collect();
    let mut grants: Vec<Option<usize>> = asks
        .iter()
        .zip(weights.iter())
        .map(|(a, &w)| a.overrides.weight_budget.filter(|&g| g < w))
        .collect();
    if let Some(w_budget) = weight_budget {
        let resident_total: usize = grants
            .iter()
            .zip(weights.iter())
            .map(|(g, &w)| g.unwrap_or(w))
            .sum();
        if resident_total > w_budget {
            let per_tenant_banks: Vec<Option<Vec<usize>>> = (0..n)
                .map(|i| (!pinned[i]).then(|| crate::paging::step_bank_bytes(&base[i])))
                .collect();
            let floors: Vec<usize> = (0..n)
                .map(|i| match &per_tenant_banks[i] {
                    Some(banks) => crate::paging::paged_floor_bytes(banks),
                    None => grants[i].unwrap_or(weights[i]),
                })
                .collect();
            let minima: Vec<usize> = (0..n)
                .map(|i| match &per_tenant_banks[i] {
                    Some(banks) => crate::paging::paged_min_bytes(banks),
                    None => grants[i].unwrap_or(weights[i]),
                })
                .collect();
            let mut granted = floors.clone();
            let mut sum: usize = granted.iter().sum();
            if sum > w_budget {
                // No-stall floors overflow: degrade to the hard minimum,
                // biggest floor-to-minimum headroom first, until the set
                // fits (or cannot).
                let mut order: Vec<usize> = (0..n).filter(|&i| !pinned[i]).collect();
                order.sort_by_key(|&i| std::cmp::Reverse(floors[i] - minima[i]));
                for i in order {
                    if sum <= w_budget {
                        break;
                    }
                    sum = sum - granted[i] + minima[i];
                    granted[i] = minima[i];
                }
                if sum > w_budget {
                    return Err(EngineError::OutOfMemory(SimError::OutOfMemory {
                        requested: sum,
                        in_use: 0,
                        budget: w_budget,
                    }));
                }
            }
            for i in 0..n {
                if !pinned[i] {
                    grants[i] = Some(granted[i]);
                }
            }
            // Upgrade the cheapest tenants back to full residency while
            // the budget still holds: fewer streamed tenants, fewer
            // modeled stalls.
            let mut order: Vec<usize> = (0..n).filter(|&i| !pinned[i]).collect();
            order.sort_by_key(|&i| weights[i]);
            for i in order {
                let upgraded = sum - granted[i] + weights[i];
                if upgraded <= w_budget {
                    sum = upgraded;
                    grants[i] = None;
                }
            }
        }
    }
    // Effective overrides: untouched for fully-resident tenants (their
    // plans stay byte-identical), the granted floor for streamed ones.
    let eff: Vec<RouteOverrides> = asks
        .iter()
        .zip(grants.iter())
        .map(|(a, g)| {
            let mut ov = a.overrides;
            if let Some(floor) = *g {
                ov.weight_budget = Some(floor);
            }
            ov
        })
        .collect();

    // Pooled peak under the grants: a streamed tenant charges only its
    // hot-set grant, not its summed weights — that is the whole point.
    let weights_total: usize = grants
        .iter()
        .zip(weights.iter())
        .map(|(g, &w)| g.unwrap_or(w))
        .sum();
    let pooled_peak =
        |slices: &[usize]| weights_total + streams * slices.iter().copied().max().unwrap_or(0);
    let base_slices: Vec<usize> = base.iter().map(|p| p.staged_arena_bytes()).collect();
    if pooled_peak(&base_slices) > budget {
        return Err(EngineError::OutOfMemory(SimError::OutOfMemory {
            requested: pooled_peak(&base_slices),
            in_use: 0,
            budget,
        }));
    }

    let mut batches: Vec<usize> = asks.iter().map(|a| a.batch.unwrap_or(1).max(1)).collect();
    // Clamp each requested batch to what fits next to every neighbor's
    // batch-1 floor before any pass: one oversized ask must not zero out
    // the other tenants' memory caps below. Since the batch-1 floor fits,
    // every clamp (and every cap in the loop) stays >= 1.
    for (i, ask) in asks.iter().enumerate() {
        if batches[i] > 1 {
            let cap = crate::planner::largest_batch_where(|b| {
                ask.source
                    .plan_at(gpu, b, eff[i])
                    .map(|p| {
                        let mut probe = base_slices.clone();
                        probe[i] = p.staged_arena_bytes();
                        pooled_peak(&probe) <= budget
                    })
                    .unwrap_or(false)
            });
            batches[i] = batches[i].min(cap.max(1));
        }
    }
    let lower_at = |batches: &[usize]| -> Result<Vec<ExecutionPlan>, EngineError> {
        asks.iter()
            .zip(batches.iter().zip(eff.iter()))
            .map(|(a, (&b, &ov))| a.source.plan_at(gpu, b, ov))
            .collect()
    };
    let mut admissions: Vec<Admission> = Vec::new();
    for _pass in 0..2 {
        // Measure every tenant's mix at the current batches, then blend.
        let plans = lower_at(&batches)?;
        let mix = registered_mix(plans.iter(), gpu, streams);
        let slices: Vec<usize> = plans
            .iter()
            .map(ExecutionPlan::staged_arena_bytes)
            .collect();

        admissions.clear();
        for (i, ask) in asks.iter().enumerate() {
            // Memory cap: grow tenant i's slice with every neighbor fixed.
            let max_feasible = crate::planner::largest_batch_where(|b| {
                ask.source
                    .plan_at(gpu, b, eff[i])
                    .map(|p| {
                        let mut probe = slices.clone();
                        probe[i] = p.staged_arena_bytes();
                        pooled_peak(&probe) <= budget
                    })
                    .unwrap_or(false)
            });
            if max_feasible == 0 {
                // Defensive: the pre-clamp above keeps this unreachable,
                // but an infeasible combination must surface as OOM, not
                // as a clamp/probe panic.
                return Err(EngineError::OutOfMemory(SimError::OutOfMemory {
                    requested: pooled_peak(&slices),
                    in_use: 0,
                    budget,
                }));
            }
            let window_ms = |b: usize| -> Result<f64, EngineError> {
                let plan = ask.source.plan_at(gpu, b, eff[i])?;
                let (_, steady) = modeled_window_under(&plan, gpu, streams, mix.as_deref());
                Ok(steady * 1e3)
            };
            let (batch, modeled) = match (ask.batch, ask.slo_ms) {
                // An explicit batch is honored up to the memory cap.
                (Some(b), _) => {
                    let b = b.clamp(1, max_feasible);
                    (b, window_ms(b)?)
                }
                // SLO given: the largest probed batch still under target.
                (None, Some(slo)) => {
                    let mut best = (1, window_ms(1)?);
                    for b in admission_candidates(max_feasible) {
                        let ms = window_ms(b)?;
                        if ms <= slo && b >= best.0 {
                            best = (b, ms);
                        }
                    }
                    best
                }
                // No SLO: the probed batch with the best modeled throughput.
                (None, None) => {
                    let mut best = (1, window_ms(1)?);
                    for b in admission_candidates(max_feasible) {
                        let ms = window_ms(b)?;
                        if b as f64 / ms > best.0 as f64 / best.1 {
                            best = (b, ms);
                        }
                    }
                    best
                }
            };
            batches[i] = batch;
            admissions.push(Admission {
                batch,
                max_feasible_batch: max_feasible,
                modeled_window_ms: modeled,
                slo_ms: ask.slo_ms,
                slo_met: ask.slo_ms.is_none_or(|slo| modeled <= slo),
                weight_grant_bytes: grants[i],
            });
        }
        if n == 1 {
            break; // the symmetric model has nothing to re-measure
        }
    }
    // The mix the runtime registers and the estimators model under: the
    // blend at the *chosen* batches, whose plans every caller then uses.
    let plans = lower_at(&batches)?;
    let mix = registered_mix(plans.iter(), gpu, streams);
    let admitted = admissions
        .into_iter()
        .zip(eff)
        .zip(plans)
        .map(|((admission, overrides), plan)| {
            let (cold_s, steady_s) = modeled_window_under(&plan, gpu, streams, mix.as_deref());
            Admitted {
                admission,
                overrides,
                plan,
                cold_s,
                steady_s,
            }
        })
        .collect();
    Ok((admitted, mix))
}

// ---------------------------------------------------------------------------
// The multi-tenant device runtime
// ---------------------------------------------------------------------------

/// One tenant's registration ask: the model, an optional fixed window
/// size, and an optional p95 SLO.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (defaults to the model name via [`TenantSpec::new`]).
    pub name: String,
    /// The deployed model.
    pub model: PbitModel,
    /// Requested window size (`None` lets admission pick).
    pub batch: Option<usize>,
    /// p95 latency target, milliseconds.
    pub slo_ms: Option<f64>,
    /// Route overrides applied when lowering and staging this tenant's
    /// plan (fusion, forced routes).
    pub overrides: RouteOverrides,
}

impl TenantSpec {
    /// A spec named after its model, with admission-chosen batch and no
    /// SLO.
    pub fn new(model: PbitModel) -> Self {
        Self {
            name: model.name.clone(),
            model,
            batch: None,
            slo_ms: None,
            overrides: RouteOverrides::default(),
        }
    }

    /// Sets the route overrides (e.g. turn the fusion pass on).
    pub fn with_overrides(mut self, overrides: RouteOverrides) -> Self {
        self.overrides = overrides;
        self
    }

    /// Sets the requested window size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Sets the p95 SLO in milliseconds.
    pub fn with_slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ms = Some(slo_ms);
        self
    }
}

/// A registered tenant: its staged model, its admission decision, and the
/// modeled window costs the scheduler paces it by.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    staged: Arc<StagedModel>,
    admission: Admission,
    slo_ms: Option<f64>,
    overrides: RouteOverrides,
    cold_ms: f64,
    steady_ms: f64,
}

impl Tenant {
    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's staged (shared, immutable) model state.
    pub fn staged(&self) -> &Arc<StagedModel> {
        &self.staged
    }

    /// The admission controller's decision for this tenant.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The tenant's p95 SLO, if any.
    pub fn slo_ms(&self) -> Option<f64> {
        self.slo_ms
    }

    /// Modeled (cold, steady) window milliseconds under the runtime's
    /// clock configuration.
    pub fn modeled_window_ms(&self) -> (f64, f64) {
        (self.cold_ms, self.steady_ms)
    }

    fn load(&self, windows: usize) -> TenantLoad {
        TenantLoad {
            windows,
            cold_ms: self.cold_ms,
            steady_ms: self.steady_ms,
            target_ms: self.slo_ms.unwrap_or(self.steady_ms).max(f64::MIN_POSITIVE),
        }
    }
}

/// One tenant's request traffic for a [`DeviceRuntime::serve`] call
/// (borrowed; kinds may differ per tenant — that is the point of
/// heterogeneous co-residency).
#[derive(Debug, Clone, Copy)]
pub enum TenantTraffic<'a> {
    /// 8-bit image requests.
    U8(&'a [Tensor<u8>]),
    /// Float-input requests.
    F32(&'a [Tensor<f32>]),
}

impl TenantTraffic<'_> {
    /// Requests in this tenant's queue.
    pub fn len(&self) -> usize {
        match self {
            TenantTraffic::U8(r) => r.len(),
            TenantTraffic::F32(r) => r.len(),
        }
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One tenant's slice of a [`MultiServeReport`].
#[derive(Debug)]
pub struct TenantServeReport {
    /// Tenant name.
    pub name: String,
    /// Requests served.
    pub served: usize,
    /// Windows dispatched.
    pub windows: usize,
    /// The tenant's staged window size.
    pub batch: usize,
    /// Per-request outputs, reassembled in arrival order.
    pub outputs: Vec<ActivationData>,
    /// Per-window **latency** in window order, milliseconds: completion on
    /// the executed schedule minus the window's paced arrival
    /// (`index × target`), floored at the service time — queueing delay
    /// under contention shows up here, which is what the starvation test
    /// pins.
    pub window_ms: Vec<f64>,
    /// Per-window executed **service** time in window order, milliseconds
    /// (what the single-tenant wrapper reports, matching PR 4 semantics).
    pub duration_ms: Vec<f64>,
    /// Median window latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile window latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile window latency, milliseconds.
    pub p99_ms: f64,
    /// The tenant's SLO, if any.
    pub slo_ms: Option<f64>,
    /// Whether the observed p95 latency met the SLO.
    pub slo_met: bool,
}

/// One multi-tenant serving pass across every registered tenant.
#[derive(Debug)]
pub struct MultiServeReport {
    /// Per-tenant results, in registry order.
    pub tenants: Vec<TenantServeReport>,
    /// Streams that carried traffic.
    pub streams: usize,
    /// Requests served across every tenant.
    pub served: usize,
    /// Windows dispatched across every tenant.
    pub windows: usize,
    /// Executed makespan: the busiest stream's total time, seconds.
    pub wall_s: f64,
    /// Aggregate throughput across every tenant over the makespan.
    pub imgs_per_s: f64,
    /// The work-stealing schedule the pass executed (modeled times).
    pub schedule: Vec<ScheduledWindow>,
}

/// Knobs for one [`DeviceRuntime::serve_open_loop`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopOptions {
    /// Retry/backoff policy for faulted attempts.
    pub policy: RetryPolicy,
    /// Request shed rate above which admission re-plans the offending
    /// tenant's batch (halving it) before executing — graceful
    /// degradation past the knee.
    pub shed_replan_threshold: f64,
    /// Re-plan rounds allowed per pass.
    pub max_replans: usize,
}

impl Default for OpenLoopOptions {
    fn default() -> Self {
        Self {
            policy: RetryPolicy::default(),
            shed_replan_threshold: 0.25,
            max_replans: 2,
        }
    }
}

/// One tenant's slice of an [`OpenLoopReport`].
#[derive(Debug)]
pub struct TenantOpenLoopReport {
    /// Tenant name.
    pub name: String,
    /// Requests that arrived (offered load).
    pub offered: usize,
    /// Requests served (member of a served window).
    pub served: usize,
    /// Requests shed (member of a shed window).
    pub shed: usize,
    /// Windows formed from the arrivals.
    pub windows: usize,
    /// Windows shed (deadline or retry exhaustion).
    pub windows_shed: usize,
    /// Faulted execution attempts (each either retried or shed).
    pub retries: usize,
    /// Attempts that ran under thermal derating.
    pub throttled: usize,
    /// The tenant's window size for this pass (after any replan).
    pub batch: usize,
    /// Per-request outputs in arrival order; `None` for shed requests.
    /// Served outputs are bit-exact with a fault-free run.
    pub outputs: Vec<Option<ActivationData>>,
    /// Per-served-request latency (completion − **its own arrival**),
    /// milliseconds, in arrival order over served requests.
    pub latency_ms: Vec<f64>,
    /// Median served-request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile served-request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile served-request latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile served-request latency, milliseconds.
    pub p999_ms: f64,
    /// The tenant's SLO, if any.
    pub slo_ms: Option<f64>,
    /// Whether the served p95 met the SLO.
    pub slo_met: bool,
    /// `shed / offered` (0 when nothing arrived).
    pub shed_rate: f64,
}

/// One open-loop serving pass: every admitted tenant either meets its SLO
/// or degrades by bounded shedding; surviving outputs are bit-exact with
/// a fault-free run.
#[derive(Debug)]
pub struct OpenLoopReport {
    /// Per-tenant results, in registry order.
    pub tenants: Vec<TenantOpenLoopReport>,
    /// Streams that carried traffic.
    pub streams: usize,
    /// Last modeled completion, milliseconds.
    pub wall_ms: f64,
    /// Served requests over the pass (`served / max(wall, last arrival)`),
    /// images per second.
    pub goodput_imgs_per_s: f64,
    /// Shed-triggered admission re-plans taken before executing.
    pub replans: usize,
    /// The executed schedule (attempts + per-window fates).
    pub schedule: OpenLoopSchedule,
    /// Executed duration of each schedule attempt (service × derate),
    /// milliseconds, in schedule order — equal to the modeled
    /// `end_ms − start_ms` (the no-drift invariant under faults).
    pub attempt_exec_ms: Vec<f64>,
}

/// The multi-tenant device runtime: a registry of co-resident
/// [`StagedModel`]s on one device, `N` pooled [`MultiStream`]s, one shared
/// [`DeviceClock`] carrying the tenants' registered mix, and a
/// contention-aware admission decision per tenant.
///
/// ```
/// use phonebit_core::serve::{DeviceRuntime, TenantSpec, TenantTraffic};
/// use phonebit_core::{convert, NetworkBuilder};
/// use phonebit_gpusim::Phone;
/// use phonebit_nn::fuse::BnParams;
/// use phonebit_tensor::shape::{FilterShape, Shape4};
/// use phonebit_tensor::{Filters, Tensor};
///
/// let mk = |name: &str, k: usize| {
///     let filters = Filters::from_fn(FilterShape::new(k, 3, 3, 3), |f, i, j, c| {
///         if (f + i + j + c) % 2 == 0 { 1.0 } else { -1.0 }
///     });
///     NetworkBuilder::new(name, Shape4::new(1, 8, 8, 3))
///         .bconv_input8("conv1", filters, vec![0.0; k], BnParams::identity(k), 1, 1)
///         .softmax()
///         .build()
/// };
/// let mut runtime = DeviceRuntime::new(
///     vec![
///         TenantSpec::new(mk("detector", 8)).with_batch(2),
///         TenantSpec::new(mk("classifier", 16)).with_batch(2),
///     ],
///     &Phone::xiaomi_9(),
///     2,
/// )?;
/// let reqs: Vec<_> = (0..4)
///     .map(|i| Tensor::from_fn(Shape4::new(1, 8, 8, 3), move |_, h, w, c| {
///         ((h * 7 + w * 3 + c * 11 + i) % 256) as u8
///     }))
///     .collect();
/// let report = runtime.serve(&[TenantTraffic::U8(&reqs), TenantTraffic::U8(&reqs)])?;
/// assert_eq!(report.tenants[0].outputs.len(), 4);
/// assert_eq!(report.tenants[1].outputs.len(), 4);
/// assert!(report.imgs_per_s > 0.0);
/// # Ok::<(), phonebit_core::EngineError>(())
/// ```
#[derive(Debug)]
pub struct DeviceRuntime {
    tenants: Vec<Tenant>,
    streams: Vec<MultiStream>,
    clock: Arc<DeviceClock>,
    ctx: Context,
    /// The phone staged on — kept so live [`DeviceRuntime::attach`] can
    /// re-run admission against the same budget and device.
    phone: Phone,
    /// The pooled weight budget admission granted under, if any — kept so
    /// live [`DeviceRuntime::attach`] re-runs *paged* admission with the
    /// same ceiling.
    weight_budget: Option<usize>,
}

impl DeviceRuntime {
    /// Registers `specs` as co-resident tenants on `phone` with `streams`
    /// pooled streams: runs contention-aware admission per tenant, stages
    /// every model into one budgeted context, registers the tenants' mix
    /// on the shared clock, and draws one pooled arena slice per stream.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OutOfMemory`] when the pooled co-resident
    /// peak exceeds the phone's app budget even at batch 1, or
    /// [`EngineError::DomainMismatch`] for a malformed model.
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty or `streams == 0`.
    pub fn new(specs: Vec<TenantSpec>, phone: &Phone, streams: usize) -> Result<Self, EngineError> {
        Self::new_with_budget(specs, phone, streams, None)
    }

    /// [`DeviceRuntime::new`] under a pooled **weight budget**: the bytes
    /// of binary weight banks allowed resident at once across all
    /// tenants. Admission grants each tenant full residency, its no-stall
    /// paged floor ([`paged_floor_bytes`](crate::paged_floor_bytes)), or
    /// its hard minimum ([`paged_min_bytes`](crate::paged_min_bytes))
    /// when the floors alone overflow the budget; streamed tenants are
    /// staged against their hot-set grant and page banks through it at
    /// run time, so a tenant set whose summed weights overflow the budget
    /// can still be admitted. `None` is exactly [`DeviceRuntime::new`].
    ///
    /// # Errors
    ///
    /// As [`DeviceRuntime::new`], plus [`EngineError::OutOfMemory`] when
    /// even the tenants' paged floors overflow the weight budget.
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty or `streams == 0`.
    pub fn new_with_budget(
        specs: Vec<TenantSpec>,
        phone: &Phone,
        streams: usize,
        weight_budget: Option<usize>,
    ) -> Result<Self, EngineError> {
        assert!(!specs.is_empty(), "a device runtime needs >= 1 tenant");
        assert!(streams >= 1, "a device runtime needs >= 1 stream");
        let asks: Vec<TenantAsk<'_>> = specs
            .iter()
            .map(|s| TenantAsk {
                source: PlanSource::Model(&s.model),
                batch: s.batch,
                slo_ms: s.slo_ms,
                overrides: s.overrides,
            })
            .collect();
        // Admission also hands back the registered mix at the chosen
        // batches (None for a single tenant: symmetric) and every tenant's
        // admitted plan, which is staged as-is.
        let (admitted, mix) = admit_and_model(&asks, phone, streams, weight_budget)?;

        let ctx = Context::new(phone.gpu.clone(), phone.app_budget_bytes());
        let clock = DeviceClock::with_streams(phone.gpu.clone(), streams);
        clock.set_mix(mix);

        let mut tenants = Vec::with_capacity(specs.len());
        for (spec, a) in specs.into_iter().zip(admitted) {
            tenants.push(Tenant {
                name: spec.name,
                staged: StagedModel::stage_plan(spec.model, a.plan, ctx.clone())?,
                admission: a.admission,
                slo_ms: spec.slo_ms,
                overrides: a.overrides,
                cold_ms: a.cold_s * 1e3,
                steady_ms: a.steady_s * 1e3,
            });
        }

        let staged_refs: Vec<Arc<StagedModel>> =
            tenants.iter().map(|t| Arc::clone(&t.staged)).collect();
        let streams = (0..streams)
            .map(|_| MultiStream::new(&staged_refs, &ctx, Arc::clone(&clock)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            tenants,
            streams,
            clock,
            ctx,
            phone: phone.clone(),
            weight_budget,
        })
    }

    /// The tenant registry, in registration order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Pooled streams serving the registry.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// The shared device clock (symmetric for one tenant, carrying the
    /// registered mix for several).
    pub fn clock(&self) -> &Arc<DeviceClock> {
        &self.clock
    }

    /// Device bytes resident **right now**: every tenant's staged weight
    /// footprint — a streamed tenant's hot-set pool, not its summed banks
    /// — plus every stream's pooled arena slice
    /// (`Σ peak_weight + streams × max_tenant(banks × Σ slots)`). This is
    /// the *peak* the device must hold, the number budgets are checked
    /// against; the unpaged total lives in
    /// [`total_weight_bytes`](DeviceRuntime::total_weight_bytes). The two
    /// coincide when no tenant streams.
    pub fn resident_bytes(&self) -> usize {
        self.ctx.used_bytes()
    }

    /// Alias of [`resident_bytes`](DeviceRuntime::resident_bytes) under
    /// its precise name: the pooled peak actually held on the device.
    pub fn peak_resident_bytes(&self) -> usize {
        self.ctx.used_bytes()
    }

    /// Summed binary weight-bank bytes across every tenant as if all were
    /// fully resident — the paged-out total, which can exceed
    /// [`peak_resident_bytes`](DeviceRuntime::peak_resident_bytes) when
    /// tenants stream under a weight budget.
    pub fn total_weight_bytes(&self) -> usize {
        self.tenants
            .iter()
            .map(|t| t.staged.total_weight_bytes())
            .sum()
    }

    /// The pooled weight budget admission granted under, if any.
    pub fn weight_budget(&self) -> Option<usize> {
        self.weight_budget
    }

    /// One stream's pooled arena slice, bytes.
    pub fn pool_slice_bytes(&self) -> usize {
        self.streams
            .first()
            .map_or(0, MultiStream::pool_slice_bytes)
    }

    /// Serves every tenant's request queue in one pass: requests are
    /// windowed per tenant at the admitted batch, the work-stealing
    /// scheduler places windows on streams ([`schedule_windows`] — least
    /// slack to SLO first), streams execute their assignments concurrently
    /// on scoped threads, and outputs are reassembled per tenant in
    /// arrival order.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] when `traffic` does not line
    /// up with the registry (one entry per tenant) or a tenant's requests
    /// disagree with its model's input kind or shape.
    pub fn serve(
        &mut self,
        traffic: &[TenantTraffic<'_>],
    ) -> Result<MultiServeReport, EngineError> {
        if traffic.len() != self.tenants.len() {
            return Err(EngineError::InputMismatch {
                expected: format!("{} tenant queues", self.tenants.len()),
                got: format!("{} queues", traffic.len()),
            });
        }
        // Every pass starts with cold lanes, matching the scheduler's
        // cold-first-window-per-(stream, tenant) model — a reused runtime
        // must not execute primed windows against a cold schedule.
        for stream in &mut self.streams {
            stream.reset_lanes();
        }
        // Windows per tenant, in arrival order.
        let windows: Vec<Vec<(usize, usize)>> = self
            .tenants
            .iter()
            .zip(traffic.iter())
            .map(|(t, q)| {
                let batch = t.staged.plan().batch.max(1);
                (0..q.len())
                    .step_by(batch)
                    .map(|start| (start, batch.min(q.len() - start)))
                    .collect()
            })
            .collect();
        let loads: Vec<TenantLoad> = self
            .tenants
            .iter()
            .zip(windows.iter())
            .map(|(t, w)| t.load(w.len()))
            .collect();
        let schedule = schedule_windows(&loads, self.streams.len());

        // Per-stream assignment lists, in modeled start order.
        let mut assignments: Vec<Vec<ScheduledWindow>> = vec![Vec::new(); self.streams.len()];
        for sw in &schedule {
            assignments[sw.stream].push(*sw);
        }

        let results: Vec<Result<Vec<(ScheduledWindow, RunReport)>, EngineError>> =
            thread::scope(|scope| {
                let handles: Vec<_> = self
                    .streams
                    .iter_mut()
                    .zip(assignments.iter())
                    .map(|(stream, mine)| {
                        let windows = &windows;
                        scope.spawn(move || {
                            let mut done = Vec::with_capacity(mine.len());
                            for sw in mine {
                                let (start, len) = windows[sw.tenant][sw.index];
                                let report = match traffic[sw.tenant] {
                                    TenantTraffic::U8(reqs) => stream
                                        .run_window_u8(sw.tenant, &reqs[start..start + len])?,
                                    TenantTraffic::F32(reqs) => stream
                                        .run_window_f32(sw.tenant, &reqs[start..start + len])?,
                                };
                                done.push((*sw, report));
                            }
                            Ok(done)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("stream thread panicked"))
                    .collect()
            });

        // Replay the executed schedule per stream to place completions.
        let mut per_tenant_out: Vec<Vec<Option<ActivationData>>> = traffic
            .iter()
            .map(|q| (0..q.len()).map(|_| None).collect())
            .collect();
        let mut latency_ms: Vec<Vec<f64>> = windows.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut duration_ms: Vec<Vec<f64>> = windows.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut wall_s = 0.0f64;
        let mut active_streams = 0usize;
        for result in results {
            let done = result?;
            if done.is_empty() {
                continue;
            }
            active_streams += 1;
            let mut stream_s = 0.0f64;
            for (sw, report) in done {
                let (start, len) = windows[sw.tenant][sw.index];
                let out = report.output.as_ref().expect("serving captures outputs");
                for i in 0..len {
                    per_tenant_out[sw.tenant][start + i] = Some(out.image(i));
                }
                let exec_ms = report.total_s * 1e3;
                let arrival_ms = sw.index as f64 * loads[sw.tenant].target_ms;
                let completion_ms = stream_s * 1e3 + exec_ms;
                duration_ms[sw.tenant][sw.index] = exec_ms;
                latency_ms[sw.tenant][sw.index] = (completion_ms - arrival_ms).max(exec_ms);
                stream_s += report.total_s;
            }
            wall_s = wall_s.max(stream_s);
        }

        let mut tenants = Vec::with_capacity(self.tenants.len());
        let mut served_total = 0usize;
        let mut windows_total = 0usize;
        for (t, tenant) in self.tenants.iter().enumerate() {
            let outputs: Vec<ActivationData> = per_tenant_out[t]
                .drain(..)
                .map(|o| o.expect("every request windowed"))
                .collect();
            let (p50_ms, p95_ms, p99_ms, _) = percentiles(&latency_ms[t]);
            served_total += outputs.len();
            windows_total += windows[t].len();
            tenants.push(TenantServeReport {
                name: tenant.name.clone(),
                served: outputs.len(),
                windows: windows[t].len(),
                batch: tenant.staged.plan().batch,
                outputs,
                window_ms: std::mem::take(&mut latency_ms[t]),
                duration_ms: std::mem::take(&mut duration_ms[t]),
                p50_ms,
                p95_ms,
                p99_ms,
                slo_ms: tenant.slo_ms,
                slo_met: tenant.slo_ms.is_none_or(|slo| p95_ms <= slo),
            });
        }
        Ok(MultiServeReport {
            tenants,
            streams: active_streams,
            served: served_total,
            windows: windows_total,
            wall_s,
            imgs_per_s: if wall_s > 0.0 {
                served_total as f64 / wall_s
            } else {
                0.0
            },
            schedule,
        })
    }

    /// Re-measures every tenant's [`QueueLoad`] at its current batch,
    /// re-registers the blended mix on the shared clock, and refreshes
    /// each tenant's modeled window costs and admission verdict — the
    /// bookkeeping shared by live attach/detach and shed-triggered
    /// replans.
    fn refresh_mix(&mut self) {
        let gpu = &self.phone.gpu;
        let streams = self.streams.len();
        let mix = registered_mix(self.tenants.iter().map(|t| t.staged.plan()), gpu, streams);
        self.clock.set_mix(mix.clone());
        for t in &mut self.tenants {
            let (cold_s, steady_s) =
                modeled_window_under(t.staged.plan(), gpu, streams, mix.as_deref());
            t.cold_ms = cold_s * 1e3;
            t.steady_ms = steady_s * 1e3;
            t.admission.modeled_window_ms = steady_s * 1e3;
            t.admission.slo_met = t.slo_ms.is_none_or(|slo| steady_s * 1e3 <= slo);
        }
    }

    /// Restages tenant `t` at a new window size (a shed-triggered batch
    /// replan): stages the model again into the shared context, swaps the
    /// tenant's lane on every stream — the pooled slice is never regrown
    /// and the surviving tenants are untouched — then refreshes the
    /// registered mix.
    fn restage_tenant(&mut self, t: usize, batch: usize) -> Result<(), EngineError> {
        let staged = StagedModel::stage_with_opts(
            self.tenants[t].staged.model().clone(),
            self.ctx.clone(),
            batch,
            self.tenants[t].overrides,
        )?;
        for stream in &mut self.streams {
            stream.replace_lane(t, &staged)?;
        }
        self.tenants[t].staged = staged;
        self.tenants[t].admission.batch = batch;
        self.refresh_mix();
        Ok(())
    }

    /// Attaches a new tenant to the **live** registry: admission runs with
    /// every survivor's batch pinned, the newcomer is staged into the
    /// shared context, and a lane is added to every stream — survivors are
    /// never restaged, so their staged state, outputs, and admission are
    /// bit-identical before and after. Because the pooled arena slice is
    /// not regrown, the newcomer's batch is clamped to what fits the
    /// existing slice ([`MultiStream::fits_tenant`]).
    ///
    /// Returns the new tenant's registry index.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OutOfMemory`] when the newcomer does not fit
    /// the existing pooled slice even at batch 1, or when its weights
    /// exceed the context's remaining budget;
    /// [`EngineError::DomainMismatch`] for a malformed model.
    pub fn attach(&mut self, spec: TenantSpec) -> Result<usize, EngineError> {
        let streams = self.streams.len();
        let gpu = self.phone.gpu.clone();
        let newcomer = {
            let mut asks: Vec<TenantAsk<'_>> = self
                .tenants
                .iter()
                .map(|t| TenantAsk {
                    source: PlanSource::Model(t.staged.model()),
                    batch: Some(t.staged.plan().batch),
                    slo_ms: t.slo_ms,
                    overrides: t.overrides,
                })
                .collect();
            asks.push(TenantAsk {
                source: PlanSource::Model(&spec.model),
                batch: spec.batch,
                slo_ms: spec.slo_ms,
                overrides: spec.overrides,
            });
            // Survivors' asks carry their *effective* overrides (any paged
            // grant included), so their pinned contribution to the weight
            // budget is their hot-set grant, not their summed banks.
            let (mut admitted, _) =
                admit_and_model(&asks, &self.phone, streams, self.weight_budget)?;
            admitted.pop().expect("newcomer admission")
        };
        let (mut admission, overrides) = (newcomer.admission, newcomer.overrides);
        // Survivors keep their lanes: the newcomer must fit the existing
        // pooled slice, clamping its batch below the memory cap when the
        // slice binds first.
        let slice = self.pool_slice_bytes();
        let arena_at = |b: usize| {
            ExecutionPlan::for_model_batched_with(&spec.model, &gpu, b, overrides)
                .map(|p| p.staged_arena_bytes())
                .ok()
        };
        let slice_cap = crate::planner::largest_batch_where(|b| {
            arena_at(b).is_some_and(|bytes| bytes <= slice)
        });
        if slice_cap == 0 {
            return Err(EngineError::OutOfMemory(SimError::OutOfMemory {
                requested: arena_at(1).unwrap_or(0),
                in_use: 0,
                budget: slice,
            }));
        }
        admission.max_feasible_batch = admission.max_feasible_batch.min(slice_cap);
        admission.batch = admission.batch.min(slice_cap);
        let slo_ms = spec.slo_ms;
        let name = spec.name;
        let staged =
            StagedModel::stage_with_opts(spec.model, self.ctx.clone(), admission.batch, overrides)?;
        for stream in &mut self.streams {
            stream.attach_lane(&staged)?;
        }
        self.tenants.push(Tenant {
            name,
            staged,
            admission,
            slo_ms,
            overrides,
            cold_ms: 0.0, // refreshed just below
            steady_ms: 0.0,
        });
        self.refresh_mix();
        Ok(self.tenants.len() - 1)
    }

    /// Detaches tenant `tenant` from the live registry: its lane is
    /// removed from every stream (later tenants shift down one index), its
    /// staged memory is released back to the shared context, and the
    /// registered mix is re-measured over the survivors — which are never
    /// restaged.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] when detaching the last
    /// remaining tenant (a runtime always serves at least one).
    ///
    /// # Panics
    ///
    /// Panics when `tenant` is out of range.
    pub fn detach(&mut self, tenant: usize) -> Result<(), EngineError> {
        if self.tenants.len() <= 1 {
            return Err(EngineError::InputMismatch {
                expected: "a registry with >= 2 tenants".into(),
                got: "detach of the last tenant".into(),
            });
        }
        for stream in &mut self.streams {
            stream.detach_lane(tenant);
        }
        self.tenants.remove(tenant);
        self.refresh_mix();
        Ok(())
    }

    /// Serves **open-loop** traffic: each tenant's requests carry their
    /// own arrival timestamps, deadlines anchor to arrival (+SLO), and the
    /// pass survives the device clock's injected [`FaultPlan`] (if any) by
    /// bounded retry with backoff, deadline shedding, and shed-triggered
    /// batch replans — see [`schedule_open_loop`] for the policy.
    ///
    /// `arrivals_ms[t]` must be sorted ascending with one timestamp per
    /// request in `traffic[t]`. Windows group consecutive arrivals at the
    /// tenant's admitted batch; a window is dispatchable once its last
    /// member has arrived and inherits its deadline from its first.
    ///
    /// Served outputs are **bit-exact** with a fault-free (closed-loop or
    /// open-loop) run of the same requests; shed requests come back as
    /// `None`. The executed per-attempt durations equal the modeled
    /// schedule's ([`OpenLoopReport::attempt_exec_ms`]) — faults and
    /// throttling do not break the no-drift invariant.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] when `traffic`/`arrivals_ms`
    /// do not line up with the registry, a tenant's arrivals are unsorted
    /// or miscounted, or a request disagrees with its model's input.
    pub fn serve_open_loop(
        &mut self,
        traffic: &[TenantTraffic<'_>],
        arrivals_ms: &[Vec<f64>],
        opts: &OpenLoopOptions,
    ) -> Result<OpenLoopReport, EngineError> {
        if traffic.len() != self.tenants.len() || arrivals_ms.len() != self.tenants.len() {
            return Err(EngineError::InputMismatch {
                expected: format!("{} tenant queues with arrivals", self.tenants.len()),
                got: format!(
                    "{} queues, {} arrival streams",
                    traffic.len(),
                    arrivals_ms.len()
                ),
            });
        }
        for (t, (q, a)) in traffic.iter().zip(arrivals_ms.iter()).enumerate() {
            if q.len() != a.len() {
                return Err(EngineError::InputMismatch {
                    expected: format!("{} arrival times for tenant {t}", q.len()),
                    got: format!("{} timestamps", a.len()),
                });
            }
            if a.windows(2).any(|w| w[1] < w[0]) {
                return Err(EngineError::InputMismatch {
                    expected: format!("sorted arrivals for tenant {t}"),
                    got: "out-of-order timestamps".into(),
                });
            }
        }
        // Every pass starts with cold lanes, matching the scheduler's
        // cold-first-window-per-(stream, tenant) model.
        for stream in &mut self.streams {
            stream.reset_lanes();
        }
        let fault = self.clock.fault_plan();

        // Plan the pass, re-planning batches while any tenant's modeled
        // shed rate crosses the threshold: halve the worst offender's
        // window and restage only that tenant. Smaller windows fill
        // faster (earlier ready times) and lose fewer requests per shed —
        // graceful degradation past the knee instead of batch-sized
        // losses.
        let mut replans = 0usize;
        let (windows, schedule) = loop {
            let windows: Vec<Vec<(usize, usize)>> = self
                .tenants
                .iter()
                .zip(traffic.iter())
                .map(|(t, q)| {
                    let batch = t.staged.plan().batch.max(1);
                    (0..q.len())
                        .step_by(batch)
                        .map(|start| (start, batch.min(q.len() - start)))
                        .collect()
                })
                .collect();
            let loads: Vec<OpenLoopLoad> = self
                .tenants
                .iter()
                .zip(arrivals_ms.iter())
                .map(|(t, arr)| OpenLoopLoad {
                    windows: open_loop_windows(arr, t.staged.plan().batch, t.slo_ms),
                    cold_ms: t.cold_ms,
                    steady_ms: t.steady_ms,
                })
                .collect();
            let schedule =
                schedule_open_loop(&loads, self.streams.len(), fault.as_ref(), &opts.policy);

            let mut worst: Option<(usize, f64)> = None;
            if replans < opts.max_replans {
                for (t, fates) in schedule.fates.iter().enumerate() {
                    let offered = arrivals_ms[t].len();
                    if offered == 0 || self.tenants[t].staged.plan().batch <= 1 {
                        continue;
                    }
                    let shed: usize = fates
                        .iter()
                        .enumerate()
                        .filter(|(_, f)| !f.is_served())
                        .map(|(i, _)| windows[t][i].1)
                        .sum();
                    let rate = shed as f64 / offered as f64;
                    if rate > opts.shed_replan_threshold && worst.is_none_or(|(_, r)| rate > r) {
                        worst = Some((t, rate));
                    }
                }
            }
            match worst {
                Some((t, _)) => {
                    let new_batch = (self.tenants[t].staged.plan().batch / 2).max(1);
                    match self.restage_tenant(t, new_batch) {
                        Ok(()) => {
                            replans += 1;
                            continue;
                        }
                        // No headroom to restage: keep the current plan
                        // and degrade by shedding instead of failing the
                        // whole pass.
                        Err(EngineError::OutOfMemory(_)) => break (windows, schedule),
                        Err(e) => return Err(e),
                    }
                }
                None => break (windows, schedule),
            }
        };

        // Execute the schedule verbatim: every attempt — faulted ones
        // included, they burn real device time — on its assigned stream,
        // in modeled start order.
        let mut assignments: Vec<Vec<(usize, OpenLoopAttempt)>> =
            vec![Vec::new(); self.streams.len()];
        for (k, at) in schedule.attempts.iter().enumerate() {
            assignments[at.stream].push((k, *at));
        }
        let results: Vec<Result<Vec<(usize, RunReport)>, EngineError>> = thread::scope(|scope| {
            let handles: Vec<_> =
                self.streams
                    .iter_mut()
                    .zip(assignments.iter())
                    .map(|(stream, mine)| {
                        let windows = &windows;
                        scope.spawn(move || {
                            let mut done = Vec::with_capacity(mine.len());
                            for (k, at) in mine {
                                let (start, len) = windows[at.tenant][at.index];
                                let report = match traffic[at.tenant] {
                                    TenantTraffic::U8(reqs) => stream
                                        .run_window_u8(at.tenant, &reqs[start..start + len])?,
                                    TenantTraffic::F32(reqs) => stream
                                        .run_window_f32(at.tenant, &reqs[start..start + len])?,
                                };
                                done.push((*k, report));
                            }
                            Ok(done)
                        })
                    })
                    .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stream thread panicked"))
                .collect()
        });

        let mut attempt_exec_ms = vec![0.0f64; schedule.attempts.len()];
        let mut reports: Vec<Option<RunReport>> =
            (0..schedule.attempts.len()).map(|_| None).collect();
        for result in results {
            for (k, report) in result? {
                // The executor runs the window at the base service time;
                // the thermal derate stretches it by the same factor the
                // scheduler applied at this attempt's start.
                attempt_exec_ms[k] = report.total_s * 1e3 * schedule.attempts[k].slowdown;
                reports[k] = Some(report);
            }
        }
        // The serving (non-faulted) attempt per served window — its
        // executed outputs are the ones committed.
        let mut winner: Vec<Vec<Option<usize>>> =
            windows.iter().map(|w| vec![None; w.len()]).collect();
        for (k, at) in schedule.attempts.iter().enumerate() {
            if !at.faulted {
                winner[at.tenant][at.index] = Some(k);
            }
        }

        let mut tenants_out = Vec::with_capacity(self.tenants.len());
        let mut served_total = 0usize;
        for (t, tenant) in self.tenants.iter().enumerate() {
            let batch = tenant.staged.plan().batch;
            let mut outputs: Vec<Option<ActivationData>> =
                (0..arrivals_ms[t].len()).map(|_| None).collect();
            let tally = OpenLoopTally::fold(
                &schedule,
                t,
                &arrivals_ms[t],
                batch,
                tenant.slo_ms,
                |i, start, len| {
                    let k = winner[t][i].expect("served windows have a serving attempt");
                    let report = reports[k].as_ref().expect("serving attempt executed");
                    let out = report.output.as_ref().expect("serving captures outputs");
                    for j in 0..len {
                        outputs[start + j] = Some(out.image(j));
                    }
                },
            );
            served_total += tally.served;
            tenants_out.push(TenantOpenLoopReport {
                name: tenant.name.clone(),
                offered: tally.offered,
                served: tally.served,
                shed: tally.shed,
                windows: tally.windows,
                windows_shed: tally.windows_shed,
                retries: tally.retries,
                throttled: tally.throttled,
                batch,
                outputs,
                latency_ms: tally.latency_ms,
                p50_ms: tally.p50_ms,
                p95_ms: tally.p95_ms,
                p99_ms: tally.p99_ms,
                p999_ms: tally.p999_ms,
                slo_ms: tenant.slo_ms,
                slo_met: tally.slo_met,
                shed_rate: tally.shed_rate,
            });
        }
        let horizon_ms = schedule.wall_ms.max(
            arrivals_ms
                .iter()
                .filter_map(|a| a.last().copied())
                .fold(0.0, f64::max),
        );
        Ok(OpenLoopReport {
            tenants: tenants_out,
            streams: self.streams.len(),
            wall_ms: schedule.wall_ms,
            goodput_imgs_per_s: if horizon_ms > 0.0 {
                served_total as f64 / (horizon_ms * 1e-3)
            } else {
                0.0
            },
            replans,
            schedule,
            attempt_exec_ms,
        })
    }
}

// ---------------------------------------------------------------------------
// Single-tenant wrapper (the PR 4 surface, unchanged behavior)
// ---------------------------------------------------------------------------

/// One sharded serving pass: outputs in request order plus the latency
/// distribution the SLO is judged against.
#[derive(Debug)]
pub struct ServeReport {
    /// Requests served.
    pub served: usize,
    /// Windows dispatched across all streams.
    pub windows: usize,
    /// Streams that carried traffic.
    pub streams: usize,
    /// The staged window size.
    pub batch: usize,
    /// Per-request outputs, reassembled in arrival order.
    pub outputs: Vec<ActivationData>,
    /// Every window's modeled latency in window order, milliseconds.
    pub window_ms: Vec<f64>,
    /// Median window latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile window latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile window latency, milliseconds.
    pub p99_ms: f64,
    /// Simulated makespan: the busiest stream's total time, seconds.
    pub wall_s: f64,
    /// Aggregate throughput: requests served over the makespan.
    pub imgs_per_s: f64,
    /// The admission SLO, if any.
    pub slo_ms: Option<f64>,
    /// Whether the **observed** p95 met the SLO.
    pub slo_met: bool,
}

/// A sharded serving runtime for a **single** model: the thin one-tenant
/// wrapper over [`DeviceRuntime`], kept so the PR 4 surface (and every
/// test against it) works unmodified. One staged model, `N` streams, one
/// device clock (symmetric — one tenant has no heterogeneous mix), and an
/// admission decision.
///
/// ```
/// use phonebit_core::serve::{ServeOptions, ServeRuntime};
/// use phonebit_core::{convert, NetworkBuilder};
/// use phonebit_gpusim::Phone;
/// use phonebit_nn::{act::Activation, fuse::BnParams};
/// use phonebit_tensor::shape::{FilterShape, Shape4};
/// use phonebit_tensor::{Filters, Tensor};
///
/// let filters = Filters::from_fn(FilterShape::new(8, 3, 3, 3), |k, i, j, c| {
///     if (k + i + j + c) % 2 == 0 { 1.0 } else { -1.0 }
/// });
/// let model = NetworkBuilder::new("tiny", Shape4::new(1, 8, 8, 3))
///     .bconv_input8("conv1", filters, vec![0.0; 8], BnParams::identity(8), 1, 1)
///     .softmax()
///     .build();
/// let mut runtime = ServeRuntime::new(
///     model,
///     &Phone::xiaomi_9(),
///     ServeOptions { streams: 2, batch: Some(2), ..Default::default() },
/// )?;
/// let requests: Vec<_> = (0..6)
///     .map(|i| Tensor::from_fn(Shape4::new(1, 8, 8, 3), move |_, h, w, c| {
///         ((h * 7 + w * 3 + c * 11 + i) % 256) as u8
///     }))
///     .collect();
/// let report = runtime.serve_u8(&requests)?;
/// assert_eq!(report.outputs.len(), 6);
/// assert!(report.imgs_per_s > 0.0);
/// # Ok::<(), phonebit_core::EngineError>(())
/// ```
#[derive(Debug)]
pub struct ServeRuntime {
    inner: DeviceRuntime,
}

impl ServeRuntime {
    /// Stages a model once and spins up `opts.streams` streams over it,
    /// after running admission control (memory cap, then SLO) to fix the
    /// window size.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OutOfMemory`] when weights plus every
    /// stream's arena exceed the phone's app budget even at batch 1, or
    /// [`EngineError::DomainMismatch`] for a malformed model.
    ///
    /// # Panics
    ///
    /// Panics when `opts.streams == 0`.
    pub fn new(model: PbitModel, phone: &Phone, opts: ServeOptions) -> Result<Self, EngineError> {
        assert!(opts.streams >= 1, "a serving runtime needs >= 1 stream");
        let spec = TenantSpec {
            name: model.name.clone(),
            model,
            batch: opts.batch,
            slo_ms: opts.slo_ms,
            overrides: opts.overrides,
        };
        Ok(Self {
            inner: DeviceRuntime::new_with_budget(
                vec![spec],
                phone,
                opts.streams,
                opts.weight_budget,
            )?,
        })
    }

    /// The shared staged state.
    pub fn staged(&self) -> &Arc<StagedModel> {
        self.inner.tenants[0].staged()
    }

    /// The admission controller's decision.
    pub fn admission(&self) -> &Admission {
        self.inner.tenants[0].admission()
    }

    /// The shared device clock arbitrating the streams' queues.
    pub fn clock(&self) -> &Arc<DeviceClock> {
        self.inner.clock()
    }

    /// Streams staged over the shared model.
    pub fn stream_count(&self) -> usize {
        self.inner.stream_count()
    }

    /// Device bytes resident across the shared weights and every stream's
    /// arena banks (`weights + N_streams × banks × Σ slots` — the
    /// single-tenant pool slice is exactly this model's staged arena).
    pub fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }

    /// Peak device bytes actually held — see
    /// [`DeviceRuntime::peak_resident_bytes`].
    pub fn peak_resident_bytes(&self) -> usize {
        self.inner.peak_resident_bytes()
    }

    /// Σ weight bytes of the staged model when fully resident — see
    /// [`DeviceRuntime::total_weight_bytes`].
    pub fn total_weight_bytes(&self) -> usize {
        self.inner.total_weight_bytes()
    }

    /// Serves a slice of 8-bit image requests: windows of the admitted
    /// batch size in arrival order, placed by the shared window scheduler
    /// (round-robin for one tenant's uniform windows), streams running
    /// concurrently on scoped threads, outputs reassembled into request
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] when the model takes float
    /// input or any request's shape disagrees.
    pub fn serve_u8(&mut self, requests: &[Tensor<u8>]) -> Result<ServeReport, EngineError> {
        let report = self.inner.serve(&[TenantTraffic::U8(requests)])?;
        Ok(Self::flatten(report))
    }

    /// [`ServeRuntime::serve_u8`] for float-input models.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] when the model takes `u8`
    /// input or any request's shape disagrees.
    pub fn serve_f32(&mut self, requests: &[Tensor<f32>]) -> Result<ServeReport, EngineError> {
        let report = self.inner.serve(&[TenantTraffic::F32(requests)])?;
        Ok(Self::flatten(report))
    }

    /// Projects the one-tenant [`MultiServeReport`] onto the PR 4 surface:
    /// window latencies are the executed service times (a single tenant
    /// has no cross-tenant queueing to report).
    fn flatten(mut report: MultiServeReport) -> ServeReport {
        let tenant = report.tenants.remove(0);
        let window_ms = tenant.duration_ms;
        let (p50_ms, p95_ms, p99_ms, _) = percentiles(&window_ms);
        let slo_ms = tenant.slo_ms;
        ServeReport {
            served: tenant.served,
            windows: tenant.windows,
            streams: report.streams,
            batch: tenant.batch,
            outputs: tenant.outputs,
            window_ms,
            p50_ms,
            p95_ms,
            p99_ms,
            wall_s: report.wall_s,
            imgs_per_s: report.imgs_per_s,
            slo_ms,
            slo_met: slo_ms.is_none_or(|slo| p95_ms <= slo),
        }
    }
}

/// Nearest-rank (p50, p95, p99, p99.9) over an unsorted latency sample —
/// one sort serves every rank; zeros for an empty sample. The open-loop
/// and fleet reports carry the p99.9 tail because fault retries live
/// there; the closed-loop reports drop it.
pub(crate) fn percentiles(samples_ms: &[f64]) -> (f64, f64, f64, f64) {
    if samples_ms.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let at = |q: f64| {
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    };
    (at(0.50), at(0.95), at(0.99), at(0.999))
}

/// One tenant's outcome folded off an [`OpenLoopSchedule`]: the executing
/// runtime and the estimator both count served, shed, retried and
/// throttled work, and request latencies, through this one fold.
struct OpenLoopTally {
    offered: usize,
    served: usize,
    shed: usize,
    windows: usize,
    windows_shed: usize,
    retries: usize,
    throttled: usize,
    latency_ms: Vec<f64>,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    slo_met: bool,
    shed_rate: f64,
}

impl OpenLoopTally {
    /// Folds tenant `t`'s window fates. Window `i` holds requests
    /// `i·batch ..` of `arrivals_ms` (the [`open_loop_windows`] grouping);
    /// `on_served(i, start, len)` sees every served window.
    fn fold(
        schedule: &OpenLoopSchedule,
        t: usize,
        arrivals_ms: &[f64],
        batch: usize,
        slo_ms: Option<f64>,
        mut on_served: impl FnMut(usize, usize, usize),
    ) -> Self {
        let offered = arrivals_ms.len();
        let batch = batch.max(1);
        let mut latency_ms = Vec::new();
        let mut shed = 0usize;
        let mut windows_shed = 0usize;
        for (i, fate) in schedule.fates[t].iter().enumerate() {
            let start = i * batch;
            let len = batch.min(offered - start);
            match fate {
                WindowFate::Served { end_ms, .. } => {
                    on_served(i, start, len);
                    latency_ms.extend(arrivals_ms[start..start + len].iter().map(|a| end_ms - a));
                }
                WindowFate::Shed { .. } => {
                    shed += len;
                    windows_shed += 1;
                }
            }
        }
        let mine = || schedule.attempts.iter().filter(move |a| a.tenant == t);
        let (p50_ms, p95_ms, p99_ms, p999_ms) = percentiles(&latency_ms);
        OpenLoopTally {
            offered,
            served: offered - shed,
            shed,
            windows: schedule.fates[t].len(),
            windows_shed,
            retries: mine().filter(|a| a.faulted).count(),
            throttled: mine().filter(|a| a.slowdown > 1.0).count(),
            latency_ms,
            p50_ms,
            p95_ms,
            p99_ms,
            p999_ms,
            slo_met: slo_ms.is_none_or(|slo| p95_ms <= slo),
            shed_rate: if offered > 0 {
                shed as f64 / offered as f64
            } else {
                0.0
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Full-scale estimates (no weights, no kernel bodies)
// ---------------------------------------------------------------------------

/// A modeled sharded-serving run at full scale (no weights, no kernel
/// bodies) — what the `serve_report` bench bin records per model × phone ×
/// streams × batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeEstimate {
    /// Streams sharing the device.
    pub streams: usize,
    /// Images per window.
    pub batch: usize,
    /// Cold (first) window latency per stream, milliseconds.
    pub cold_window_ms: f64,
    /// Steady window latency per stream, milliseconds.
    pub steady_window_ms: f64,
    /// Aggregate steady throughput across all streams, images per second.
    pub imgs_per_s: f64,
    /// p50 window latency over the modeled run, milliseconds.
    pub p50_ms: f64,
    /// p95 window latency, milliseconds.
    pub p95_ms: f64,
    /// p99 window latency, milliseconds.
    pub p99_ms: f64,
    /// Sharded activation footprint, bytes (`streams × banks × Σ slots`).
    pub arena_bytes: usize,
    /// Sharded peak footprint, bytes (weights + arena).
    pub peak_bytes: usize,
}

/// Models a sharded serving run of `windows_per_stream` windows per stream
/// (first window on each stream cold, the rest steady) on `phone`, at full
/// scale from the architecture alone — the serving analogue of
/// [`estimate_arch_with`](crate::estimate_arch_with). Window
/// placement and the latency sample come from the same
/// [`schedule_windows`] pass the runtime executes.
///
/// # Panics
///
/// Panics when `streams == 0`, `batch == 0`, or `windows_per_stream == 0`.
pub fn estimate_serve(
    phone: &Phone,
    arch: &NetworkArch,
    batch: usize,
    streams: usize,
    windows_per_stream: usize,
) -> ServeEstimate {
    assert!(streams >= 1 && windows_per_stream >= 1);
    let plan = ExecutionPlan::for_arch_batched(arch, &phone.gpu, batch);
    let (cold_s, steady_s) = modeled_window_under(&plan, &phone.gpu, streams, None);
    let (cold, steady) = (cold_s * 1e3, steady_s * 1e3);

    let load = TenantLoad {
        windows: streams * windows_per_stream,
        cold_ms: cold,
        steady_ms: steady,
        target_ms: steady.max(f64::MIN_POSITIVE),
    };
    let schedule = schedule_windows(&[load], streams);
    let window_ms: Vec<f64> = schedule.iter().map(|sw| sw.end_ms - sw.start_ms).collect();
    let arena_bytes = streams * plan.staged_arena_bytes();
    let (p50_ms, p95_ms, p99_ms, _) = percentiles(&window_ms);
    ServeEstimate {
        streams,
        batch,
        cold_window_ms: cold,
        steady_window_ms: steady,
        imgs_per_s: (streams * batch) as f64 / steady_s,
        p50_ms,
        p95_ms,
        p99_ms,
        arena_bytes,
        peak_bytes: plan.weights_bytes + arena_bytes,
    }
}

/// One tenant's workload for a full-scale multi-tenant estimate.
#[derive(Debug, Clone, Copy)]
pub struct TenantWorkload<'a> {
    /// The tenant's architecture.
    pub arch: &'a NetworkArch,
    /// Requested window size (`None` lets admission pick).
    pub batch: Option<usize>,
    /// Windows in the tenant's arrival queue.
    pub windows: usize,
    /// p95 latency target, milliseconds.
    pub slo_ms: Option<f64>,
}

/// One tenant's slice of a [`MultiTenantEstimate`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantEstimate {
    /// Architecture name.
    pub name: String,
    /// The admission decision (batch, cap, modeled window, SLO verdict).
    pub admission: Admission,
    /// Windows modeled.
    pub windows: usize,
    /// Images served (`windows × batch`).
    pub served: usize,
    /// Modeled cold window under the registered mix, milliseconds.
    pub cold_ms: f64,
    /// Modeled steady window under the registered mix, milliseconds.
    pub steady_ms: f64,
    /// p50 window latency (completion − paced arrival), milliseconds.
    pub p50_ms: f64,
    /// p95 window latency, milliseconds.
    pub p95_ms: f64,
    /// p99 window latency, milliseconds.
    pub p99_ms: f64,
    /// Whether the scheduled p95 met the tenant's SLO (true when unset).
    pub slo_met: bool,
}

/// A full-scale model of co-resident serving: every tenant's windows
/// placed by the work-stealing scheduler on one pooled device, next to
/// the **time-sliced sequential baseline** (each tenant served alone on
/// the same `streams`, makespans summed) that co-residency must beat.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantEstimate {
    /// Per-tenant results, in workload order.
    pub tenants: Vec<TenantEstimate>,
    /// Pooled streams.
    pub streams: usize,
    /// Co-resident makespan, milliseconds.
    pub wall_ms: f64,
    /// Co-resident aggregate throughput, images per second.
    pub imgs_per_s: f64,
    /// Time-sliced sequential makespan (Σ per-tenant solo makespans),
    /// milliseconds.
    pub sequential_wall_ms: f64,
    /// Time-sliced sequential aggregate throughput, images per second.
    pub sequential_imgs_per_s: f64,
    /// Resident packed weights across tenants, bytes.
    pub weights_bytes: usize,
    /// One pooled arena slice (`max_tenant(banks × Σ slots)`), bytes.
    pub pool_slice_bytes: usize,
    /// Pooled co-resident peak (`Σ weights + streams × slice`), bytes.
    pub peak_bytes: usize,
}

/// Models a co-resident multi-tenant serving pass at full scale: runs the
/// contention-aware admission per tenant, registers the tenants' blended
/// mix, walks each plan under it for window costs, places every window
/// with [`schedule_windows`] — the same code path the [`DeviceRuntime`]
/// executes — and reads per-tenant latency percentiles off the modeled
/// completions. The time-sliced baseline reruns each tenant alone (the
/// symmetric PR 4 model on the same stream count) and sums the makespans.
///
/// # Panics
///
/// Panics when `workloads` is empty, `streams == 0`, any workload has
/// zero windows, or the tenant set does not fit the phone's app budget
/// even at batch 1 (estimate callers pick the pairing; an infeasible one
/// is a harness bug, not a servable configuration).
pub fn estimate_serve_multitenant(
    phone: &Phone,
    workloads: &[TenantWorkload<'_>],
    streams: usize,
) -> MultiTenantEstimate {
    estimate_serve_multitenant_budgeted(phone, workloads, streams, None)
}

/// [`estimate_serve_multitenant`] under an optional pooled **weight
/// budget**: admission grants streamed tenants their paged floors
/// (tiered grants — see
/// [`paged_floor_bytes`](crate::paged_floor_bytes) and
/// [`paged_min_bytes`](crate::paged_min_bytes)), every modeled plan
/// carries its paging schedule so window costs fold in the upload
/// stalls, and the reported peak charges streamed tenants at their
/// hot-set grants ([`MultiTenantPlan::paged_peak_bytes`]). `None` is
/// exactly [`estimate_serve_multitenant`].
///
/// # Panics
///
/// As [`estimate_serve_multitenant`], plus when even the tenants' paged
/// minima overflow the weight budget.
///
/// [`MultiTenantPlan::paged_peak_bytes`]: crate::planner::MultiTenantPlan::paged_peak_bytes
pub fn estimate_serve_multitenant_budgeted(
    phone: &Phone,
    workloads: &[TenantWorkload<'_>],
    streams: usize,
    weight_budget: Option<usize>,
) -> MultiTenantEstimate {
    assert!(!workloads.is_empty() && streams >= 1);
    assert!(workloads.iter().all(|w| w.windows >= 1));
    let gpu = &phone.gpu;
    let asks: Vec<TenantAsk<'_>> = workloads
        .iter()
        .map(|w| TenantAsk {
            source: PlanSource::Arch(w.arch),
            batch: w.batch,
            slo_ms: w.slo_ms,
            overrides: RouteOverrides::default(),
        })
        .collect();
    let (admitted, _) = admit_and_model(&asks, phone, streams, weight_budget)
        .expect("tenant set must lower cleanly and fit the phone's budget at batch 1");

    // Co-resident windows under the registered mix.
    let loads: Vec<TenantLoad> = workloads
        .iter()
        .zip(admitted.iter())
        .map(|(w, a)| TenantLoad {
            windows: w.windows,
            cold_ms: a.cold_s * 1e3,
            steady_ms: a.steady_s * 1e3,
            target_ms: w.slo_ms.unwrap_or(a.steady_s * 1e3).max(f64::MIN_POSITIVE),
        })
        .collect();
    let schedule = schedule_windows(&loads, streams);
    let wall_ms = schedule.iter().map(|sw| sw.end_ms).fold(0.0, f64::max);

    let mut tenants = Vec::with_capacity(workloads.len());
    let mut served_total = 0usize;
    for (t, (w, a)) in workloads.iter().zip(admitted.iter()).enumerate() {
        let latencies: Vec<f64> = schedule
            .iter()
            .filter(|sw| sw.tenant == t)
            .map(|sw| {
                let arrival = sw.index as f64 * loads[t].target_ms;
                (sw.end_ms - arrival).max(sw.end_ms - sw.start_ms)
            })
            .collect();
        let (p50_ms, p95_ms, p99_ms, _) = percentiles(&latencies);
        let served = w.windows * a.admission.batch;
        served_total += served;
        tenants.push(TenantEstimate {
            name: w.arch.name.clone(),
            admission: a.admission.clone(),
            windows: w.windows,
            served,
            cold_ms: loads[t].cold_ms,
            steady_ms: loads[t].steady_ms,
            p50_ms,
            p95_ms,
            p99_ms,
            slo_met: w.slo_ms.is_none_or(|slo| p95_ms <= slo),
        });
    }

    // Time-sliced sequential baseline: each tenant alone on the same
    // streams (symmetric contention — the PR 4 model), makespans summed.
    let mut sequential_wall_ms = 0.0f64;
    for (a, load) in admitted.iter().zip(loads.iter()) {
        let (c, s) = modeled_window_under(&a.plan, gpu, streams, None);
        let solo = schedule_windows(
            &[TenantLoad {
                windows: load.windows,
                cold_ms: c * 1e3,
                steady_ms: s * 1e3,
                target_ms: load.target_ms,
            }],
            streams,
        );
        sequential_wall_ms += solo.iter().map(|sw| sw.end_ms).fold(0.0, f64::max);
    }

    let archs: Vec<&NetworkArch> = workloads.iter().map(|w| w.arch).collect();
    let batches: Vec<usize> = admitted.iter().map(|a| a.admission.batch).collect();
    let mem = crate::planner::plan_multitenant(&archs, &batches, gpu, streams);
    // Streamed tenants charge their hot-set grants, not their summed
    // weights — the fits-with-paging peak. With no grants this is
    // exactly `mem.peak_bytes`.
    let grants: Vec<Option<usize>> = admitted
        .iter()
        .map(|a| a.admission.weight_grant_bytes)
        .collect();
    let peak_bytes = mem.paged_peak_bytes(&grants);
    MultiTenantEstimate {
        tenants,
        streams,
        wall_ms,
        imgs_per_s: if wall_ms > 0.0 {
            served_total as f64 / (wall_ms * 1e-3)
        } else {
            0.0
        },
        sequential_wall_ms,
        sequential_imgs_per_s: if sequential_wall_ms > 0.0 {
            served_total as f64 / (sequential_wall_ms * 1e-3)
        } else {
            0.0
        },
        weights_bytes: mem.weights_bytes,
        pool_slice_bytes: mem.pool_slice_bytes,
        peak_bytes,
    }
}

/// One tenant's workload for a full-scale **open-loop** estimate: an
/// architecture plus a seeded arrival process instead of a fixed window
/// count.
#[derive(Debug, Clone)]
pub struct OpenLoopWorkload<'a> {
    /// The tenant's architecture.
    pub arch: &'a NetworkArch,
    /// Requested window size (`None` lets admission pick).
    pub batch: Option<usize>,
    /// p95 latency target, milliseconds (deadline = arrival + SLO).
    pub slo_ms: Option<f64>,
    /// Seeded request arrival process.
    pub arrival: ArrivalProcess,
    /// Arrival-stream seed (same seed ⇒ same arrivals ⇒ same schedule).
    pub seed: u64,
}

/// One tenant's slice of an [`OpenLoopEstimate`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOpenLoopEstimate {
    /// Architecture name.
    pub name: String,
    /// The admission decision (batch, cap, modeled window, SLO verdict).
    pub admission: Admission,
    /// Requests the arrival process offered within the horizon.
    pub offered: usize,
    /// Requests served before their deadline.
    pub served: usize,
    /// Requests shed (deadline past, or retries exhausted).
    pub shed: usize,
    /// Windows the offered requests grouped into.
    pub windows: usize,
    /// Windows shed whole.
    pub windows_shed: usize,
    /// Faulted attempts charged to this tenant (each one retried or shed).
    pub retries: usize,
    /// Attempts dispatched inside a thermal-throttle epoch.
    pub throttled: usize,
    /// Modeled cold window under the registered mix, milliseconds.
    pub cold_ms: f64,
    /// Modeled steady window under the registered mix, milliseconds.
    pub steady_ms: f64,
    /// p50 request latency (completion − arrival), milliseconds.
    pub p50_ms: f64,
    /// p95 request latency, milliseconds.
    pub p95_ms: f64,
    /// p99 request latency, milliseconds.
    pub p99_ms: f64,
    /// p99.9 request latency, milliseconds.
    pub p999_ms: f64,
    /// Whether served p95 met the tenant's SLO (true when unset).
    pub slo_met: bool,
    /// `shed / offered` (0 when nothing was offered).
    pub shed_rate: f64,
}

/// A full-scale model of an open-loop fault-tolerant serving pass — what
/// the `openloop_report` bench bin sweeps over offered load, with and
/// without an injected [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopEstimate {
    /// Per-tenant results, in workload order.
    pub tenants: Vec<TenantOpenLoopEstimate>,
    /// Pooled streams.
    pub streams: usize,
    /// Arrival horizon, milliseconds.
    pub duration_ms: f64,
    /// Modeled makespan (last attempt completion), milliseconds.
    pub wall_ms: f64,
    /// Aggregate offered load, images per second.
    pub offered_per_s: f64,
    /// Served images per second of `max(wall, horizon)` — what survives
    /// shedding.
    pub goodput_imgs_per_s: f64,
    /// Aggregate `shed / offered` across tenants.
    pub shed_rate: f64,
    /// Per-tenant arrival timestamps (the generated streams), for
    /// time-windowed post-processing such as post-fault-burst recovery
    /// checks.
    pub arrivals_ms: Vec<Vec<f64>>,
    /// The modeled schedule: every attempt and every window's fate.
    pub schedule: OpenLoopSchedule,
}

/// Models an open-loop serving pass at full scale (no weights, no kernel
/// bodies): contention-aware admission, seeded arrival generation per
/// tenant, then [`schedule_open_loop`] under the given fault plan — the
/// same scheduler [`DeviceRuntime::serve_open_loop`] executes, so modeled
/// fates and counters match an executed run with the same inputs exactly.
///
/// Unlike the runtime this does not re-plan batches on shed pressure; it
/// reports the knee as-is so load sweeps show the raw degradation curve.
///
/// # Panics
///
/// Panics when `workloads` is empty, `streams == 0`, or `duration_ms` is
/// not positive; or when the tenant set does not fit the phone's budget
/// even at batch 1 (estimate callers pick the pairing).
pub fn estimate_serve_open_loop(
    phone: &Phone,
    workloads: &[OpenLoopWorkload<'_>],
    streams: usize,
    duration_ms: f64,
    fault: Option<&FaultPlan>,
    policy: &RetryPolicy,
) -> OpenLoopEstimate {
    assert!(!workloads.is_empty() && streams >= 1);
    assert!(duration_ms > 0.0, "duration_ms must be positive");
    let asks: Vec<TenantAsk<'_>> = workloads
        .iter()
        .map(|w| TenantAsk {
            source: PlanSource::Arch(w.arch),
            batch: w.batch,
            slo_ms: w.slo_ms,
            overrides: RouteOverrides::default(),
        })
        .collect();
    let (admitted, _) = admit_and_model(&asks, phone, streams, None)
        .expect("tenant set must lower cleanly and fit the phone's budget at batch 1");

    let arrivals_ms: Vec<Vec<f64>> = workloads
        .iter()
        .map(|w| w.arrival.times_ms(w.seed, duration_ms))
        .collect();
    let loads: Vec<OpenLoopLoad> = workloads
        .iter()
        .zip(admitted.iter())
        .zip(arrivals_ms.iter())
        .map(|((w, a), arr)| OpenLoopLoad {
            windows: open_loop_windows(arr, a.admission.batch, w.slo_ms),
            cold_ms: a.cold_s * 1e3,
            steady_ms: a.steady_s * 1e3,
        })
        .collect();
    let schedule = schedule_open_loop(&loads, streams, fault, policy);

    let mut tenants = Vec::with_capacity(workloads.len());
    let mut served_total = 0usize;
    let mut offered_total = 0usize;
    for (t, (w, a)) in workloads.iter().zip(admitted.iter()).enumerate() {
        let tally = OpenLoopTally::fold(
            &schedule,
            t,
            &arrivals_ms[t],
            a.admission.batch,
            w.slo_ms,
            |_, _, _| {},
        );
        served_total += tally.served;
        offered_total += tally.offered;
        tenants.push(TenantOpenLoopEstimate {
            name: w.arch.name.clone(),
            admission: a.admission.clone(),
            offered: tally.offered,
            served: tally.served,
            shed: tally.shed,
            windows: tally.windows,
            windows_shed: tally.windows_shed,
            retries: tally.retries,
            throttled: tally.throttled,
            cold_ms: loads[t].cold_ms,
            steady_ms: loads[t].steady_ms,
            p50_ms: tally.p50_ms,
            p95_ms: tally.p95_ms,
            p99_ms: tally.p99_ms,
            p999_ms: tally.p999_ms,
            slo_met: tally.slo_met,
            shed_rate: tally.shed_rate,
        });
    }
    let horizon_ms = schedule.wall_ms.max(duration_ms);
    OpenLoopEstimate {
        tenants,
        streams,
        duration_ms,
        wall_ms: schedule.wall_ms,
        offered_per_s: offered_total as f64 / (duration_ms * 1e-3),
        goodput_imgs_per_s: served_total as f64 / (horizon_ms * 1e-3),
        shed_rate: if offered_total > 0 {
            (offered_total - served_total) as f64 / offered_total as f64
        } else {
            0.0
        },
        arrivals_ms,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert;
    use phonebit_models::zoo::{self, Variant};
    use phonebit_models::{fill_weights, synthetic_image};

    fn micro_model() -> PbitModel {
        convert(&fill_weights(&zoo::yolo_micro(Variant::Binary), 11))
    }

    fn requests(count: usize) -> Vec<Tensor<u8>> {
        let input = zoo::yolo_micro(Variant::Binary).input;
        (0..count)
            .map(|i| synthetic_image(input, 40 + i as u64))
            .collect()
    }

    #[test]
    fn sharded_serving_reassembles_request_order() {
        let phone = Phone::xiaomi_9();
        let mut runtime = ServeRuntime::new(
            micro_model(),
            &phone,
            ServeOptions {
                streams: 2,
                batch: Some(2),
                slo_ms: None,
                ..Default::default()
            },
        )
        .expect("fits");
        let reqs = requests(7);
        let report = runtime.serve_u8(&reqs).expect("serve");
        assert_eq!(report.served, 7);
        assert_eq!(report.windows, 4, "7 requests in windows of 2");
        assert_eq!(report.streams, 2);
        assert_eq!(report.outputs.len(), 7);
        assert_eq!(report.window_ms.len(), 4);
        assert!(report.imgs_per_s > 0.0);
        assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);
        assert!(report.slo_met, "no SLO set");
        // Outputs match one-by-one sequential runs on a plain Session.
        let mut solo = crate::Session::new(micro_model(), &phone).expect("fits");
        for (i, req) in reqs.iter().enumerate() {
            let want = solo.run_u8(req).unwrap().output.unwrap();
            match (&report.outputs[i], &want) {
                (ActivationData::Floats(a), ActivationData::Floats(b)) => {
                    assert_eq!(a, b, "request {i}")
                }
                _ => panic!("unexpected output kinds"),
            }
        }
    }

    #[test]
    fn serving_is_deterministic_across_runs() {
        let phone = Phone::xiaomi_9();
        let opts = ServeOptions {
            streams: 3,
            batch: Some(2),
            ..Default::default()
        };
        let reqs = requests(12);
        let mut a = ServeRuntime::new(micro_model(), &phone, opts).unwrap();
        let mut b = ServeRuntime::new(micro_model(), &phone, opts).unwrap();
        let ra = a.serve_u8(&reqs).unwrap();
        let rb = b.serve_u8(&reqs).unwrap();
        assert_eq!(ra.window_ms, rb.window_ms, "modeled time is deterministic");
        assert_eq!(ra.imgs_per_s, rb.imgs_per_s);
    }

    #[test]
    fn admission_respects_memory_cap_and_slo() {
        let phone = Phone::xiaomi_9();
        // Unconstrained: the controller picks the throughput-best batch.
        let free = ServeRuntime::new(
            micro_model(),
            &phone,
            ServeOptions {
                streams: 2,
                batch: None,
                slo_ms: None,
                ..Default::default()
            },
        )
        .unwrap();
        let unconstrained = free.admission().clone();
        assert!(unconstrained.batch >= 1);
        assert!(unconstrained.batch <= unconstrained.max_feasible_batch);
        assert!(unconstrained.slo_met);

        // A tight SLO admits a smaller (or equal) batch.
        let tight_ms = unconstrained.modeled_window_ms * 0.6;
        let tight = ServeRuntime::new(
            micro_model(),
            &phone,
            ServeOptions {
                streams: 2,
                batch: None,
                slo_ms: Some(tight_ms),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(tight.admission().batch <= unconstrained.batch);
        if tight.admission().slo_met {
            assert!(tight.admission().modeled_window_ms <= tight_ms);
        } else {
            assert_eq!(tight.admission().batch, 1, "degraded serving at batch 1");
        }

        // An explicit batch beyond the memory cap is clamped to it.
        let clamped = ServeRuntime::new(
            micro_model(),
            &phone,
            ServeOptions {
                streams: 2,
                batch: Some(1 << 20),
                slo_ms: None,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            clamped.admission().batch,
            clamped.admission().max_feasible_batch
        );
    }

    #[test]
    fn resident_bytes_scale_with_stream_count() {
        let phone = Phone::xiaomi_9();
        let mk = |streams| {
            ServeRuntime::new(
                micro_model(),
                &phone,
                ServeOptions {
                    streams,
                    batch: Some(2),
                    slo_ms: None,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let one = mk(1);
        let three = mk(3);
        let weights = one.staged().model().size_bytes();
        let arena = one.staged().plan().staged_arena_bytes();
        assert_eq!(one.resident_bytes(), weights + arena);
        assert_eq!(three.resident_bytes(), weights + 3 * arena);
        assert_eq!(three.stream_count(), 3);
        assert_eq!(three.clock().streams(), 3);
    }

    #[test]
    fn estimate_serve_models_the_sharding_tradeoff() {
        let phone = Phone::xiaomi_9();
        let arch = zoo::alexnet(Variant::Binary);
        let solo = estimate_serve(&phone, &arch, 4, 1, 8);
        let duo = estimate_serve(&phone, &arch, 4, 2, 8);
        // Contention stretches each stream's window...
        assert!(duo.steady_window_ms > solo.steady_window_ms);
        // ...but overlapped host overhead still buys aggregate throughput.
        assert!(duo.imgs_per_s > solo.imgs_per_s);
        // Memory scales with the stream count; weights are shared.
        assert_eq!(duo.arena_bytes, 2 * solo.arena_bytes);
        assert!(duo.peak_bytes < 2 * solo.peak_bytes);
        // Percentiles order and cold dominates the tail.
        assert!(solo.p50_ms <= solo.p95_ms && solo.p95_ms <= solo.p99_ms);
        assert_eq!(solo.p99_ms, solo.cold_window_ms);
    }

    #[test]
    fn admission_candidates_include_a_binding_memory_cap() {
        assert_eq!(admission_candidates(5), vec![1, 2, 3, 4, 5]);
        assert_eq!(admission_candidates(4), vec![1, 2, 3, 4]);
        assert_eq!(admission_candidates(1), vec![1]);
        // At or above the probe ceiling the fixed list is used as-is.
        assert_eq!(admission_candidates(64).last(), Some(&64));
        assert_eq!(admission_candidates(200).last(), Some(&64));
    }

    #[test]
    fn percentiles_are_nearest_rank_over_one_sort() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let (p50, p95, p99, p999) = percentiles(&xs);
        assert_eq!(p50, 3.0);
        assert_eq!(p95, 5.0);
        assert_eq!(p99, 5.0);
        assert_eq!(p999, 5.0);
        assert_eq!(percentiles(&[]), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(percentiles(&[7.5]), (7.5, 7.5, 7.5, 7.5));
    }

    // -- scheduler ---------------------------------------------------------

    fn load(windows: usize, cold: f64, steady: f64, target: f64) -> TenantLoad {
        TenantLoad {
            windows,
            cold_ms: cold,
            steady_ms: steady,
            target_ms: target,
        }
    }

    #[test]
    fn scheduler_round_robins_a_single_uniform_tenant() {
        // One tenant, uniform windows: the work-stealing schedule is the
        // PR 4 round-robin placement.
        let sched = schedule_windows(&[load(6, 5.0, 4.0, 4.0)], 2);
        assert_eq!(sched.len(), 6);
        for (w, sw) in sched.iter().enumerate() {
            assert_eq!(sw.tenant, 0);
            assert_eq!(sw.index, w);
            assert_eq!(sw.stream, w % 2, "window {w}");
        }
        // First window per stream is cold, the rest steady.
        assert_eq!(sched[0].end_ms - sched[0].start_ms, 5.0);
        assert_eq!(sched[1].end_ms - sched[1].start_ms, 5.0);
        assert_eq!(sched[2].end_ms - sched[2].start_ms, 4.0);
        // Streams run back-to-back.
        assert_eq!(sched[2].start_ms, 5.0);
        assert_eq!(sched[4].start_ms, 9.0);
    }

    #[test]
    fn scheduler_lets_idle_streams_steal_backlog() {
        // Tenant 0 has one long window; tenant 1 a long backlog of short
        // ones. Under round-robin-by-tenant the second stream would idle;
        // work stealing drains the backlog across both streams.
        let loads = [load(1, 12.0, 12.0, 12.0), load(8, 2.0, 2.0, 2.0)];
        let sched = schedule_windows(&loads, 2);
        let s0_windows = sched.iter().filter(|sw| sw.stream == 0).count();
        let s1_windows = sched.iter().filter(|sw| sw.stream == 1).count();
        assert_eq!(s0_windows + s1_windows, 9);
        // The stream not stuck behind the long window absorbed most of the
        // backlog.
        let long_stream = sched
            .iter()
            .find(|sw| sw.tenant == 0)
            .expect("long window scheduled")
            .stream;
        let other = 1 - long_stream;
        let stolen = sched
            .iter()
            .filter(|sw| sw.tenant == 1 && sw.stream == other)
            .count();
        assert!(stolen >= 6, "idle stream stole only {stolen} windows");
        // Work conservation: makespan ~ total work / streams.
        let wall = sched.iter().map(|sw| sw.end_ms).fold(0.0, f64::max);
        assert!(wall <= 16.0 + 1e-9, "makespan {wall}");
    }

    #[test]
    fn scheduler_paces_a_light_tenant_under_a_heavy_neighbor() {
        // A heavy tenant floods the queue; the light tenant's tight pacing
        // target keeps its windows from starving behind the backlog.
        let loads = [
            load(12, 10.0, 10.0, 1000.0), // heavy, indifferent deadline
            load(3, 2.0, 2.0, 15.0),      // light, paced every 15 ms
        ];
        let sched = schedule_windows(&loads, 2);
        for sw in sched.iter().filter(|sw| sw.tenant == 1) {
            let lateness = sw.end_ms - sw.deadline_ms;
            assert!(
                lateness <= 10.0 + 1e-9,
                "light window {} finished {:.1} ms past its deadline",
                sw.index,
                lateness
            );
        }
    }

    #[test]
    fn scheduler_is_deterministic_and_complete() {
        let loads = [load(5, 3.0, 2.0, 2.0), load(7, 4.0, 3.5, 9.0)];
        let a = schedule_windows(&loads, 3);
        let b = schedule_windows(&loads, 3);
        assert_eq!(a, b);
        // Every window appears exactly once.
        for (t, l) in loads.iter().enumerate() {
            for k in 0..l.windows {
                assert_eq!(
                    a.iter()
                        .filter(|sw| sw.tenant == t && sw.index == k)
                        .count(),
                    1
                );
            }
        }
        // Per-stream intervals never overlap and windows start when their
        // stream frees up.
        for s in 0..3 {
            let mine: Vec<_> = a.iter().filter(|sw| sw.stream == s).collect();
            for pair in mine.windows(2) {
                assert!(pair[1].start_ms >= pair[0].end_ms - 1e-9);
            }
        }
    }

    // -- multi-tenant runtime ---------------------------------------------

    fn alex_micro_model() -> PbitModel {
        convert(&fill_weights(&zoo::alexnet_micro(Variant::Binary), 7))
    }

    #[test]
    fn device_runtime_registers_tenants_and_pools_arena() {
        let phone = Phone::xiaomi_9();
        let runtime = DeviceRuntime::new(
            vec![
                TenantSpec::new(micro_model()).with_batch(2),
                TenantSpec::new(alex_micro_model()).with_batch(2),
            ],
            &phone,
            2,
        )
        .expect("fits");
        assert_eq!(runtime.tenants().len(), 2);
        let weights: usize = runtime
            .tenants()
            .iter()
            .map(|t| t.staged().model().size_bytes())
            .sum();
        let slice = runtime
            .tenants()
            .iter()
            .map(|t| t.staged().plan().staged_arena_bytes())
            .max()
            .unwrap();
        assert_eq!(runtime.pool_slice_bytes(), slice);
        assert_eq!(runtime.resident_bytes(), weights + 2 * slice);
        // The clock carries a heterogeneous mix for the pair.
        let mix = runtime.clock().mix().expect("pair registers a mix");
        assert_eq!(mix.len(), 1, "streams - 1 neighbors");
        assert!(mix[0].busy > 0.0 && mix[0].cu_frac > 0.0);
    }

    #[test]
    fn co_resident_pair_is_bit_exact_and_deterministic() {
        let phone = Phone::xiaomi_9();
        let reqs_a = requests(5);
        let input_b = zoo::alexnet_micro(Variant::Binary).input;
        let reqs_b: Vec<Tensor<u8>> = (0..4)
            .map(|i| synthetic_image(input_b, 90 + i as u64))
            .collect();
        let serve = |_: usize| {
            let mut runtime = DeviceRuntime::new(
                vec![
                    TenantSpec::new(micro_model()).with_batch(2),
                    TenantSpec::new(alex_micro_model()).with_batch(2),
                ],
                &phone,
                2,
            )
            .expect("fits");
            runtime
                .serve(&[TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)])
                .expect("serve")
        };
        let report = serve(0);
        assert_eq!(report.tenants[0].served, 5);
        assert_eq!(report.tenants[1].served, 4);
        assert_eq!(report.served, 9);
        assert_eq!(report.windows, 3 + 2);
        // Solo reference runs.
        let mut solo_a = crate::Session::new(micro_model(), &phone).unwrap();
        for (i, req) in reqs_a.iter().enumerate() {
            let want = solo_a.run_u8(req).unwrap().output.unwrap();
            match (&report.tenants[0].outputs[i], &want) {
                (ActivationData::Floats(a), ActivationData::Floats(b)) => {
                    assert_eq!(a, b, "tenant 0 request {i}")
                }
                _ => panic!("unexpected output kinds"),
            }
        }
        let mut solo_b = crate::Session::new(alex_micro_model(), &phone).unwrap();
        for (i, req) in reqs_b.iter().enumerate() {
            let want = solo_b.run_u8(req).unwrap().output.unwrap();
            match (&report.tenants[1].outputs[i], &want) {
                (ActivationData::Floats(a), ActivationData::Floats(b)) => {
                    assert_eq!(a, b, "tenant 1 request {i}")
                }
                _ => panic!("unexpected output kinds"),
            }
        }
        // Determinism across a rebuilt runtime.
        let again = serve(1);
        assert_eq!(report.schedule, again.schedule);
        for (a, b) in report.tenants.iter().zip(again.tenants.iter()) {
            assert_eq!(a.window_ms, b.window_ms);
        }
    }

    #[test]
    fn repeated_serve_passes_match_the_modeled_schedule() {
        // Regression: a reused runtime's lanes used to stay primed across
        // passes, so the second pass executed steady windows against a
        // schedule that modeled cold ones. Every pass now resets lanes:
        // executed durations equal the modeled schedule's, on every pass.
        let phone = Phone::xiaomi_9();
        let mut runtime = DeviceRuntime::new(
            vec![
                TenantSpec::new(micro_model()).with_batch(2),
                TenantSpec::new(alex_micro_model()).with_batch(2),
            ],
            &phone,
            2,
        )
        .expect("fits");
        let reqs_a = requests(6);
        let input_b = zoo::alexnet_micro(Variant::Binary).input;
        let reqs_b: Vec<Tensor<u8>> = (0..4)
            .map(|i| synthetic_image(input_b, 90 + i as u64))
            .collect();
        let traffic = [TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)];
        let first = runtime.serve(&traffic).expect("first pass");
        let second = runtime.serve(&traffic).expect("second pass");
        assert_eq!(first.schedule, second.schedule);
        for (pass, report) in [(1, &first), (2, &second)] {
            for sw in &report.schedule {
                let modeled = sw.end_ms - sw.start_ms;
                let executed = report.tenants[sw.tenant].duration_ms[sw.index];
                assert!(
                    (modeled - executed).abs() < 1e-9 * modeled.max(1.0),
                    "pass {pass}: tenant {} window {} executed {executed} ms \
                     vs modeled {modeled} ms",
                    sw.tenant,
                    sw.index
                );
            }
        }
        assert_eq!(first.wall_s, second.wall_s);
    }

    #[test]
    fn oversized_tenant_ask_is_clamped_not_panicking() {
        // Regression: one tenant asking for an absurd window used to zero
        // out the neighbor's memory cap (clamp(1, 0) panic). The ask must
        // be clamped to what fits next to the others, and every tenant
        // still admits a batch >= 1 that fits the pooled budget.
        let phone = Phone::xiaomi_9();
        let runtime = DeviceRuntime::new(
            vec![
                TenantSpec::new(micro_model()).with_batch(1 << 20),
                TenantSpec::new(alex_micro_model()).with_batch(2),
            ],
            &phone,
            2,
        )
        .expect("oversized ask clamps instead of panicking");
        let big = runtime.tenants()[0].admission();
        let small = runtime.tenants()[1].admission();
        assert!(big.batch >= 1 && big.batch <= big.max_feasible_batch);
        assert!(small.max_feasible_batch >= 1, "neighbor cap not zeroed");
        assert_eq!(small.batch, 2);
        assert!(runtime.resident_bytes() <= phone.app_budget_bytes());
    }

    #[test]
    fn estimate_serve_multitenant_beats_time_slicing_and_meets_slos() {
        let phone = Phone::xiaomi_9();
        let alex = zoo::alexnet_micro(Variant::Binary);
        let yolo = zoo::yolo_micro(Variant::Binary);
        let est = estimate_serve_multitenant(
            &phone,
            &[
                TenantWorkload {
                    arch: &alex,
                    batch: Some(2),
                    windows: 9,
                    slo_ms: None,
                },
                TenantWorkload {
                    arch: &yolo,
                    batch: Some(2),
                    windows: 7,
                    slo_ms: None,
                },
            ],
            2,
        );
        assert_eq!(est.tenants.len(), 2);
        assert!(est.wall_ms > 0.0);
        // Co-residency fills the idle tails time-slicing leaves behind.
        assert!(
            est.imgs_per_s > est.sequential_imgs_per_s,
            "co-resident {:.1} imgs/s vs time-sliced {:.1}",
            est.imgs_per_s,
            est.sequential_imgs_per_s
        );
        // Pooled memory: shared slice, summed weights.
        assert!(est.pool_slice_bytes > 0);
        assert_eq!(est.peak_bytes, est.weights_bytes + 2 * est.pool_slice_bytes);
        for t in &est.tenants {
            assert!(t.p50_ms <= t.p95_ms && t.p95_ms <= t.p99_ms);
            assert!(t.slo_met, "no SLO set");
        }
    }

    // -- open-loop scheduler ----------------------------------------------

    fn open_load(ready: &[f64], deadline: &[f64], cold_ms: f64, steady_ms: f64) -> OpenLoopLoad {
        OpenLoopLoad {
            windows: ready
                .iter()
                .zip(deadline.iter())
                .map(|(&ready_ms, &deadline_ms)| OpenLoopWindow {
                    ready_ms,
                    deadline_ms,
                })
                .collect(),
            cold_ms,
            steady_ms,
        }
    }

    #[test]
    fn open_loop_fault_free_serves_every_window_in_order() {
        let inf = f64::INFINITY;
        let loads = [
            open_load(&[0.0, 5.0, 30.0], &[inf, inf, inf], 12.0, 10.0),
            open_load(&[0.0, 8.0], &[inf, inf], 12.0, 10.0),
        ];
        let s = schedule_open_loop(&loads, 2, None, &RetryPolicy::default());
        // One non-faulted attempt per window, every window served.
        assert_eq!(s.attempts.len(), 5);
        for fates in &s.fates {
            for f in fates {
                match f {
                    WindowFate::Served { attempts, .. } => assert_eq!(*attempts, 1),
                    other => panic!("fault-free window shed: {other:?}"),
                }
            }
        }
        // Starts respect readiness; per-tenant windows serve in order; no
        // per-stream overlap.
        for at in &s.attempts {
            assert!(at.start_ms >= loads[at.tenant].windows[at.index].ready_ms - 1e-9);
            assert!(!at.faulted);
            assert_eq!(at.slowdown, 1.0);
        }
        for t in 0..loads.len() {
            let starts: Vec<f64> = s
                .attempts
                .iter()
                .filter(|a| a.tenant == t)
                .map(|a| a.start_ms)
                .collect();
            assert!(starts.windows(2).all(|w| w[1] >= w[0]));
        }
        for stream in 0..2 {
            let mut mine: Vec<(f64, f64)> = s
                .attempts
                .iter()
                .filter(|a| a.stream == stream)
                .map(|a| (a.start_ms, a.end_ms))
                .collect();
            mine.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for pair in mine.windows(2) {
                assert!(pair[1].0 >= pair[0].1 - 1e-9, "stream {stream} overlaps");
            }
        }
        // Deterministic.
        let again = schedule_open_loop(&loads, 2, None, &RetryPolicy::default());
        assert_eq!(s, again);
    }

    #[test]
    fn open_loop_certain_faults_shed_after_bounded_retries() {
        let inf = f64::INFINITY;
        let loads = [open_load(&[0.0], &[inf], 10.0, 10.0)];
        let fault = FaultPlan::new(3).with_failure_rate(1.0);
        let policy = RetryPolicy {
            max_retries: 2,
            backoff_scale: 0.5,
        };
        let s = schedule_open_loop(&loads, 1, Some(&fault), &policy);
        // 1 + max_retries attempts, all faulted, then RetriesExhausted.
        assert_eq!(s.attempts.len(), 3);
        assert!(s.attempts.iter().all(|a| a.faulted));
        match s.fates[0][0] {
            WindowFate::Shed {
                attempts,
                reason: ShedReason::RetriesExhausted,
                ..
            } => assert_eq!(attempts, 3),
            other => panic!("expected retries-exhausted shed, got {other:?}"),
        }
        // Backoff: gap after the k-th fault is steady × 0.5 × 2^(k−1).
        assert!((s.attempts[1].start_ms - s.attempts[0].end_ms - 5.0).abs() < 1e-9);
        assert!((s.attempts[2].start_ms - s.attempts[1].end_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    fn open_loop_sheds_hopeless_deadlines_without_dispatching() {
        // Second window's deadline already passed relative to its ready
        // time: even an optimistic dispatch cannot meet it.
        let loads = [open_load(&[0.0, 50.0], &[100.0, 55.0], 10.0, 10.0)];
        let s = schedule_open_loop(&loads, 1, None, &RetryPolicy::default());
        assert!(s.fates[0][0].is_served());
        match s.fates[0][1] {
            WindowFate::Shed {
                attempts,
                reason: ShedReason::DeadlinePast,
                ..
            } => assert_eq!(attempts, 0, "shed without burning device time"),
            other => panic!("expected deadline shed, got {other:?}"),
        }
        assert_eq!(s.attempts.len(), 1);
    }

    #[test]
    fn open_loop_throttle_stretches_attempts_uniformly() {
        let inf = f64::INFINITY;
        let loads = [open_load(&[0.0, 0.0], &[inf, inf], 10.0, 10.0)];
        let fault = FaultPlan::new(1).with_throttle(phonebit_gpusim::ThrottleEpoch {
            start_ms: 5.0,
            end_ms: 100.0,
            slowdown: 2.0,
        });
        let s = schedule_open_loop(&loads, 1, Some(&fault), &RetryPolicy::default());
        // First window starts at 0 (unthrottled), second inside the epoch.
        assert_eq!(s.attempts[0].slowdown, 1.0);
        assert!((s.attempts[0].end_ms - 10.0).abs() < 1e-9);
        assert_eq!(s.attempts[1].slowdown, 2.0);
        assert!((s.attempts[1].end_ms - s.attempts[1].start_ms - 20.0).abs() < 1e-9);
    }

    #[test]
    fn open_loop_no_slo_tenant_is_not_starved_by_slo_neighbor() {
        let inf = f64::INFINITY;
        // Tenant 0 has a generous SLO (lots of slack); tenant 1 has none.
        // The pacing deadline must let tenant 1 through anyway.
        let ready: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let loads = [
            open_load(&ready, &[1000.0; 6], 10.0, 10.0),
            open_load(&ready, &[inf; 6], 10.0, 10.0),
        ];
        let s = schedule_open_loop(&loads, 1, None, &RetryPolicy::default());
        assert!(s.fates.iter().flatten().all(WindowFate::is_served));
        // The no-SLO tenant is interleaved, not pushed to the end: its
        // first service completes before the SLO tenant's last.
        let first_t1 = s
            .attempts
            .iter()
            .find(|a| a.tenant == 1)
            .expect("tenant 1 served")
            .end_ms;
        let last_t0 = s
            .attempts
            .iter()
            .filter(|a| a.tenant == 0)
            .map(|a| a.end_ms)
            .fold(0.0, f64::max);
        assert!(
            first_t1 < last_t0,
            "no-SLO tenant starved: first served {first_t1} ms vs neighbor done {last_t0} ms"
        );
    }

    #[test]
    fn open_loop_windows_anchor_deadlines_to_first_arrival() {
        let arrivals = [0.0, 4.0, 9.0, 11.0, 20.0];
        let windows = open_loop_windows(&arrivals, 2, Some(30.0));
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].ready_ms, 4.0, "ready when the last member lands");
        assert_eq!(windows[0].deadline_ms, 30.0, "deadline off the first");
        assert_eq!(windows[1].ready_ms, 11.0);
        assert_eq!(windows[1].deadline_ms, 39.0);
        assert_eq!(windows[2].ready_ms, 20.0);
        assert_eq!(windows[2].deadline_ms, 50.0);
        let no_slo = open_loop_windows(&arrivals, 2, None);
        assert!(no_slo.iter().all(|w| w.deadline_ms.is_infinite()));
    }

    // -- open-loop runtime ------------------------------------------------

    fn alex_requests(count: usize) -> Vec<Tensor<u8>> {
        let input = zoo::alexnet_micro(Variant::Binary).input;
        (0..count)
            .map(|i| synthetic_image(input, 90 + i as u64))
            .collect()
    }

    fn pair_runtime(phone: &Phone) -> DeviceRuntime {
        DeviceRuntime::new(
            vec![
                TenantSpec::new(micro_model()).with_batch(2),
                TenantSpec::new(alex_micro_model()).with_batch(2),
            ],
            phone,
            2,
        )
        .expect("fits")
    }

    #[test]
    fn serve_open_loop_fault_free_matches_solo_outputs_and_schedule() {
        let phone = Phone::xiaomi_9();
        let mut runtime = pair_runtime(&phone);
        let reqs_a = requests(6);
        let reqs_b = alex_requests(4);
        let arrivals = vec![
            vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0],
            vec![0.0, 2.0, 4.0, 6.0],
        ];
        let report = runtime
            .serve_open_loop(
                &[TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)],
                &arrivals,
                &OpenLoopOptions::default(),
            )
            .expect("serve");
        assert_eq!(report.tenants[0].served, 6);
        assert_eq!(report.tenants[1].served, 4);
        assert_eq!(report.replans, 0, "no SLO pressure, no replans");
        assert!(report.goodput_imgs_per_s > 0.0);
        for t in &report.tenants {
            assert_eq!(t.shed, 0);
            assert_eq!(t.retries, 0);
            assert_eq!(t.throttled, 0);
            assert!(t.latency_ms.iter().all(|&l| l >= 0.0));
            assert!(t.p50_ms <= t.p95_ms && t.p999_ms >= t.p99_ms);
        }
        // Modeled vs executed no-drift, attempt by attempt.
        assert_eq!(report.attempt_exec_ms.len(), report.schedule.attempts.len());
        for (k, at) in report.schedule.attempts.iter().enumerate() {
            let modeled = at.end_ms - at.start_ms;
            let executed = report.attempt_exec_ms[k];
            assert!(
                (modeled - executed).abs() < 1e-9 * modeled.max(1.0),
                "attempt {k}: executed {executed} ms vs modeled {modeled} ms"
            );
        }
        // Served outputs are bit-exact with solo sessions.
        let mut solo_a = crate::Session::new(micro_model(), &phone).unwrap();
        for (i, req) in reqs_a.iter().enumerate() {
            let want = solo_a.run_u8(req).unwrap().output.unwrap();
            match (report.tenants[0].outputs[i].as_ref(), &want) {
                (Some(ActivationData::Floats(a)), ActivationData::Floats(b)) => {
                    assert_eq!(a, b, "tenant 0 request {i}")
                }
                _ => panic!("unexpected output kinds"),
            }
        }
    }

    #[test]
    fn serve_open_loop_with_faults_is_deterministic_and_bit_exact() {
        let phone = Phone::xiaomi_9();
        let reqs_a = requests(6);
        let reqs_b = alex_requests(4);
        let arrivals = vec![
            vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0],
            vec![0.0, 2.0, 4.0, 6.0],
        ];
        let fault = FaultPlan::new(42).with_failure_rate(0.35);
        let serve = |_: usize| {
            let mut runtime = pair_runtime(&phone);
            runtime.clock().set_fault_plan(Some(fault.clone()));
            runtime
                .serve_open_loop(
                    &[TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)],
                    &arrivals,
                    &OpenLoopOptions::default(),
                )
                .expect("serve")
        };
        let report = serve(0);
        let total_retries: usize = report.tenants.iter().map(|t| t.retries).sum();
        assert!(total_retries > 0, "rate 0.35 over 5+ windows must fault");
        // Same seed ⇒ identical schedule, fates, and counters.
        let again = serve(1);
        assert_eq!(report.schedule, again.schedule);
        for (a, b) in report.tenants.iter().zip(again.tenants.iter()) {
            assert_eq!(
                (a.retries, a.shed, a.throttled),
                (b.retries, b.shed, b.throttled)
            );
        }
        // No-drift holds through faulted and retried attempts.
        for (k, at) in report.schedule.attempts.iter().enumerate() {
            let modeled = at.end_ms - at.start_ms;
            assert!(
                (modeled - report.attempt_exec_ms[k]).abs() < 1e-9 * modeled.max(1.0),
                "attempt {k} drifted under faults"
            );
        }
        // Surviving outputs are bit-exact with solo fault-free runs.
        let mut solo_a = crate::Session::new(micro_model(), &phone).unwrap();
        for (i, req) in reqs_a.iter().enumerate() {
            let Some(got) = report.tenants[0].outputs[i].as_ref() else {
                continue; // shed
            };
            let want = solo_a.run_u8(req).unwrap().output.unwrap();
            match (got, &want) {
                (ActivationData::Floats(a), ActivationData::Floats(b)) => {
                    assert_eq!(a, b, "surviving request {i} diverged")
                }
                _ => panic!("unexpected output kinds"),
            }
        }
    }

    #[test]
    fn attach_detach_preserve_survivors_and_match_fresh_staging() {
        let phone = Phone::xiaomi_9();
        // Start with one tenant, attach a second live.
        let mut grown = DeviceRuntime::new(
            vec![TenantSpec::new(micro_model()).with_batch(2)],
            &phone,
            2,
        )
        .expect("fits");
        let slice_before = grown.pool_slice_bytes();
        let idx = grown
            .attach(TenantSpec::new(alex_micro_model()).with_batch(2))
            .expect("attach fits");
        assert_eq!(idx, 1);
        assert_eq!(grown.tenants().len(), 2);
        assert_eq!(
            grown.pool_slice_bytes(),
            slice_before,
            "attach never regrows the pooled slice"
        );
        assert!(grown.clock().mix().is_some(), "pair registers a mix");

        let reqs_a = requests(5);
        let reqs_b = alex_requests(4);
        let traffic = [TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)];
        let grown_report = grown.serve(&traffic).expect("serve grown");
        // Outputs match solo sessions bit-exactly (the attach clamps the
        // newcomer's batch to the existing slice, so schedules may differ
        // from a fresh pair — but correctness may not).
        let mut solo_b = crate::Session::new(alex_micro_model(), &phone).unwrap();
        for (i, req) in reqs_b.iter().enumerate() {
            let want = solo_b.run_u8(req).unwrap().output.unwrap();
            match (&grown_report.tenants[1].outputs[i], &want) {
                (ActivationData::Floats(a), ActivationData::Floats(b)) => {
                    assert_eq!(a, b, "attached tenant request {i}")
                }
                _ => panic!("unexpected output kinds"),
            }
        }

        // Detach the newcomer: survivors keep serving, bit-exact with a
        // fresh solo runtime.
        grown.detach(1).expect("detach");
        assert_eq!(grown.tenants().len(), 1);
        assert!(grown.clock().mix().is_none(), "solo clears the mix");
        let after = grown.serve(&[TenantTraffic::U8(&reqs_a)]).expect("serve");
        let mut fresh = DeviceRuntime::new(
            vec![TenantSpec::new(micro_model()).with_batch(2)],
            &phone,
            2,
        )
        .expect("fits");
        let want = fresh.serve(&[TenantTraffic::U8(&reqs_a)]).expect("serve");
        assert_eq!(
            after.schedule, want.schedule,
            "survivor schedule matches fresh"
        );
        for (a, b) in after.tenants[0]
            .outputs
            .iter()
            .zip(want.tenants[0].outputs.iter())
        {
            match (a, b) {
                (ActivationData::Floats(x), ActivationData::Floats(y)) => assert_eq!(x, y),
                _ => panic!("unexpected output kinds"),
            }
        }

        // Detaching the last tenant is refused.
        assert!(grown.detach(0).is_err(), "a runtime keeps >= 1 tenant");
    }

    #[test]
    fn serve_open_loop_replans_batch_under_shed_pressure() {
        let phone = Phone::xiaomi_9();
        // Probe the modeled batch-4 window, then pick an SLO no batch-4
        // dispatch can make: the runtime must halve the window to shed
        // less instead of dropping batch-sized chunks forever.
        let probe = DeviceRuntime::new(
            vec![TenantSpec::new(micro_model()).with_batch(4)],
            &phone,
            1,
        )
        .expect("fits");
        assert_eq!(
            probe.tenants()[0].admission().batch,
            4,
            "probe stages batch 4"
        );
        let steady4 = probe.tenants()[0].admission().modeled_window_ms;
        let mut runtime = DeviceRuntime::new(
            vec![TenantSpec::new(micro_model())
                .with_batch(4)
                .with_slo_ms(steady4 * 0.3)],
            &phone,
            1,
        )
        .expect("fits");
        let reqs = requests(8);
        let arrivals: Vec<f64> = (0..8).map(|i| i as f64 * steady4 * 0.01).collect();
        let report = runtime
            .serve_open_loop(
                &[TenantTraffic::U8(&reqs)],
                &[arrivals],
                &OpenLoopOptions::default(),
            )
            .expect("serve");
        assert!(
            report.replans >= 1,
            "shed pressure above threshold must trigger a replan"
        );
        assert!(
            report.tenants[0].batch < 4,
            "replan halves the worst offender's window"
        );
        // Graceful: whatever is served is real (outputs committed), and
        // every request has a definite fate.
        let t = &report.tenants[0];
        assert_eq!(t.served + t.shed, t.offered);
        assert_eq!(
            t.outputs.iter().filter(|o| o.is_some()).count(),
            t.served,
            "served requests carry outputs, shed ones are None"
        );
    }

    #[test]
    fn estimate_serve_open_loop_degrades_gracefully_with_load() {
        let phone = Phone::xiaomi_9();
        let alex = zoo::alexnet_micro(Variant::Binary);
        let yolo = zoo::yolo_micro(Variant::Binary);
        // Batch 1 with an SLO well above the window: at light load nothing
        // sheds, past capacity the excess does. (With larger batches and a
        // tight SLO, shed rate is U-shaped — light load spends the whole
        // budget filling the window — so the monotone claim is over loads
        // where the SLO covers batch fill time.)
        let at_rate = |mult: f64| {
            let workloads = [
                OpenLoopWorkload {
                    arch: &alex,
                    batch: Some(1),
                    slo_ms: Some(5.0),
                    arrival: ArrivalProcess::Poisson {
                        rate_per_s: 2000.0 * mult,
                    },
                    seed: 11,
                },
                OpenLoopWorkload {
                    arch: &yolo,
                    batch: Some(1),
                    slo_ms: Some(5.0),
                    arrival: ArrivalProcess::Poisson {
                        rate_per_s: 2000.0 * mult,
                    },
                    seed: 13,
                },
            ];
            estimate_serve_open_loop(&phone, &workloads, 2, 50.0, None, &RetryPolicy::default())
        };
        let light = at_rate(0.5);
        let heavy = at_rate(4.0);
        assert!(light.offered_per_s < heavy.offered_per_s);
        // Shed rate is monotone in offered load; overload never starves a
        // tenant outright.
        assert!(light.shed_rate <= heavy.shed_rate + 1e-9);
        for t in &heavy.tenants {
            assert!(t.served > 0, "tenant {} starved under overload", t.name);
            assert_eq!(t.served + t.shed, t.offered);
        }
        // The modeled schedule matches its own fates: goodput counts only
        // served requests.
        assert!(heavy.goodput_imgs_per_s <= heavy.offered_per_s + 1e-9);
        // Determinism: the seeded estimate reproduces bit-for-bit.
        assert_eq!(at_rate(4.0), heavy);
    }
}
