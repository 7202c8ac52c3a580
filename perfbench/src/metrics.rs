//! Metric derivations the workloads share: set-up repetitions, the
//! staged plan's shape and modeled launch statistics, and the traced
//! run's per-layer table.

use phonebit_core::{ConvPath, RunReport, StagedModel, StepOp};
use phonebit_gpusim::LaunchEvent;

use crate::replay::{Family, Tally};
use crate::util::median;
use crate::{Clock, Outcome};

/// Whether another set-up repetition is due: at least three, then more
/// while they have taken under two seconds (at most 200). `setup_s` is the
/// median of the repetitions.
pub fn setup_reps_left(done: &[f64]) -> bool {
    done.len() < 3 || (done.iter().sum::<f64>() < 2.0 && done.len() < 200)
}

/// Seconds each set-up repetition spent, whole and by piece.
#[derive(Default)]
pub struct SetupTimes {
    /// `.pbit` bytes to a ready runtime (`setup_s`).
    pub total: Vec<f64>,
    /// `format::read_model`.
    pub decode: Vec<f64>,
    /// Lowering + staging (+ streams, or fleet placement and admission).
    pub stage: Vec<f64>,
    /// `ExecutionPlan::for_model_batched_with` alone.
    pub lower: Vec<f64>,
}

impl SetupTimes {
    /// Pushes the set-up pieces (`setup_s` itself is an end-to-end metric
    /// the workload pushes first).
    pub fn push(&self, out: &mut Outcome, pbit_bytes: usize) {
        out.push(
            "format.decode_ms",
            median(&self.decode) * 1e3,
            "ms",
            Clock::Host,
        );
        out.push("format.bytes", pbit_bytes as f64, "bytes", Clock::None);
        out.push(
            "plan.lower_ms",
            median(&self.lower) * 1e3,
            "ms",
            Clock::Host,
        );
        out.push(
            "engine.stage_ms",
            median(&self.stage) * 1e3,
            "ms",
            Clock::Host,
        );
    }
}

/// A staged plan's shape and its window's modeled launch statistics, per
/// image where the name says so.
pub struct ModelShape {
    dispatches_per_img: f64,
    arena_mb: f64,
    fused_chains: f64,
    lowered_routes: f64,
    dict_bytes_ratio: f64,
    paging_stall_ms: f64,
    paging_upload_mb: f64,
    busy_ms_per_img: f64,
    dram_mb_per_img: f64,
    mem_bound_share: f64,
    alu_util: f64,
    conv1_share: f64,
}

impl ModelShape {
    /// Shape of `staged`'s plan and the statistics of its window `report`
    /// (whose dispatches are `timeline`).
    pub fn of(staged: &StagedModel, report: &RunReport, timeline: &[LaunchEvent]) -> Self {
        let plan = staged.plan();
        let b = plan.batch as f64;
        let raw: usize = staged.model().layers.iter().map(|l| l.param_bytes()).sum();
        let lowered = |r: Option<phonebit_core::ConvPlan>| {
            usize::from(r.is_some_and(|r| r.path == ConvPath::LoweredGemm))
        };
        let lowered_routes: usize = plan
            .steps
            .iter()
            .map(|step| match &step.op {
                StepOp::FusedGroup { members, .. } => {
                    members.iter().map(|m| lowered(m.route)).sum()
                }
                _ => lowered(step.route),
            })
            .sum();
        let (stall_s, upload_bytes) =
            plan.paging
                .as_ref()
                .filter(|p| !p.resident)
                .map_or((0.0, 0), |p| {
                    let up: usize = p
                        .steps
                        .iter()
                        .filter(|s| s.upload_s > 0.0)
                        .map(|s| s.bank_bytes)
                        .sum();
                    (p.stall_s(), up)
                });
        let busy: f64 = timeline.iter().map(|e| e.stats.time_s).sum();
        let share = |part: f64| if busy > 0.0 { part / busy } else { 0.0 };
        let mem_bound: f64 = timeline
            .iter()
            .filter(|e| e.stats.memory_bound())
            .map(|e| e.stats.time_s)
            .sum();
        let alu: f64 = timeline
            .iter()
            .map(|e| e.stats.alu_util * e.stats.time_s)
            .sum();
        let layers_s: f64 = report.per_layer.iter().map(|l| l.time_s).sum();
        let conv1_s = report.per_layer.first().map_or(0.0, |l| l.time_s);
        Self {
            dispatches_per_img: plan.dispatches() as f64 / b,
            arena_mb: plan.staged_arena_bytes() as f64 / 1e6,
            fused_chains: plan
                .steps
                .iter()
                .filter(|s| matches!(s.op, StepOp::FusedGroup { .. }))
                .count() as f64,
            lowered_routes: lowered_routes as f64,
            dict_bytes_ratio: raw.saturating_sub(plan.compression_saved_bytes()) as f64
                / raw.max(1) as f64,
            paging_stall_ms: stall_s * 1e3,
            paging_upload_mb: upload_bytes as f64 / 1e6,
            busy_ms_per_img: busy * 1e3 / b,
            dram_mb_per_img: timeline.iter().map(|e| e.stats.dram_bytes).sum::<f64>() / 1e6 / b,
            mem_bound_share: share(mem_bound),
            alu_util: share(alu),
            conv1_share: if layers_s > 0.0 {
                conv1_s / layers_s
            } else {
                0.0
            },
        }
    }

    /// Several co-served models as one: per-image quantities and shares
    /// weighted by each model's share of requests, sizes and counts summed.
    pub fn mix(parts: &[(f64, &ModelShape)]) -> Self {
        let w = |f: fn(&ModelShape) -> f64| parts.iter().map(|(w, s)| w * f(s)).sum::<f64>();
        let sum = |f: fn(&ModelShape) -> f64| parts.iter().map(|(_, s)| f(s)).sum::<f64>();
        Self {
            dispatches_per_img: w(|s| s.dispatches_per_img),
            arena_mb: sum(|s| s.arena_mb),
            fused_chains: sum(|s| s.fused_chains),
            lowered_routes: sum(|s| s.lowered_routes),
            dict_bytes_ratio: w(|s| s.dict_bytes_ratio),
            paging_stall_ms: w(|s| s.paging_stall_ms),
            paging_upload_mb: w(|s| s.paging_upload_mb),
            busy_ms_per_img: w(|s| s.busy_ms_per_img),
            dram_mb_per_img: w(|s| s.dram_mb_per_img),
            mem_bound_share: w(|s| s.mem_bound_share),
            alu_util: w(|s| s.alu_util),
            conv1_share: w(|s| s.conv1_share),
        }
    }

    pub fn push(&self, out: &mut Outcome) {
        let rows: [(&str, f64, &'static str, Clock); 12] = [
            (
                "plan.dispatches_per_img",
                self.dispatches_per_img,
                "count",
                Clock::None,
            ),
            ("plan.arena_mb", self.arena_mb, "MB", Clock::Modeled),
            ("plan.fused_chains", self.fused_chains, "count", Clock::None),
            (
                "plan.lowered_routes",
                self.lowered_routes,
                "count",
                Clock::None,
            ),
            (
                "tensor.dict.bytes_ratio",
                self.dict_bytes_ratio,
                "ratio",
                Clock::None,
            ),
            (
                "paging.stall_ms",
                self.paging_stall_ms,
                "ms",
                Clock::Modeled,
            ),
            (
                "paging.upload_mb",
                self.paging_upload_mb,
                "MB",
                Clock::Modeled,
            ),
            (
                "gpusim.busy_ms_per_img",
                self.busy_ms_per_img,
                "ms",
                Clock::Modeled,
            ),
            (
                "gpusim.dram_mb_per_img",
                self.dram_mb_per_img,
                "MB",
                Clock::Modeled,
            ),
            (
                "gpusim.mem_bound_share",
                self.mem_bound_share,
                "ratio",
                Clock::Modeled,
            ),
            ("gpusim.alu_util", self.alu_util, "ratio", Clock::Modeled),
            (
                "gpusim.conv1_share",
                self.conv1_share,
                "ratio",
                Clock::Modeled,
            ),
        ];
        for (name, value, unit, clock) in rows {
            out.push(name, value, unit, clock);
        }
    }
}

/// Pushes the per-layer metrics derived from replay tallies.
pub fn push_layer_metrics(out: &mut Outcome, tally: &Tally, window_host_s: f64) {
    for fam in Family::ALL {
        out.push(
            &format!("nn.{}.host_ms", fam.name()),
            tally.host(fam) * 1e3,
            "ms",
            Clock::Host,
        );
    }
    out.push(
        "nn.bitplane.ns_per_px",
        tally.host(Family::Bitplane) * 1e9 / tally.bitplane_px.max(1) as f64,
        "ns",
        Clock::Host,
    );
    // conv1's share of the window's kernel time: the replay's families
    // partition that time, so the share stays within [0, 1] even when a
    // noisy replay outruns the engine's own window.
    out.push(
        "nn.bitplane.share",
        tally.host(Family::Bitplane) / tally.total_host_s(),
        "ratio",
        Clock::Host,
    );
    out.push(
        "nn.fused.host_ms",
        tally.fused_host_s * 1e3,
        "ms",
        Clock::Host,
    );
    out.push(
        "nn.fused.host_vs_split",
        if tally.split_host_s > 0.0 {
            tally.fused_host_s / tally.split_host_s
        } else {
            0.0
        },
        "ratio",
        Clock::Host,
    );
    for fam in Family::ALL {
        let i = fam as usize;
        out.push(
            &format!("nn.{}.exec_gops", fam.name()),
            tally.exec_ops[i] / 1e9,
            "Gop",
            Clock::Modeled,
        );
        out.push(
            &format!("nn.{}.dram_mb", fam.name()),
            tally.dram_bytes[i] / 1e6,
            "MB",
            Clock::Modeled,
        );
    }
    out.push(
        "engine.window_host_ms",
        window_host_s * 1e3,
        "ms",
        Clock::Host,
    );
    out.push(
        "engine.overhead_ms",
        (window_host_s - tally.total_host_s()) * 1e3,
        "ms",
        Clock::Host,
    );
}

/// Median of each tally field across the traced windows.
pub fn median_tally(tallies: &[Tally]) -> Tally {
    let med = |f: &dyn Fn(&Tally) -> f64| median(&tallies.iter().map(f).collect::<Vec<_>>());
    let mut t = Tally::default();
    for i in 0..5 {
        t.host_s[i] = med(&|x| x.host_s[i]);
        t.exec_ops[i] = med(&|x| x.exec_ops[i]);
        t.dram_bytes[i] = med(&|x| x.dram_bytes[i]);
    }
    t.fused_host_s = med(&|x| x.fused_host_s);
    t.split_host_s = med(&|x| x.split_host_s);
    t.bitplane_px = tallies[0].bitplane_px;
    t
}
