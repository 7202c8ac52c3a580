//! Full-scale timing estimation from an architecture alone.
//!
//! The functional engine needs real weights, which for VGG16-sized
//! checkpoints means hundreds of host megabytes. Timing does not: every
//! kernel's cost profile is a closed form in layer shapes. This module
//! lowers the architecture to the **same [`ExecutionPlan`] the engine
//! stages** — identical kernel routes, domain conversions, and arena
//! assignment — and dispatches that plan's exact profile sequence in
//! estimate-only mode, so Table III can be regenerated at full scale and
//! the reported peak memory is the arena-true footprint a `Session` would
//! hold.
//!
//! The plan carries every cost input the walk needs: a float conv's
//! fused activation epilogue rides on [`StepOp::FConv`] and each layer's
//! staged weight bytes on [`ExecutionPlan::staged_layer_bytes`], so the
//! arch and model fronts lower to the same steps and nothing travels
//! beside the plan. [`estimate_arch`] models one image;
//! [`estimate_arch_with`] adds a batch and the ablation knobs.
//!
//! `Session` runs and `estimate_arch` agree exactly; integration tests pin
//! that equivalence (timing and per-layer breakdown) on small networks
//! covering every kernel route and every float-conv epilogue.

use phonebit_gpusim::queue::CommandQueue;
use phonebit_gpusim::{ExecutorClass, KernelProfile, Phone};
use phonebit_nn::graph::NetworkArch;
use phonebit_nn::kernels::fused::{conv_chain_profile, dense_pair_profile, ChainAbsorb};
use phonebit_nn::kernels::{bgemm, profiles};
use phonebit_nn::workload::WorkloadPolicy;

use crate::plan::{ExecutionPlan, FusedKind, FusedMember, FusionMode, RouteOverrides, StepOp};
use crate::planner::ConvPath;
use crate::stats::{LayerRun, RunReport};

/// Knobs for the design-choice ablations (DESIGN.md): each disables one of
/// the paper's optimizations so its contribution can be measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimateOptions {
    /// Disable layer integration (§V-B): every binary conv runs as
    /// accumulate + separate binarize/pack with an int32 DRAM round trip.
    pub force_unfused: bool,
    /// Use the divergent Eqn (8) binarization instead of the branch-free
    /// Eqn (9) logic (§VI-C).
    pub divergent_binarize: bool,
    /// Disable memory-latency hiding (§VI-A.3): compute and memory phases
    /// serialize.
    pub no_latency_hiding: bool,
    /// Route binary convolutions through the Espresso-style bit-im2col +
    /// binary-GEMM lowering instead of the direct fused kernel (§II).
    pub lowered_gemm: bool,
    /// Inter-layer fusion pass mode (default off — the seed dispatch
    /// sequence). Fused groups amortize `launch_overhead_s` once per group,
    /// not once per original layer.
    pub fusion: FusionMode,
}

/// Estimates a full PhoneBit inference of `arch` on `phone`, without weights
/// or input data.
pub fn estimate_arch(phone: &Phone, arch: &NetworkArch) -> RunReport {
    estimate_arch_with(phone, arch, 1, EstimateOptions::default())
}

/// Estimates one **cold window** of `batch` images with explicit ablation
/// options — the exact dispatch sequence a
/// [`Session::new_batched`](crate::Session::new_batched) engine issues
/// (batch 1 is [`estimate_arch`]'s single image): one batch-covering
/// launch per kernel (launch overhead amortized), batch-aware routes, and
/// the per-run framework overhead charged once for the whole window.
/// Steady-state throughput additionally hides that overhead behind the
/// previous window's compute (double buffering); subtract
/// [`per_run_overhead_s`](phonebit_gpusim::queue::CommandQueue::per_run_overhead_s)
/// for the primed-window time, as `throughput_report` does.
/// [`EstimateOptions::fusion`] is how `fusion_report` models fused vs
/// split windows of the same architecture.
///
/// # Panics
///
/// Panics when `batch == 0`.
pub fn estimate_arch_with(
    phone: &Phone,
    arch: &NetworkArch,
    batch: usize,
    opts: EstimateOptions,
) -> RunReport {
    let mut q = CommandQueue::new(phone.gpu.clone(), ExecutorClass::PhoneBitOpenCl);
    if opts.no_latency_hiding {
        let mut params = *q.params();
        params.overlap = 0.0;
        q = q.with_params(params);
    }
    q.host_delay(q.per_run_overhead_s());

    // One lowering, shared with the engine: routes, conversions and the
    // arena all come from the plan; the ablation knobs force routes at
    // lowering time and the batch folds into every step shape.
    let plan = ExecutionPlan::for_arch_batched_with(
        arch,
        q.device(),
        batch,
        RouteOverrides {
            force_unfused: opts.force_unfused,
            lowered_gemm: opts.lowered_gemm,
            fusion: opts.fusion,
            ..RouteOverrides::default()
        },
    );

    let per_layer = walk_plan(&mut q, &plan, opts);
    RunReport {
        model: arch.name.clone(),
        total_s: q.elapsed_s(),
        energy_j: q.energy_j(),
        peak_bytes: plan.peak_bytes(),
        per_layer,
        output: None,
    }
}

/// The one cost profile a [`StepOp::FusedGroup`] dispatches — built from the
/// same `nn/kernels/fused.rs` builders the engine wrappers use, so the
/// estimator's fused step and the executed fused kernel cannot diverge.
/// `absorbed_convert` distinguishes a pack-absorbing conv chain from one
/// whose input is already packed bits.
pub(crate) fn fused_group_profile(
    kind: FusedKind,
    members: &[FusedMember],
    absorbed_convert: bool,
) -> KernelProfile {
    match kind {
        FusedKind::ConvChain => {
            let conv = &members[0];
            let (geom, k, absorb) = match conv.op {
                StepOp::BConvInput8 { geom, k } => (geom, k, ChainAbsorb::Planes8),
                StepOp::BConv { geom, k } => {
                    let absorb = if absorbed_convert {
                        ChainAbsorb::PackF32
                    } else {
                        ChainAbsorb::None
                    };
                    (geom, k, absorb)
                }
                _ => unreachable!("conv chain starts at a binary conv"),
            };
            let pool = members.get(1).map(|m| {
                let size = match m.op {
                    StepOp::MaxPoolBits { size, .. } => size,
                    _ => unreachable!("conv chain epilogue is a bit pool"),
                };
                (m.out_shape.pixels(), size)
            });
            let in_c = conv.in_shape.c;
            let policy = WorkloadPolicy::for_channels(in_c);
            conv_chain_profile(
                absorb,
                conv.out_shape.pixels(),
                k,
                in_c,
                &geom,
                pool,
                &policy,
            )
        }
        FusedKind::DenseChain => {
            let (d1, d2) = (&members[0], &members[1]);
            let feat = d1.in_shape.h * d1.in_shape.w * d1.in_shape.c;
            let (k1, k2) = match (&d1.op, &d2.op) {
                (StepOp::DenseBin { out_features: a }, StepOp::DenseBin { out_features: b }) => {
                    (*a, *b)
                }
                _ => unreachable!("dense chain is two binary dense layers"),
            };
            dense_pair_profile(k1, k2, feat).batched(d1.in_shape.n)
        }
    }
}

/// Dispatches the exact kernel-profile sequence the engine issues for
/// `plan` onto `q` (estimate-only: no kernel bodies), one step at a time,
/// and returns the per-layer breakdown. Shared by the full-scale
/// estimator and the serving runtime's admission/throughput modeling —
/// attach a contended queue (see
/// [`DeviceClock`](phonebit_gpusim::clock::DeviceClock)) to model a
/// multi-stream device.
pub(crate) fn walk_plan(
    q: &mut CommandQueue,
    plan: &ExecutionPlan,
    opts: EstimateOptions,
) -> Vec<LayerRun> {
    // Dictionary-compressed banks read fewer filter bytes; the estimator
    // subtracts exactly the per-layer saved bytes the plan recorded — the
    // same `discount_reads` clamp the kernels apply — so modeled and
    // executed timelines stay bit-identical under compression.
    let bank_discount = |layer: usize| {
        plan.compress_decision(layer)
            .map_or(0.0, |d| d.saved_bytes() as f64)
    };
    let mut per_layer = Vec::with_capacity(plan.steps.len());
    for (idx, step) in plan.steps.iter().enumerate() {
        let t0 = q.elapsed_s();
        let e0 = q.timeline().len();
        // Paged plans charge the residency schedule's precomputed upload
        // stall at the step boundary — the identical charge `run_window`
        // replays, so modeled and executed paged windows cannot drift.
        if let Some(pg) = &plan.paging {
            let ps = &pg.steps[idx];
            q.note_upload(ps.stall_s, ps.upload_s);
        }
        let in_shape = step.in_shape;
        let out_shape = step.out_shape;
        let in_c = in_shape.c;

        // Explicit domain conversion, exactly where the engine packs or
        // unpacks. A fused group's convert is the absorbed on-chip tile —
        // no separate dispatch.
        if step.convert.is_some() && !matches!(step.op, StepOp::FusedGroup { .. }) {
            match step.op {
                StepOp::BConv { .. } | StepOp::DenseBin { .. } => {
                    q.launch(profiles::pack_input(in_shape.pixels(), in_c), || {});
                }
                _ => {
                    q.launch(profiles::unpack_bits(in_shape.pixels(), in_c), || {});
                }
            }
        }

        match &step.op {
            StepOp::BConvInput8 { geom, k } => {
                q.launch(profiles::bitplane_split(in_shape.pixels(), in_c), || {});
                let policy = WorkloadPolicy::for_channels(in_c);
                q.launch(
                    profiles::bitplane_conv_fused(out_shape.pixels(), *k, in_c, geom, &policy),
                    || {},
                );
            }
            StepOp::BConv { geom, k } => {
                let policy = if opts.force_unfused {
                    WorkloadPolicy::never_integrated()
                } else {
                    WorkloadPolicy::for_channels(in_c)
                };
                let route = step.route.expect("BConv step carries a route");
                let disc = bank_discount(step.index);
                match route.path {
                    ConvPath::LoweredGemm => {
                        // The window-materialization pass reads no
                        // filters; only the GEMM's bank is discounted.
                        if !geom.is_pointwise() {
                            q.launch(
                                bgemm::pack_windows_profile(out_shape.pixels(), in_c, geom),
                                || {},
                            );
                        }
                        q.launch(
                            bgemm::bgemm_profile(out_shape.pixels(), *k, in_c, geom)
                                .discount_reads(disc),
                            || {},
                        );
                    }
                    ConvPath::DirectFused => {
                        let profile = if opts.divergent_binarize {
                            profiles::bconv_fused_divergent(
                                out_shape.pixels(),
                                *k,
                                in_c,
                                geom,
                                &policy,
                            )
                        } else {
                            profiles::bconv_fused(out_shape.pixels(), *k, in_c, geom, &policy)
                        };
                        q.launch(profile.discount_reads(disc), || {});
                    }
                    ConvPath::DirectUnfused => {
                        // The binarize/pack epilogue reads no filters;
                        // only the accumulate half carries the discount.
                        q.launch(
                            profiles::bconv_accum(out_shape.pixels(), *k, in_c, geom, &policy)
                                .discount_reads(disc),
                            || {},
                        );
                        q.launch(profiles::binarize_pack(out_shape.pixels(), *k), || {});
                    }
                }
            }
            StepOp::FConv {
                geom,
                k,
                activation,
            } => {
                // The fused activation epilogue, charged exactly as
                // `fconv_into` charges it.
                let mut p = profiles::fconv(out_shape.pixels(), *k, in_c, geom);
                p.f32_ops += out_shape.len() as f64 * activation.ops_per_element();
                q.launch(p, || {});
            }
            StepOp::MaxPoolBits { size, .. } => {
                q.launch(
                    profiles::maxpool_bits(out_shape.pixels(), out_shape.c, *size),
                    || {},
                );
            }
            StepOp::MaxPoolF32 { size, .. } => {
                q.launch(
                    profiles::maxpool_f32(out_shape.pixels(), out_shape.c, *size),
                    || {},
                );
            }
            StepOp::DenseBin { out_features } => {
                let in_features = in_shape.h * in_shape.w * in_shape.c;
                q.launch(
                    profiles::dense_bin(*out_features, in_features).batched(in_shape.n),
                    || {},
                );
            }
            StepOp::DenseFloat { out_features } => {
                // One dispatch covers every image in the window — the
                // engine's batched matvec entry point.
                let in_features = in_shape.h * in_shape.w * in_shape.c;
                q.launch(
                    profiles::dense_float(*out_features, in_features).batched(in_shape.n),
                    || {},
                );
            }
            StepOp::Softmax => {
                let features = in_shape.h * in_shape.w * in_shape.c;
                q.launch(profiles::softmax(features).batched(in_shape.n), || {});
            }
            StepOp::FusedGroup { kind, members } => {
                // One launch for the whole chain — `launch_overhead_s` is
                // paid once per group, not once per member layer. The
                // leading conv's bank discount rides along (chains start
                // at the conv, whose original layer index keys the
                // compression ledger).
                let disc = members.first().map_or(0.0, |m| bank_discount(m.layer));
                q.launch(
                    fused_group_profile(*kind, members, step.convert.is_some())
                        .discount_reads(disc),
                    || {},
                );
            }
        }
        let energy_j: f64 = q.timeline()[e0..].iter().map(|ev| ev.stats.energy_j).sum();
        per_layer.push(LayerRun {
            name: step.name.clone(),
            output_shape: out_shape,
            time_s: q.elapsed_s() - t0,
            energy_j,
        });
    }
    per_layer
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_nn::act::Activation;
    use phonebit_nn::graph::LayerPrecision;
    use phonebit_tensor::shape::Shape4;

    fn arch() -> NetworkArch {
        NetworkArch::new("est", Shape4::new(1, 16, 16, 3))
            .conv(
                "conv1",
                16,
                3,
                1,
                1,
                LayerPrecision::BinaryInput8,
                Activation::Linear,
            )
            .maxpool("pool1", 2, 2)
            .conv(
                "conv2",
                512,
                3,
                1,
                1,
                LayerPrecision::Binary,
                Activation::Linear,
            )
            .conv(
                "conv3",
                512,
                3,
                1,
                1,
                LayerPrecision::Binary,
                Activation::Linear,
            )
            .conv(
                "conv4",
                10,
                1,
                1,
                0,
                LayerPrecision::Float,
                Activation::Linear,
            )
            .softmax()
    }

    #[test]
    fn estimate_covers_every_layer() {
        let r = estimate_arch(&Phone::xiaomi_9(), &arch());
        assert_eq!(r.per_layer.len(), 6);
        assert!(r.total_s > 0.0);
        assert!(r.per_layer.iter().all(|l| l.time_s > 0.0));
    }

    #[test]
    fn large_channel_layer_uses_unfused_path() {
        // conv3 reads 512 channels (> 256): its route avoids the fused
        // kernel, so the layer still shows positive modeled time through
        // whichever fallback the planner picked.
        let r = estimate_arch(&Phone::xiaomi_9(), &arch());
        let conv3 = r.layer_time_s("conv3").unwrap();
        assert!(conv3 > 0.0);
    }

    #[test]
    fn newer_phone_is_faster() {
        let a = arch();
        let t5 = estimate_arch(&Phone::xiaomi_5(), &a).total_s;
        let t9 = estimate_arch(&Phone::xiaomi_9(), &a).total_s;
        assert!(t9 < t5);
    }

    #[test]
    fn estimate_is_deterministic() {
        let a = arch();
        let r1 = estimate_arch(&Phone::xiaomi_9(), &a);
        let r2 = estimate_arch(&Phone::xiaomi_9(), &a);
        assert_eq!(r1.total_s, r2.total_s);
        assert_eq!(r1.energy_j, r2.energy_j);
    }

    #[test]
    fn batched_estimate_amortizes_overhead_into_throughput() {
        let a = arch();
        let phone = Phone::xiaomi_9();
        let single = estimate_arch(&phone, &a);
        for batch in [2usize, 4, 8] {
            let b = estimate_arch_with(&phone, &a, batch, EstimateOptions::default());
            // Same dispatch count, batch-times the work, one overhead.
            assert!(
                b.total_s < batch as f64 * single.total_s,
                "batch {batch}: {} !< {}",
                b.total_s,
                batch as f64 * single.total_s
            );
            // Throughput (cold) grows with the window.
            assert!(batch as f64 / b.total_s > 1.0 / single.total_s);
            // Peak memory reports the double-banked batched arena.
            let plan = ExecutionPlan::for_arch_batched(&a, &phone.gpu, batch);
            assert_eq!(b.peak_bytes, plan.peak_bytes());
            assert_eq!(plan.banks, 2);
        }
        assert_eq!(
            estimate_arch_with(&phone, &a, 1, EstimateOptions::default()).total_s,
            single.total_s,
            "batch 1 is the single-image estimate"
        );
    }

    #[test]
    fn peak_bytes_is_arena_true() {
        // The estimate's peak is weights + arena of the same plan the
        // engine would stage, for the same device.
        let a = arch();
        let phone = Phone::xiaomi_9();
        let r = estimate_arch(&phone, &a);
        let plan = ExecutionPlan::for_arch(&a, &phone.gpu);
        assert_eq!(r.peak_bytes, plan.peak_bytes());
    }
}
