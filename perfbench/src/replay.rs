//! Per-layer host attribution for the traced run.
//!
//! The engine's window is one opaque call, so the benchmark times layers
//! from outside: it walks a staged plan's steps and calls each step's
//! public `nn::kernels` entry point on that step's shapes and weights,
//! with seeded inputs of the step's input shape, timing every kernel call
//! under its own span. Each call's gpusim launch statistics give the
//! step's modeled operation count and DRAM bytes. Fused chains are also
//! replayed split, member by member, for `nn.fused.host_vs_split`.

use std::time::Instant;

use phonebit_core::{ConvPath, FusedKind, PbitLayer, StagedModel, StepOp, ValueKind};
use phonebit_gpusim::{CommandQueue, ExecutorClass};
use phonebit_nn::kernels::{self, bconv, bgemm, bitplane, dense, fconv, fused, pool};
use phonebit_tensor::bitplane::BitPlanes;
use phonebit_tensor::bits::{BitTensor, PackedFilters};
use phonebit_tensor::pack::pack_f32;
use phonebit_tensor::{FilterDict, Layout, Shape4, Tensor};

use crate::trace::{SpanId, Tracer};
use crate::util::SplitMix;

/// Kernel families the per-layer metrics are keyed by (`nn.<family>.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// First-layer bit-plane convolution (split + Eqn 2), fused or not.
    Bitplane,
    /// Direct-tiled binary convolution (incl. its fused conv+pool chains).
    Tiled,
    /// Lowered bit-GEMM binary convolution.
    Bgemm,
    /// Full-precision convolution.
    Fconv,
    /// Everything else: pack/unpack/flatten, pools, dense, softmax.
    Other,
}

impl Family {
    pub const ALL: [Family; 5] = [
        Family::Bitplane,
        Family::Tiled,
        Family::Bgemm,
        Family::Fconv,
        Family::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Bitplane => "bitplane",
            Family::Tiled => "tiled",
            Family::Bgemm => "bgemm",
            Family::Fconv => "fconv",
            Family::Other => "other",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Per-family totals of one replayed window.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub host_s: [f64; 5],
    pub exec_ops: [f64; 5],
    pub dram_bytes: [f64; 5],
    /// Host time of the fused-group steps (a cross-cut of the families).
    pub fused_host_s: f64,
    /// Host time of the same fused groups' members run split.
    pub split_host_s: f64,
    /// Output pixels the bit-plane kernels produced.
    pub bitplane_px: usize,
}

impl Tally {
    pub fn host(&self, f: Family) -> f64 {
        self.host_s[f.idx()]
    }

    pub fn total_host_s(&self) -> f64 {
        self.host_s.iter().sum()
    }

    /// Adds `other` scaled by `w` (the fleet's per-request mix).
    pub fn add_scaled(&mut self, other: &Tally, w: f64) {
        for i in 0..5 {
            self.host_s[i] += w * other.host_s[i];
            self.exec_ops[i] += w * other.exec_ops[i];
            self.dram_bytes[i] += w * other.dram_bytes[i];
        }
        self.fused_host_s += w * other.fused_host_s;
        self.split_host_s += w * other.split_host_s;
        self.bitplane_px += (w * other.bitplane_px as f64).round() as usize;
    }
}

/// A host buffer of one value kind.
enum Buf {
    Bytes(Tensor<u8>),
    Bits(BitTensor<u64>),
    Floats(Tensor<f32>),
    Planes(BitPlanes<u64>),
}

impl Buf {
    fn zeros(kind: ValueKind, shape: Shape4) -> Self {
        match kind {
            ValueKind::Bytes => Buf::Bytes(Tensor::zeros(shape, Layout::Nhwc)),
            ValueKind::Bits => Buf::Bits(BitTensor::zeros(shape)),
            ValueKind::Floats => Buf::Floats(Tensor::zeros(shape, Layout::Nhwc)),
            ValueKind::Accum32 => panic!("replay: accumulators are allocated per call"),
            ValueKind::Planes8 => Buf::Planes(BitPlanes::empty(shape)),
        }
    }

    /// Seeded input of one kind and shape (bits are packed from signed
    /// floats, so padding bits stay clean).
    fn random(kind: ValueKind, shape: Shape4, rng: &mut SplitMix) -> Self {
        match kind {
            ValueKind::Bytes => Buf::Bytes(Tensor::from_fn(shape, |_, _, _, _| {
                (rng.next_u64() & 0xff) as u8
            })),
            ValueKind::Bits => Buf::Bits(pack_f32(&Tensor::from_fn(shape, |_, _, _, _| {
                rng.signed_unit()
            }))),
            ValueKind::Floats => {
                Buf::Floats(Tensor::from_fn(shape, |_, _, _, _| rng.signed_unit()))
            }
            other => panic!("replay: a step never consumes {other:?}"),
        }
    }

    fn bytes(&self) -> &Tensor<u8> {
        match self {
            Buf::Bytes(t) => t,
            _ => panic!("replay: expected 8-bit data"),
        }
    }
    fn bits(&self) -> &BitTensor<u64> {
        match self {
            Buf::Bits(t) => t,
            _ => panic!("replay: expected bits"),
        }
    }
    fn bits_mut(&mut self) -> &mut BitTensor<u64> {
        match self {
            Buf::Bits(t) => t,
            _ => panic!("replay: expected bits"),
        }
    }
    fn floats(&self) -> &Tensor<f32> {
        match self {
            Buf::Floats(t) => t,
            _ => panic!("replay: expected floats"),
        }
    }
    fn floats_mut(&mut self) -> &mut Tensor<f32> {
        match self {
            Buf::Floats(t) => t,
            _ => panic!("replay: expected floats"),
        }
    }
    fn planes_mut(&mut self) -> &mut BitPlanes<u64> {
        match self {
            Buf::Planes(p) => p,
            _ => panic!("replay: expected bit-planes"),
        }
    }
}

/// The staged form of a conv's filter bank, rebuilt from public pieces the
/// way staging builds it (raw, pre-flattened, or dictionary).
enum Bank {
    Flat(PackedFilters<u64>),
    FlatDict(FilterDict<u64>),
    Dict(FilterDict<u64>),
}

/// Times kernel calls into a [`Tally`], one span per call.
struct Calls<'t> {
    tracer: &'t mut Tracer,
    parent: SpanId,
    req: u64,
    q: CommandQueue,
    tally: Tally,
}

impl Calls<'_> {
    /// Runs one kernel call, charging its host time and launch statistics
    /// to `fam`. Returns the host seconds.
    fn call(&mut self, fam: Family, name: &str, f: impl FnOnce(&mut CommandQueue)) -> f64 {
        let span = self.tracer.begin(
            &format!("nn.{}:{name}", fam.name()),
            self.parent,
            Some(self.req),
        );
        let e0 = self.q.timeline().len();
        let t = Instant::now();
        f(&mut self.q);
        let dt = t.elapsed().as_secs_f64();
        self.tracer.end(span);
        let i = fam.idx();
        self.tally.host_s[i] += dt;
        for ev in &self.q.timeline()[e0..] {
            self.tally.exec_ops[i] += ev.stats.executed_ops;
            self.tally.dram_bytes[i] += ev.stats.dram_bytes;
        }
        dt
    }
}

/// Replays a staged model's plan step by step.
pub struct Replayer<'m> {
    staged: &'m StagedModel,
    banks: Vec<Option<Bank>>,
}

impl<'m> Replayer<'m> {
    /// Rebuilds the staged filter banks the plan's routes read.
    pub fn new(staged: &'m StagedModel) -> Self {
        let plan = staged.plan();
        let layers = &staged.model().layers;
        let mut route_of: Vec<Option<ConvPath>> = vec![None; layers.len()];
        for step in &plan.steps {
            match &step.op {
                StepOp::FusedGroup { members, .. } => {
                    for m in members {
                        route_of[m.layer] = m.route.map(|r| r.path);
                    }
                }
                _ => route_of[step.index] = step.route.map(|r| r.path),
            }
        }
        let banks = layers
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let PbitLayer::BConv { filters, .. } = layer else {
                    return None;
                };
                let compressed = plan.compress_decision(i).is_some_and(|d| d.compressed);
                match (route_of[i]?, compressed) {
                    (ConvPath::LoweredGemm, false) => {
                        Some(Bank::Flat(bgemm::flatten_filters(filters)))
                    }
                    (ConvPath::LoweredGemm, true) => Some(Bank::FlatDict(FilterDict::build(
                        &bgemm::flatten_filters(filters),
                    ))),
                    (_, true) => Some(Bank::Dict(FilterDict::build(filters))),
                    (_, false) => None,
                }
            })
            .collect();
        Self { staged, banks }
    }

    /// Replays every step of one window with seeded inputs. Spans nest
    /// under `parent` and carry request id `req`.
    pub fn replay(&self, seed: u64, tracer: &mut Tracer, parent: SpanId, req: u64) -> Tally {
        let plan = self.staged.plan();
        let mut rng = SplitMix::new(seed);
        let mut calls = Calls {
            tracer,
            parent,
            req,
            q: CommandQueue::new(self.staged.device().clone(), ExecutorClass::PhoneBitOpenCl),
            tally: Tally::default(),
        };
        for step in &plan.steps {
            let input_val = &plan.values[step.input];
            let input = Buf::random(input_val.kind, input_val.shape, &mut rng);
            let out_kind = plan.values[step.output].kind;
            let mut out = Buf::zeros(out_kind, step.out_shape);
            let step_span = calls
                .tracer
                .begin(&format!("step:{}", step.name), parent, Some(req));
            let outer = calls.parent;
            calls.parent = step_span;
            if let StepOp::FusedGroup { kind, members } = &step.op {
                let value = |v: Option<usize>| {
                    v.map(|v| Buf::zeros(plan.values[v].kind, plan.values[v].shape))
                };
                let (mut cvt, mut scr) = (value(step.convert), value(step.scratch));
                let fused_s = self.fused_group(
                    &mut calls,
                    *kind,
                    members,
                    &input,
                    cvt.as_mut(),
                    scr.as_mut(),
                    &mut out,
                );
                calls.tally.fused_host_s += fused_s;
                let split_span = calls.tracer.begin("split", step_span, Some(req));
                calls.parent = split_span;
                // The split twin is timed for the ratio only: its host
                // time is moved out of the family totals again.
                let before = calls.tally.clone();
                let mut x = input;
                for m in members.iter() {
                    let kind = match &self.staged.model().layers[m.layer] {
                        PbitLayer::FConv { .. }
                        | PbitLayer::MaxPoolF32 { .. }
                        | PbitLayer::DenseFloat { .. }
                        | PbitLayer::Softmax => ValueKind::Floats,
                        _ => ValueKind::Bits,
                    };
                    let mut y = Buf::zeros(kind, m.out_shape);
                    self.layer(&mut calls, m.layer, m.route.map(|r| r.path), &x, &mut y);
                    x = y;
                }
                calls.tally.split_host_s += calls.tally.total_host_s() - before.total_host_s();
                let split = std::mem::take(&mut calls.tally.split_host_s);
                calls.tally = Tally {
                    split_host_s: split,
                    ..before
                };
                calls.tracer.end(split_span);
            } else {
                self.layer(
                    &mut calls,
                    step.index,
                    step.route.map(|r| r.path),
                    &input,
                    &mut out,
                );
            }
            calls.parent = outer;
            calls.tracer.end(step_span);
        }
        calls.tally
    }

    /// One unfused layer: domain convert if the input needs one, then the
    /// layer's kernel(s) on its route.
    fn layer(
        &self,
        calls: &mut Calls<'_>,
        index: usize,
        path: Option<ConvPath>,
        input: &Buf,
        out: &mut Buf,
    ) {
        let layer = &self.staged.model().layers[index];
        let s = match input {
            Buf::Bytes(t) => t.shape(),
            Buf::Bits(t) => t.shape(),
            Buf::Floats(t) => t.shape(),
            _ => panic!("replay: layers consume activations"),
        };
        let wants_floats = matches!(
            layer,
            PbitLayer::FConv { .. }
                | PbitLayer::MaxPoolF32 { .. }
                | PbitLayer::DenseFloat { .. }
                | PbitLayer::Softmax
        );
        let converted = match (input, wants_floats) {
            (Buf::Floats(t), false) if !matches!(layer, PbitLayer::BConvInput8 { .. }) => {
                let mut bits = BitTensor::zeros(s);
                calls.call(Family::Other, "pack_input", |q| {
                    kernels::pack_input_into(q, t, &mut bits)
                });
                Some(Buf::Bits(bits))
            }
            (Buf::Bits(b), true) => {
                let mut floats = Tensor::zeros(s, Layout::Nhwc);
                calls.call(Family::Other, "unpack_bits", |q| {
                    kernels::unpack_bits_into(q, b, &mut floats)
                });
                Some(Buf::Floats(floats))
            }
            _ => None,
        };
        let x = converted.as_ref().unwrap_or(input);
        match layer {
            PbitLayer::BConvInput8 {
                geom,
                filters,
                fused,
                ..
            } => {
                let mut planes = BitPlanes::<u64>::empty(s);
                let o = out.bits_mut();
                calls.call(Family::Bitplane, "bitplane_split", |q| {
                    bitplane::bitplane_split_into(q, x.bytes(), &mut planes)
                });
                calls.call(Family::Bitplane, "bitplane_conv", |q| {
                    bitplane::bitplane_conv_fused_into(q, &planes, filters, fused, geom, o)
                });
                let os = o.shape();
                calls.tally.bitplane_px += os.n * os.h * os.w;
            }
            PbitLayer::BConv {
                geom,
                filters,
                fused,
                ..
            } => {
                let bits_in = x.bits();
                let (oh, ow) = geom.output_hw(s.h, s.w);
                let o = out.bits_mut();
                let path = path.expect("replay: a binary conv carries a route");
                let bank = self.banks[index].as_ref();
                match path {
                    ConvPath::LoweredGemm => {
                        let mut windows = (!geom.is_pointwise())
                            .then(|| BitTensor::zeros(Shape4::new(s.n, oh, ow, geom.taps() * s.c)));
                        calls.call(Family::Bgemm, "bconv_lowered", |q| match bank {
                            Some(Bank::Flat(flat)) => bgemm::bconv_lowered_with_into(
                                q,
                                bits_in,
                                filters,
                                flat,
                                fused,
                                geom,
                                windows.as_mut(),
                                o,
                            ),
                            Some(Bank::FlatDict(flat)) => bgemm::bconv_lowered_with_into(
                                q,
                                bits_in,
                                filters,
                                flat,
                                fused,
                                geom,
                                windows.as_mut(),
                                o,
                            ),
                            _ => panic!("replay: a GEMM route stages a flat bank"),
                        });
                    }
                    ConvPath::DirectFused => {
                        calls.call(Family::Tiled, "bconv_fused", |q| match bank {
                            Some(Bank::Dict(d)) => {
                                bconv::bconv_fused_into(q, bits_in, d, fused, geom, o)
                            }
                            _ => bconv::bconv_fused_into(q, bits_in, filters, fused, geom, o),
                        });
                    }
                    ConvPath::DirectUnfused => {
                        let mut acc = Tensor::<i32>::zeros(
                            Shape4::new(s.n, oh, ow, filters.shape().k),
                            Layout::Nhwc,
                        );
                        calls.call(Family::Tiled, "bconv_accum", |q| match bank {
                            Some(Bank::Dict(d)) => {
                                bconv::bconv_accum_into(q, bits_in, d, geom, &mut acc)
                            }
                            _ => bconv::bconv_accum_into(q, bits_in, filters, geom, &mut acc),
                        });
                        calls.call(Family::Tiled, "binarize_pack", |q| {
                            bconv::binarize_pack_into(q, &acc, fused, o)
                        });
                    }
                }
            }
            PbitLayer::FConv {
                geom,
                filters,
                bias,
                activation,
                ..
            } => {
                let o = out.floats_mut();
                calls.call(Family::Fconv, "fconv", |q| {
                    fconv::fconv_into(q, x.floats(), filters, bias, *activation, geom, o)
                });
            }
            PbitLayer::MaxPoolBits { geom, .. } => {
                let o = out.bits_mut();
                calls.call(Family::Other, "maxpool_bits", |q| {
                    pool::maxpool_bits_into(q, x.bits(), geom, o)
                });
            }
            PbitLayer::MaxPoolF32 { geom, .. } => {
                let o = out.floats_mut();
                calls.call(Family::Other, "maxpool_f32", |q| {
                    pool::maxpool_f32_into(q, x.floats(), geom, o)
                });
            }
            PbitLayer::DenseBin { weights, fused, .. } => {
                let mut flat = BitTensor::zeros(Shape4::new(s.n, 1, 1, s.h * s.w * s.c));
                let o = out.bits_mut();
                calls.call(Family::Other, "flatten_bits", |_| {
                    dense::flatten_bits_into(x.bits(), &mut flat)
                });
                calls.call(Family::Other, "dense_bin", |q| {
                    dense::dense_bin_into(q, &flat, weights, fused, o)
                });
            }
            PbitLayer::DenseFloat {
                weights,
                bias,
                activation,
                ..
            } => {
                let o = out.floats_mut();
                calls.call(Family::Other, "dense_float", |q| {
                    dense::dense_float_batch_into(q, x.floats(), weights, bias, *activation, o)
                });
            }
            PbitLayer::Softmax => {
                let o = out.floats_mut();
                calls.call(Family::Other, "softmax", |q| {
                    kernels::softmax_batch_into(q, x.floats(), o)
                });
            }
        }
    }

    /// One fused group as one dispatch, as the engine runs it. Returns the
    /// group's host seconds.
    #[allow(clippy::too_many_arguments)]
    fn fused_group(
        &self,
        calls: &mut Calls<'_>,
        kind: FusedKind,
        members: &[phonebit_core::FusedMember],
        input: &Buf,
        cvt: Option<&mut Buf>,
        scr: Option<&mut Buf>,
        out: &mut Buf,
    ) -> f64 {
        let layers = &self.staged.model().layers;
        let o = out.bits_mut();
        match kind {
            FusedKind::ConvChain => {
                let pool_geom = members.get(1).map(|m| match &layers[m.layer] {
                    PbitLayer::MaxPoolBits { geom, .. } => geom,
                    _ => panic!("replay: a conv chain's epilogue is a bit-domain pool"),
                });
                let mut no_ring = BitTensor::<u64>::zeros(Shape4::new(0, 0, 0, 0));
                let ring = match scr {
                    Some(s) => s.bits_mut(),
                    None => &mut no_ring,
                };
                match &layers[members[0].layer] {
                    PbitLayer::BConvInput8 {
                        geom,
                        filters,
                        fused: bn,
                        ..
                    } => {
                        let planes = cvt.expect("replay: bit-plane tile planned").planes_mut();
                        let dt = calls.call(Family::Bitplane, "in8_bconv_chain", |q| {
                            fused::in8_bconv_chain_into(
                                q,
                                input.bytes(),
                                filters,
                                bn,
                                geom,
                                pool_geom,
                                planes,
                                ring,
                                o,
                            )
                        });
                        let cs = members[0].out_shape;
                        calls.tally.bitplane_px += cs.n * cs.h * cs.w;
                        dt
                    }
                    PbitLayer::BConv {
                        geom,
                        filters,
                        fused: bn,
                        ..
                    } => {
                        let dict = match self.banks[members[0].layer].as_ref() {
                            Some(Bank::Dict(d)) => Some(d),
                            _ => None,
                        };
                        calls.call(Family::Tiled, "bconv_chain", |q| match (cvt, dict) {
                            (Some(pack), Some(d)) => fused::pack_bconv_chain_into(
                                q,
                                input.floats(),
                                d,
                                bn,
                                geom,
                                pool_geom,
                                pack.bits_mut(),
                                ring,
                                o,
                            ),
                            (Some(pack), None) => fused::pack_bconv_chain_into(
                                q,
                                input.floats(),
                                filters,
                                bn,
                                geom,
                                pool_geom,
                                pack.bits_mut(),
                                ring,
                                o,
                            ),
                            (None, Some(d)) => fused::bconv_pool_chain_into(
                                q,
                                input.bits(),
                                d,
                                bn,
                                geom,
                                pool_geom.expect("replay: unconverted chain carries a pool"),
                                ring,
                                o,
                            ),
                            (None, None) => fused::bconv_pool_chain_into(
                                q,
                                input.bits(),
                                filters,
                                bn,
                                geom,
                                pool_geom.expect("replay: unconverted chain carries a pool"),
                                ring,
                                o,
                            ),
                        })
                    }
                    _ => panic!("replay: conv chains start at a binary convolution"),
                }
            }
            FusedKind::DenseChain => {
                let (
                    PbitLayer::DenseBin {
                        weights: w1,
                        fused: f1,
                        ..
                    },
                    PbitLayer::DenseBin {
                        weights: w2,
                        fused: f2,
                        ..
                    },
                ) = (&layers[members[0].layer], &layers[members[1].layer])
                else {
                    panic!("replay: dense chains pair two binary dense layers")
                };
                let flat = cvt.expect("replay: flatten tile planned");
                let mid = scr.expect("replay: mid-row tile planned");
                calls.call(Family::Other, "dense_pair", |q| {
                    fused::dense_pair_into(
                        q,
                        input.bits(),
                        w1,
                        f1,
                        w2,
                        f2,
                        flat.bits_mut(),
                        mid.bits_mut(),
                        o,
                    )
                })
            }
        }
    }
}
