//! The correctness gate's reference: a layer-by-layer walk of a deployed
//! model that shares no code with the engine's timed path. The first
//! layer is a naive Eqn (2) loop written here, binary convolutions use the
//! untiled seed reference `compute_bconv_fused_reference`, and the rest use
//! the kernels' pure `compute_*` bodies — no plan, no routes, no fusion,
//! no dictionary, no paging, no batching.

use phonebit_core::{ActivationData, PbitLayer, PbitModel};
use phonebit_nn::fuse::FusedBn;
use phonebit_nn::kernels::{bconv, dense, fconv, pool};
use phonebit_tensor::bits::{BitTensor, PackedFilters};
use phonebit_tensor::pack::{pack_f32, unpack_f32};
use phonebit_tensor::{ConvGeometry, Layout, Shape4, Tensor};

/// Naive first-layer convolution: `s = Σ x · sign(w)` over in-bounds taps
/// (8-bit pixels times ±1 weights, exactly what the bit-plane sum
/// `Σ_b 2^b <I_b · W>` computes), then the fused threshold decides the bit.
pub fn naive_conv1(
    input: &Tensor<u8>,
    filters: &PackedFilters<u64>,
    fused: &FusedBn,
    geom: &ConvGeometry,
) -> BitTensor<u64> {
    let s = input.shape();
    let fs = filters.shape();
    let (oh, ow) = geom.output_hw(s.h, s.w);
    let mut out = BitTensor::<u64>::zeros(Shape4::new(s.n, oh, ow, fs.k));
    for n in 0..s.n {
        for oy in 0..oh {
            for ox in 0..ow {
                for k in 0..fs.k {
                    let mut acc = 0i32;
                    for i in 0..geom.kh {
                        let iy = (oy * geom.stride_h + i) as isize - geom.pad_h as isize;
                        if iy < 0 || iy as usize >= s.h {
                            continue;
                        }
                        for j in 0..geom.kw {
                            let ix = (ox * geom.stride_w + j) as isize - geom.pad_w as isize;
                            if ix < 0 || ix as usize >= s.w {
                                continue;
                            }
                            for c in 0..s.c {
                                let x = i32::from(input.at(n, iy as usize, ix as usize, c));
                                acc += if filters.get_bit(k, i, j, c) { x } else { -x };
                            }
                        }
                    }
                    if fused.decide_logic(k, acc as f32) {
                        out.set_bit(n, oy, ox, k, true);
                    }
                }
            }
        }
    }
    out
}

fn to_bits(a: ActivationData) -> BitTensor<u64> {
    match a {
        ActivationData::Bits(b) => b,
        ActivationData::Floats(f) => pack_f32(&f),
        ActivationData::Bytes(_) => panic!("reference: 8-bit data reaches only the first layer"),
    }
}

fn to_floats(a: ActivationData) -> Tensor<f32> {
    match a {
        ActivationData::Floats(f) => f,
        ActivationData::Bits(b) => unpack_f32(&b),
        ActivationData::Bytes(_) => panic!("reference: 8-bit data reaches only the first layer"),
    }
}

/// Runs one image through `model` on the reference path.
pub fn reference_output(model: &PbitModel, image: &Tensor<u8>) -> ActivationData {
    let mut act = ActivationData::Bytes(image.clone());
    for layer in &model.layers {
        act = match layer {
            PbitLayer::BConvInput8 {
                geom,
                filters,
                fused,
                ..
            } => {
                let ActivationData::Bytes(img) = &act else {
                    panic!("reference: the 8-bit layer must come first");
                };
                ActivationData::Bits(naive_conv1(img, filters, fused, geom))
            }
            PbitLayer::BConv {
                geom,
                filters,
                fused,
                ..
            } => {
                let x = to_bits(act);
                let s = x.shape();
                let (oh, ow) = geom.output_hw(s.h, s.w);
                let mut out = BitTensor::zeros(Shape4::new(s.n, oh, ow, filters.shape().k));
                bconv::compute_bconv_fused_reference(&x, filters, fused, geom, &mut out);
                ActivationData::Bits(out)
            }
            PbitLayer::FConv {
                geom,
                filters,
                bias,
                activation,
                ..
            } => {
                let x = to_floats(act);
                let s = x.shape();
                let (oh, ow) = geom.output_hw(s.h, s.w);
                let shape = Shape4::new(s.n, oh, ow, filters.shape().k);
                let mut out = Tensor::zeros(shape, Layout::Nhwc);
                fconv::compute_fconv(&x, filters, bias, *activation, geom, &mut out);
                ActivationData::Floats(out)
            }
            PbitLayer::MaxPoolBits { geom, .. } => {
                let x = to_bits(act);
                let s = x.shape();
                let (oh, ow) = geom.output_hw(s.h, s.w);
                let mut out = BitTensor::zeros(Shape4::new(s.n, oh, ow, s.c));
                pool::compute_maxpool_bits(&x, geom, &mut out);
                ActivationData::Bits(out)
            }
            PbitLayer::MaxPoolF32 { geom, .. } => {
                let x = to_floats(act);
                let s = x.shape();
                let (oh, ow) = geom.output_hw(s.h, s.w);
                let mut out = Tensor::zeros(Shape4::new(s.n, oh, ow, s.c), Layout::Nhwc);
                pool::compute_maxpool_f32(&x, geom, &mut out);
                ActivationData::Floats(out)
            }
            PbitLayer::DenseBin { weights, fused, .. } => {
                let flat = dense::flatten_bits(&to_bits(act));
                let n = flat.shape().n;
                let mut out = BitTensor::zeros(Shape4::new(n, 1, 1, weights.shape().k));
                dense::compute_dense_bin(&flat, weights, fused, &mut out);
                ActivationData::Bits(out)
            }
            PbitLayer::DenseFloat {
                weights,
                bias,
                activation,
                ..
            } => {
                let x = to_floats(act);
                let mut out = Tensor::zeros(Shape4::new(1, 1, 1, bias.len()), Layout::Nhwc);
                dense::compute_dense_float(
                    x.as_slice(),
                    weights,
                    bias,
                    *activation,
                    out.as_mut_slice(),
                );
                ActivationData::Floats(out)
            }
            PbitLayer::Softmax => {
                let mut x = to_floats(act);
                phonebit_nn::act::softmax(x.as_mut_slice());
                ActivationData::Floats(x)
            }
        };
    }
    act
}

/// Bit-exact equality of two activations: same domain, same shape, same
/// words (floats compared by their bit patterns).
pub fn same_output(a: &ActivationData, b: &ActivationData) -> bool {
    match (a, b) {
        (ActivationData::Bits(x), ActivationData::Bits(y)) => x == y,
        (ActivationData::Floats(x), ActivationData::Floats(y)) => {
            x.shape() == y.shape()
                && x.as_slice().len() == y.as_slice().len()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (ActivationData::Bytes(x), ActivationData::Bytes(y)) => {
            x.shape() == y.shape() && x.as_slice() == y.as_slice()
        }
        _ => false,
    }
}
