//! Exhaustive equality coverage for the gathered first-layer (bit-plane)
//! convolution.
//!
//! Every combination of packing width (`u8`/`u16`/`u32`/`u64`), channel
//! count (dense windows straddling word boundaries, pixels spanning several
//! words) and geometry (3×3, AlexNet's 11×11/s4, an asymmetric 1×3, and a
//! pad large enough that some windows are pure padding) is checked
//! bit-exactly against the direct integer `u8 × ±1` convolution:
//!
//! 1. `bitplane_conv_accum` == the integer accumulators;
//! 2. the fused kernel == the integer accumulators thresholded, and == the
//!    per-tap reference oracle;
//! 3. the fused in8 conv→pool chain == the thresholded reference pooled by
//!    the split max-pool kernel;
//! 4. `tail_is_clean()` on every packed output.

use phonebit_gpusim::{CommandQueue, DeviceProfile, ExecutorClass};
use phonebit_nn::fuse::FusedBn;
use phonebit_nn::kernels::bitplane::{
    bitplane_conv_accum, bitplane_conv_fused, bitplane_split, compute_bitplane_conv_fused_reference,
};
use phonebit_nn::kernels::fused::in8_bconv_chain_into;
use phonebit_nn::kernels::pool::{compute_maxpool_bits, PoolGeometry};
use phonebit_tensor::bitplane::BitPlanes;
use phonebit_tensor::bits::{BitTensor, BitWord};
use phonebit_tensor::pack::pack_filters;
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Shape4};
use phonebit_tensor::tensor::{Filters, Tensor};

fn queue() -> CommandQueue {
    CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl)
}

fn image(shape: Shape4, seed: usize) -> Tensor<u8> {
    Tensor::from_fn(shape, |n, h, w, c| {
        ((n * 157 + h * 83 + w * 19 + c * 7 + seed * 13) % 256) as u8
    })
}

fn pm1_filters(shape: FilterShape, seed: usize) -> Filters {
    Filters::from_fn(shape, |k, i, j, c| {
        if (k * 11 + i * 3 + j * 5 + c * 17 + seed).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        }
    })
}

/// Integer reference: direct `u8 × ±1` convolution with zero padding.
fn reference_accum(img: &Tensor<u8>, filters: &Filters, geom: &ConvGeometry) -> Tensor<i32> {
    let s = img.shape();
    let fs = filters.shape();
    let (oh, ow) = geom.output_hw(s.h, s.w);
    Tensor::from_fn(Shape4::new(s.n, oh, ow, fs.k), |n, oy, ox, k| {
        let mut acc = 0i32;
        for i in 0..fs.kh {
            for j in 0..fs.kw {
                let iy = (oy * geom.stride_h + i) as isize - geom.pad_h as isize;
                let ix = (ox * geom.stride_w + j) as isize - geom.pad_w as isize;
                if iy >= 0 && (iy as usize) < s.h && ix >= 0 && (ix as usize) < s.w {
                    for c in 0..fs.c {
                        acc += img.at(n, iy as usize, ix as usize, c) as i32
                            * filters.at(k, i, j, c) as i32;
                    }
                }
            }
        }
        acc
    })
}

/// Thresholds spread around the accumulators' range, both BN signs, with
/// integer thresholds so the `x1 == ξ` branch of Eqn 9 is exercised.
fn fused_for(k: usize, spread: f32) -> FusedBn {
    FusedBn {
        xi: (0..k)
            .map(|i| ((i as f32 * 0.37).sin() * spread).round())
            .collect(),
        gamma_pos: (0..k).map(|i| i % 3 != 0).collect(),
    }
}

fn threshold<W: BitWord>(accum: &Tensor<i32>, fused: &FusedBn) -> BitTensor<W> {
    let s = accum.shape();
    let mut bits = BitTensor::<W>::zeros(s);
    for n in 0..s.n {
        for h in 0..s.h {
            for w in 0..s.w {
                for c in 0..s.c {
                    if fused.decide_logic(c, accum.at(n, h, w, c) as f32) {
                        bits.set_bit(n, h, w, c, true);
                    }
                }
            }
        }
    }
    bits
}

/// `(image shape, geometry)` grid: every image has odd H and W and n = 2.
fn cases(c: usize) -> Vec<(Shape4, ConvGeometry)> {
    let small = Shape4::new(2, 7, 9, c);
    vec![
        (small, ConvGeometry::square(3, 1, 1)),
        // AlexNet conv1.
        (Shape4::new(2, 15, 19, c), ConvGeometry::square(11, 4, 0)),
        // Asymmetric kernel, stride and pad.
        (
            small,
            ConvGeometry {
                kh: 1,
                kw: 3,
                stride_h: 1,
                stride_w: 2,
                pad_h: 0,
                pad_w: 1,
            },
        ),
        // Pad >= kernel: corner windows are pure padding.
        (
            small,
            ConvGeometry {
                kh: 3,
                kw: 2,
                stride_h: 2,
                stride_w: 1,
                pad_h: 3,
                pad_w: 2,
            },
        ),
    ]
}

fn exhaustive_for_width<W: BitWord>() {
    // K = 17 spans several output words at u8/u16.
    let ks = [1usize, 17];
    for c in [1usize, 3, 4, 7, 9, 33, 65] {
        for (shape, geom) in cases(c) {
            for &k in &ks {
                let ctx = format!("W={} c={c} k={k} geom={geom:?}", std::any::type_name::<W>());
                let img = image(shape, c + k);
                let f = pm1_filters(FilterShape::new(k, geom.kh, geom.kw, c), c ^ k);
                let packed_f = pack_filters::<W>(&f);
                let expect = reference_accum(&img, &f, &geom);
                let spread = (255 * geom.taps() * c) as f32 / 8.0;
                let fused = fused_for(k, spread);
                let mut q = queue();
                let planes = bitplane_split::<W>(&mut q, &img);

                // 1. Integer accumulators.
                let accum = bitplane_conv_accum(&mut q, &planes, &packed_f, &geom);
                assert_eq!(
                    accum.as_slice(),
                    expect.as_slice(),
                    "accum != integer reference ({ctx})"
                );

                // 2. Fused bits vs the thresholded reference and the oracle.
                let want = threshold::<W>(&expect, &fused);
                let got = bitplane_conv_fused(&mut q, &planes, &packed_f, &fused, &geom);
                assert_eq!(got, want, "fused != thresholded reference ({ctx})");
                assert!(got.tail_is_clean(), "dirty fused tail ({ctx})");
                let mut oracle = BitTensor::<W>::zeros(got.shape());
                compute_bitplane_conv_fused_reference(
                    &planes,
                    &packed_f,
                    &fused,
                    &geom,
                    &mut oracle,
                );
                assert_eq!(got, oracle, "fused != reference oracle ({ctx})");

                // 3. The in8 conv→pool chain (split absorbed) vs reference
                // conv bits pooled by the split kernel.
                let cs = want.shape();
                for pool in [PoolGeometry::new(2, 2), PoolGeometry::new(3, 2)] {
                    if cs.h < pool.size || cs.w < pool.size {
                        continue;
                    }
                    let (ph, pw) = pool.output_hw(cs.h, cs.w);
                    let mut pooled = BitTensor::<W>::zeros(Shape4::new(cs.n, ph, pw, cs.c));
                    compute_maxpool_bits(&want, &pool, &mut pooled);
                    let mut chain_planes = BitPlanes::<W>::empty(shape);
                    let mut ring = BitTensor::<W>::zeros(Shape4::new(0, 0, 0, 0));
                    let mut chain = BitTensor::<W>::zeros(Shape4::new(0, 0, 0, 0));
                    in8_bconv_chain_into(
                        &mut q,
                        &img,
                        &packed_f,
                        &fused,
                        &geom,
                        Some(&pool),
                        &mut chain_planes,
                        &mut ring,
                        &mut chain,
                    );
                    assert_eq!(
                        chain, pooled,
                        "in8 chain != pooled reference ({ctx} {pool:?})"
                    );
                    assert!(chain.tail_is_clean(), "dirty chain tail ({ctx})");
                }
            }
        }
    }
}

#[test]
fn exhaustive_u8() {
    exhaustive_for_width::<u8>();
}

#[test]
fn exhaustive_u16() {
    exhaustive_for_width::<u16>();
}

#[test]
fn exhaustive_u32() {
    exhaustive_for_width::<u32>();
}

#[test]
fn exhaustive_u64() {
    exhaustive_for_width::<u64>();
}
