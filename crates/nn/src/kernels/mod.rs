//! PhoneBit's GPU kernels.
//!
//! Each kernel exposes a `compute_*` functional body (pure host math,
//! reusable by baselines and tests) and a dispatch wrapper that launches it
//! on a [`phonebit_gpusim::CommandQueue`] with the matching cost profile
//! from [`profiles`].

pub mod bconv;
pub mod bgemm;
pub mod bitplane;
pub mod dense;
pub mod fconv;
pub mod fused;
pub mod pool;
pub mod profiles;
pub mod tiled;

use phonebit_gpusim::queue::CommandQueue;
use phonebit_tensor::bits::{BitTensor, BitWord};
use phonebit_tensor::tensor::Tensor;

/// Dispatches input binarization: a float tensor is sign-binarized and
/// channel-packed (used when a network's first layer is already binary).
pub fn pack_input<W: BitWord>(q: &mut CommandQueue, input: &Tensor<f32>) -> BitTensor<W> {
    let mut out = BitTensor::<W>::zeros(input.shape());
    pack_input_into(q, input, &mut out);
    out
}

/// [`pack_input`] into a caller-provided tensor, reusing its storage — the
/// engine's arena path.
pub fn pack_input_into<W: BitWord>(
    q: &mut CommandQueue,
    input: &Tensor<f32>,
    out: &mut BitTensor<W>,
) {
    let s = input.shape();
    let profile = profiles::pack_input(s.pixels(), s.c);
    q.launch(profile, || {
        phonebit_tensor::pack::pack_f32_into(input, out);
    });
}

/// Dispatches the softmax epilogue over a logit vector.
pub fn softmax(q: &mut CommandQueue, logits: &mut [f32]) {
    let profile = profiles::softmax(logits.len());
    q.launch(profile, || crate::act::softmax(logits));
}

/// Batched softmax entry point: copies the input logits into `out` (reset
/// to the input shape) and normalizes every image's row in **one**
/// dispatch, so a batch of `n` requests pays the launch overhead once
/// instead of `n` times.
pub fn softmax_batch_into(q: &mut CommandQueue, input: &Tensor<f32>, out: &mut Tensor<f32>) {
    let s = input.shape();
    let features = s.h * s.w * s.c;
    out.reset(s, phonebit_tensor::Layout::Nhwc);
    out.as_mut_slice().copy_from_slice(input.as_slice());
    let profile = profiles::softmax(features).batched(s.n);
    q.launch(profile, || {
        let data = out.as_mut_slice();
        for n in 0..s.n {
            crate::act::softmax(&mut data[n * features..(n + 1) * features]);
        }
    });
}

/// Dispatches bit unpacking: a packed binary tensor becomes ±1.0 floats.
///
/// Needed where a full-precision layer consumes a binary layer's output
/// (e.g. YOLOv2-Tiny's float conv9 after binary conv8).
pub fn unpack_bits<W: BitWord>(q: &mut CommandQueue, input: &BitTensor<W>) -> Tensor<f32> {
    let mut out = Tensor::<f32>::zeros(input.shape(), phonebit_tensor::Layout::Nhwc);
    unpack_bits_into(q, input, &mut out);
    out
}

/// [`unpack_bits`] into a caller-provided tensor, reusing its storage — the
/// engine's arena path.
pub fn unpack_bits_into<W: BitWord>(
    q: &mut CommandQueue,
    input: &BitTensor<W>,
    out: &mut Tensor<f32>,
) {
    let s = input.shape();
    let profile = profiles::unpack_bits(s.pixels(), s.c);
    q.launch(profile, || {
        phonebit_tensor::pack::unpack_f32_into(input, out);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_gpusim::{DeviceProfile, ExecutorClass};
    use phonebit_tensor::pack::pack_f32;
    use phonebit_tensor::shape::Shape4;

    fn queue() -> CommandQueue {
        CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl)
    }

    #[test]
    fn pack_input_matches_direct_pack() {
        let t = Tensor::from_fn(Shape4::new(1, 3, 3, 20), |_, h, w, c| {
            ((h * 5 + w * 3 + c) % 7) as f32 - 3.0
        });
        let mut q = queue();
        let packed = pack_input::<u32>(&mut q, &t);
        assert_eq!(packed, pack_f32::<u32>(&t));
        assert_eq!(q.timeline()[0].stats.name, "pack_input");
    }

    #[test]
    fn softmax_kernel_normalizes() {
        let mut q = queue();
        let mut logits = vec![0.0f32, 1.0, 2.0];
        softmax(&mut q, &mut logits);
        assert!((logits.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn batched_softmax_matches_per_image_in_one_dispatch() {
        let batch = 3usize;
        let t = Tensor::from_fn(Shape4::new(batch, 1, 1, 5), |n, _, _, c| {
            (n * 5 + c) as f32 * 0.3 - 1.0
        });
        let mut q = queue();
        let mut out = Tensor::<f32>::zeros(Shape4::new(0, 0, 0, 0), phonebit_tensor::Layout::Nhwc);
        softmax_batch_into(&mut q, &t, &mut out);
        assert_eq!(q.timeline().len(), 1, "one dispatch for the whole batch");
        for n in 0..batch {
            let mut row: Vec<f32> = (0..5).map(|c| t.at(n, 0, 0, c)).collect();
            crate::act::softmax(&mut row);
            for (c, want) in row.iter().enumerate() {
                assert_eq!(out.at(n, 0, 0, c), *want, "image {n} logit {c}");
            }
        }
    }
}

/// Each hardware-popcount row driver against its plain body on the same
/// seeded inputs. The dispatched entry runs the popcount copy on hosts that
/// have the instruction, so the copy the host does not pick stays tested
/// through the plain body here.
#[cfg(test)]
mod popcnt_tier_tests {
    use phonebit_tensor::bitplane::BitPlanes;
    use phonebit_tensor::bits::{BitTensor, BitWord, PackedFilters};
    use phonebit_tensor::dict::{FilterAccess, FilterDict};
    use phonebit_tensor::shape::{ConvGeometry, FilterShape, Shape4};
    use phonebit_tensor::tensor::Tensor;

    use super::bitplane::GatheredPlanes;
    use super::dense::{compute_dense_bin, dense_bin_body};
    use super::tiled::{
        conv_row_tiled, conv_row_tiled_body, tile_filters, tile_filters_body, WindowGather,
        TILE_FILTERS,
    };
    use crate::fuse::FusedBn;

    /// SplitMix64: a seeded bit stream for the inputs.
    fn bits_from(seed: u64) -> impl FnMut() -> bool {
        let mut state = seed;
        let mut word = 0u64;
        let mut left = 0;
        move || {
            if left == 0 {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                word = z ^ (z >> 31);
                left = 64;
            }
            left -= 1;
            (word >> left) & 1 == 1
        }
    }

    fn random_tensor<W: BitWord>(shape: Shape4, seed: u64) -> BitTensor<W> {
        let mut bit = bits_from(seed);
        let mut t = BitTensor::zeros(shape);
        for n in 0..shape.n {
            for h in 0..shape.h {
                for w in 0..shape.w {
                    for c in 0..shape.c {
                        t.set_bit(n, h, w, c, bit());
                    }
                }
            }
        }
        t
    }

    /// A bank whose filters repeat `distinct` seeded prototypes, so its
    /// dictionary dedupes.
    fn random_filters<W: BitWord>(
        shape: FilterShape,
        distinct: usize,
        seed: u64,
    ) -> PackedFilters<W> {
        let proto_shape = FilterShape::new(distinct, shape.kh, shape.kw, shape.c);
        let mut bit = bits_from(seed);
        let mut protos = PackedFilters::<W>::zeros(proto_shape);
        let mut f = PackedFilters::zeros(shape);
        for p in 0..distinct {
            for i in 0..shape.kh {
                for j in 0..shape.kw {
                    for c in 0..shape.c {
                        protos.set_bit(p, i, j, c, bit());
                    }
                }
            }
        }
        for k in 0..shape.k {
            for i in 0..shape.kh {
                for j in 0..shape.kw {
                    f.set_tap_words(k, i, j, protos.tap_words(k % distinct, i, j));
                }
            }
        }
        f
    }

    /// Every `(ox, k, x1)` of every output row, through the dispatched
    /// driver and through the plain body.
    fn conv_rows<W: BitWord>(
        input: &BitTensor<W>,
        filters: &(impl FilterAccess<W> + Sync),
        geom: &ConvGeometry,
    ) -> (Vec<i32>, Vec<i32>) {
        let s = input.shape();
        let k = filters.shape().k;
        let (oh, ow) = geom.output_hw(s.h, s.w);
        let mut gather = WindowGather::new(geom, filters.words_per_tap());
        let (mut dispatched, mut plain) = (vec![0; s.n * oh * ow * k], vec![0; s.n * oh * ow * k]);
        for n in 0..s.n {
            for oy in 0..oh {
                let base = (n * oh + oy) * ow * k;
                conv_row_tiled(
                    input,
                    filters,
                    geom,
                    &mut gather,
                    n,
                    oy,
                    ow,
                    |ox, kk, x1| dispatched[base + ox * k + kk] = x1,
                );
                conv_row_tiled_body(
                    input,
                    filters,
                    geom,
                    &mut gather,
                    n,
                    oy,
                    ow,
                    |ox, kk, x1| plain[base + ox * k + kk] = x1,
                );
            }
        }
        (dispatched, plain)
    }

    #[test]
    fn conv_row_tiled_tiers_agree() {
        // Odd C, K off the filter tile, border pixels on every side (pad 1)
        // and at stride 2; raw and dictionary banks.
        for (c, k, geom) in [
            (37, 7, ConvGeometry::square(3, 1, 1)),
            (5, TILE_FILTERS + 1, ConvGeometry::square(3, 2, 1)),
            (130, 9, ConvGeometry::square(3, 1, 1)),
        ] {
            assert!(!k.is_multiple_of(TILE_FILTERS));
            let input = random_tensor::<u64>(Shape4::new(2, 6, 7, c), c as u64);
            let raw = random_filters::<u64>(FilterShape::new(k, 3, 3, c), 3, k as u64);
            let dict = FilterDict::build(&raw);
            assert!(dict.unique_rows() < dict.total_rows(), "dictionary dedupes");
            let (dispatched, plain) = conv_rows(&input, &raw, &geom);
            assert_eq!(dispatched, plain, "raw bank c={c} k={k}");
            let (dict_dispatched, dict_plain) = conv_rows(&input, &dict, &geom);
            assert_eq!(dict_dispatched, dict_plain, "dictionary bank c={c} k={k}");
            assert_eq!(dict_plain, plain, "dictionary == raw c={c} k={k}");
        }
        // A narrower word, where each tap spans several words.
        let input = random_tensor::<u16>(Shape4::new(1, 5, 5, 45), 3);
        let raw = random_filters::<u16>(FilterShape::new(6, 3, 3, 45), 2, 4);
        let (dispatched, plain) = conv_rows(&input, &raw, &ConvGeometry::square(3, 1, 1));
        assert_eq!(dispatched, plain, "u16 words");
    }

    #[test]
    fn tile_filters_tiers_agree() {
        for (fshape, distinct) in [
            // The lowered bGEMM's flat one-tap bank, K off the filter tile.
            (FilterShape::new(11, 1, 1, 9 * 37), 11),
            // A multi-tap dictionary bank (no contiguous filter span).
            (FilterShape::new(10, 3, 3, 21), 4),
        ] {
            let raw = random_filters::<u64>(fshape, distinct, fshape.k as u64);
            let dict = FilterDict::build(&raw);
            let len = raw.words_per_filter();
            let words = random_tensor::<u64>(Shape4::new(1, 1, 2, len * 64), 9);
            let rows = [&words.as_words()[..len], &words.as_words()[len..2 * len]];
            for pixels in 1..=rows.len() {
                let rows = &rows[..pixels];
                let plain = filter_dots(rows, &raw, false);
                assert_eq!(
                    filter_dots(rows, &raw, true),
                    plain,
                    "{fshape:?} raw, {pixels} px"
                );
                assert_eq!(
                    filter_dots(rows, &dict, false),
                    plain,
                    "{fshape:?} dict body"
                );
                assert_eq!(
                    filter_dots(rows, &dict, true),
                    plain,
                    "{fshape:?} dict, {pixels} px"
                );
            }
        }
    }

    /// Every `(pixel, k)` disagreement of `rows` against `bank`, through
    /// the dispatched filter loop or its plain body.
    fn filter_dots<W: BitWord>(
        rows: &[&[W]],
        bank: &(impl FilterAccess<W> + Sync),
        dispatch: bool,
    ) -> Vec<u32> {
        let k = bank.shape().k;
        let mut out = vec![0; rows.len() * k];
        let emit = |p, kk, d| out[p * k + kk] = d;
        if dispatch {
            tile_filters(rows, bank, emit);
        } else {
            tile_filters_body(rows, bank, emit);
        }
        out
    }

    fn gathered_rows<W: BitWord>(c: usize, k: usize, geom: ConvGeometry, hw: usize) {
        let shape = Shape4::new(2, hw, hw, c);
        let mut bit = bits_from(c as u64 * 31 + k as u64);
        let image = Tensor::from_fn(shape, |_, _, _, _| {
            (0..8).fold(0u8, |v, b| v | (u8::from(bit()) << b))
        });
        let planes = BitPlanes::<W>::split(&image);
        let filters = random_filters::<W>(FilterShape::new(k, geom.kh, geom.kw, c), k, 5);
        let conv = GatheredPlanes::new(&planes, &filters, &geom);
        let (oh, ow) = geom.output_hw(hw, hw);
        let mut windows = conv.scratch();
        for n in 0..shape.n {
            for oy in 0..oh {
                let (mut dispatched, mut plain) = (vec![0; ow * k], vec![0; ow * k]);
                conv.row(&mut windows, n, oy, ow, |ox, kk, s| {
                    dispatched[ox * k + kk] = s
                });
                conv.row_body(&mut windows, n, oy, ow, |ox, kk, s| plain[ox * k + kk] = s);
                assert_eq!(dispatched, plain, "c={c} k={k} {geom:?} n={n} oy={oy}");
            }
        }
    }

    #[test]
    fn gathered_plane_row_tiers_agree() {
        // One-word window (3x3x3 in a u64, one-word pixels).
        gathered_rows::<u64>(3, 7, ConvGeometry::square(3, 1, 1), 7);
        // Multi-word windows: AlexNet's 11x11x3 at stride 4, a 3x3x3
        // window over u8 words, and two-word u8 pixels (C = 9).
        gathered_rows::<u64>(3, 5, ConvGeometry::square(11, 4, 2), 23);
        gathered_rows::<u8>(3, 6, ConvGeometry::square(3, 2, 1), 8);
        gathered_rows::<u8>(9, 3, ConvGeometry::square(3, 1, 1), 5);
    }

    #[test]
    fn dense_bin_tiers_agree() {
        for (features, k) in [(130, 11), (64, 4), (7, 3)] {
            let input = random_tensor::<u64>(Shape4::new(3, 1, 1, features), features as u64);
            let weights = random_filters::<u64>(FilterShape::new(k, 1, 1, features), k, 2);
            let fused = FusedBn {
                xi: (0..k).map(|i| i as f32 * 3.0 - 8.0).collect(),
                gamma_pos: (0..k).map(|i| i % 3 != 1).collect(),
            };
            let out_shape = Shape4::new(3, 1, 1, k);
            let (mut dispatched, mut plain) = (
                BitTensor::<u64>::zeros(out_shape),
                BitTensor::zeros(out_shape),
            );
            compute_dense_bin(&input, &weights, &fused, &mut dispatched);
            dense_bin_body(&input, &weights, &fused, &mut plain);
            assert_eq!(dispatched, plain, "features={features} k={k}");
        }
    }
}
