//! Property-based tests (proptest) on the core invariants: packing is
//! lossless, the xor-popcount identity holds for every vector, layer fusion
//! equals the unfused reference for arbitrary batch-norm parameters, the
//! bit-plane decomposition reconstructs, bit pooling equals float pooling,
//! and the `.pbit` reader never panics on corrupt input.

use proptest::prelude::*;

use phonebit::core::format::{read_model, write_model};
use phonebit::nn::fuse::{BnParams, FusedBn};
use phonebit::tensor::bitplane::BitPlanes;
use phonebit::tensor::bits::{dot_pm1, BitTensor, PackedFilters};
use phonebit::tensor::pack::{pack_f32, unpack_f32};
use phonebit::tensor::shape::{FilterShape, Layout, Shape4};
use phonebit::tensor::Tensor;

fn signs(len: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_unpack_is_lossless(
        h in 1usize..5,
        w in 1usize..5,
        c in 1usize..130,
        seed in any::<u64>(),
    ) {
        let shape = Shape4::new(1, h, w, c);
        let t = Tensor::from_fn(shape, |_, y, x, ch| {
            let v = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((y * 31 + x * 7 + ch) as u64);
            if v.is_multiple_of(3) { 1.0 } else { -1.0 }
        });
        let packed = pack_f32::<u64>(&t);
        prop_assert!(packed.tail_is_clean());
        prop_assert_eq!(&unpack_f32(&packed), &t);
        // Every width agrees.
        let packed8 = pack_f32::<u8>(&t);
        prop_assert_eq!(unpack_f32(&packed8), unpack_f32(&packed));
    }

    #[test]
    fn xor_popcount_identity(
        a_bits in signs(100),
        b_bits in signs(100),
    ) {
        let len = a_bits.len();
        let mut a = BitTensor::<u64>::zeros(Shape4::new(1, 1, 1, len));
        let mut b = BitTensor::<u64>::zeros(Shape4::new(1, 1, 1, len));
        let mut expect = 0i32;
        for (c, (&x, &y)) in a_bits.iter().zip(&b_bits).enumerate() {
            a.set_bit(0, 0, 0, c, x);
            b.set_bit(0, 0, 0, c, y);
            expect += if x == y { 1 } else { -1 };
        }
        let got = dot_pm1(a.pixel_words(0, 0, 0), b.pixel_words(0, 0, 0), len);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn fused_decision_equals_bn_reference(
        gamma in prop::sample::select(vec![-2.0f32, -0.5, 0.25, 1.0, 3.0]),
        beta in -2.0f32..2.0,
        mu in -50.0f32..50.0,
        sigma in 0.1f32..10.0,
        bias in -5.0f32..5.0,
        x1 in -200i32..200,
    ) {
        let bn = BnParams {
            gamma: vec![gamma],
            beta: vec![beta],
            mu: vec![mu],
            sigma: vec![sigma],
        };
        let fused = FusedBn::precompute(&bn, &[bias]);
        let x = x1 as f32;
        let reference = bn.apply(0, x + bias) >= 0.0;
        prop_assert_eq!(fused.decide_branchy(0, x), reference);
        prop_assert_eq!(fused.decide_logic(0, x), reference);
    }

    #[test]
    fn eqn9_always_equals_eqn8(
        xi in -100.0f32..100.0,
        gamma_pos in any::<bool>(),
        x1 in -100.0f32..100.0,
    ) {
        let fused = FusedBn { xi: vec![xi], gamma_pos: vec![gamma_pos] };
        prop_assert_eq!(fused.decide_logic(0, x1), fused.decide_branchy(0, x1));
        // And exactly at the threshold.
        prop_assert_eq!(fused.decide_logic(0, xi), fused.decide_branchy(0, xi));
    }

    #[test]
    fn bitplane_split_reconstructs(
        h in 1usize..6,
        w in 1usize..6,
        c in 1usize..80,
        seed in any::<u64>(),
    ) {
        // C > 64 puts several words in every pixel, at every width.
        let shape = Shape4::new(1, h, w, c);
        let img = Tensor::from_fn(shape, |_, y, x, ch| {
            (seed.wrapping_mul((1 + y * 131 + x * 31 + ch * 7) as u64) % 256) as u8
        });
        let planes = BitPlanes::<u32>::split(&img);
        prop_assert_eq!(planes.reconstruct(), img.clone());
        // The word-at-a-time NHWC split agrees with the per-bit walk other
        // layouts take.
        let nchw = img.to_layout(Layout::Nchw);
        prop_assert_eq!(&planes, &BitPlanes::<u32>::split(&nchw));
        let wide = BitPlanes::<u64>::split(&img);
        prop_assert_eq!(wide.reconstruct(), img);
        prop_assert_eq!(wide, BitPlanes::<u64>::split(&nchw));
    }

    #[test]
    fn bit_maxpool_equals_float_maxpool(
        h in 2usize..8,
        w in 2usize..8,
        c in 1usize..70,
        seed in any::<u64>(),
    ) {
        use phonebit::nn::kernels::pool::{
            compute_maxpool_bits, compute_maxpool_f32, PoolGeometry,
        };
        let shape = Shape4::new(1, h, w, c);
        let t = Tensor::from_fn(shape, |_, y, x, ch| {
            let v = seed.wrapping_add((y * 313 + x * 71 + ch * 13) as u64);
            if v % 5 < 2 { 1.0 } else { -1.0 }
        });
        let geom = PoolGeometry::new(2, 2);
        let (oh, ow) = geom.output_hw(h, w);
        let mut bits_out = BitTensor::<u64>::zeros(Shape4::new(1, oh, ow, c));
        compute_maxpool_bits(&pack_f32::<u64>(&t), &geom, &mut bits_out);
        let mut float_out = Tensor::zeros(Shape4::new(1, oh, ow, c), Layout::Nhwc);
        compute_maxpool_f32(&t, &geom, &mut float_out);
        let unpacked = unpack_f32(&bits_out);
        prop_assert_eq!(unpacked.as_slice(), float_out.as_slice());
    }

    #[test]
    fn format_reader_never_panics_on_corruption(
        flip_at in 0usize..500,
        flip_to in any::<u8>(),
    ) {
        // Build a small real model, corrupt one byte, and require a clean
        // Result (no panic, no abort).
        let mut filters = PackedFilters::<u64>::zeros(FilterShape::new(4, 3, 3, 10));
        filters.set_bit(1, 1, 1, 5, true);
        let model = phonebit::core::PbitModel {
            name: "fuzz".into(),
            input: Shape4::new(1, 8, 8, 3),
            layers: vec![phonebit::core::PbitLayer::BConv {
                name: "conv".into(),
                geom: phonebit::tensor::shape::ConvGeometry::square(3, 1, 1),
                filters,
                fused: FusedBn::identity(4),
            }],
        };
        let mut payload = write_model(&model);
        let idx = flip_at % payload.len();
        payload[idx] = flip_to;
        let _ = read_model(&payload); // must not panic
        // Truncations must not panic either.
        let _ = read_model(&payload[..idx]);
    }

    #[test]
    fn dense_dot_parity_invariant(
        bits in signs(64),
        wbits in signs(64),
    ) {
        // dot of two +-1 vectors of length n has the same parity as n.
        let len = bits.len();
        let mut a = BitTensor::<u64>::zeros(Shape4::new(1, 1, 1, len));
        let mut b = BitTensor::<u64>::zeros(Shape4::new(1, 1, 1, len));
        for c in 0..len {
            a.set_bit(0, 0, 0, c, bits[c]);
            b.set_bit(0, 0, 0, c, wbits[c]);
        }
        let d = dot_pm1(a.pixel_words(0, 0, 0), b.pixel_words(0, 0, 0), len);
        prop_assert_eq!((d - len as i32).rem_euclid(2), 0);
        prop_assert!(d.abs() <= len as i32);
    }

    #[test]
    fn lowered_gemm_equals_direct_conv(
        h in 3usize..7,
        w in 3usize..7,
        c in 1usize..40,
        k in 1usize..12,
        pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        use phonebit::nn::kernels::{bconv::bconv_fused, bgemm::bconv_lowered};
        use phonebit::tensor::pack::{pack_f32, pack_filters};
        use phonebit::tensor::shape::{ConvGeometry, FilterShape};
        use phonebit::tensor::Filters;
        let t = Tensor::from_fn(Shape4::new(1, h, w, c), |_, y, x, ch| {
            let v = seed.wrapping_add((y * 131 + x * 37 + ch * 11) as u64);
            if v.is_multiple_of(3) { 1.0 } else { -1.0 }
        });
        let f = Filters::from_fn(FilterShape::new(k, 3, 3, c), |a, b, d, e| {
            let v = seed.wrapping_mul(31).wrapping_add((a * 53 + b * 7 + d * 3 + e) as u64);
            if v.is_multiple_of(2) { 1.0 } else { -1.0 }
        });
        let geom = ConvGeometry::square(3, 1, pad);
        if h + 2 * pad < 3 || w + 2 * pad < 3 {
            return Ok(());
        }
        let fused = FusedBn::identity(k);
        let mut q = phonebit::gpusim::CommandQueue::new(
            phonebit::gpusim::DeviceProfile::adreno_640(),
            phonebit::gpusim::ExecutorClass::PhoneBitOpenCl,
        );
        let direct = bconv_fused(&mut q, &pack_f32::<u64>(&t), &pack_filters::<u64>(&f), &fused, &geom);
        let lowered = bconv_lowered(&mut q, &pack_f32::<u64>(&t), &pack_filters::<u64>(&f), &fused, &geom);
        prop_assert_eq!(direct, lowered);
    }

    #[test]
    fn quantization_round_trip_error_bounded(
        values in proptest::collection::vec(-100.0f32..100.0, 1..64),
    ) {
        use phonebit::tensor::quant::quantize_slice;
        let (q, params) = quantize_slice(&values);
        for (&orig, &qi) in values.iter().zip(&q) {
            let back = params.dequantize(qi);
            prop_assert!(
                (orig - back).abs() <= params.scale * 0.51 + 1e-4,
                "value {} -> {} (scale {})", orig, back, params.scale
            );
        }
    }
}
