//! First-layer kernels: bit-plane split and bit-plane convolution (Eqn 2).
//!
//! The first convolution layer receives 8-bit integer images. Following
//! §III-B, the input is split into 8 bit-planes and the output accumulates
//! `s = Σ_n 2^n <I_n · W>` where each `<·>` is a `{0,1} × {±1}` binary
//! convolution computed with masked popcounts. The split and recombination
//! are the extra work behind conv1's lower speedup in Fig 5.
//!
//! Every conv1 body — [`compute_bitplane_conv_fused`], [`bitplane_conv_accum`]
//! and the fused conv→pool chain — runs one output row at a time through
//! `GatheredPlanes::row`:
//!
//! - **Dense windows.** Each plane's `kh × kw × C` window is gathered once
//!   per output pixel into a dense bitstring, tap `(i, j)` channel `c` at
//!   bit `(i·kw + j)·C + c`. That is one `u64` for a 3×3×3 conv1 and six for
//!   AlexNet's 11×11×3, against `kh·kw` mostly-empty words per plane in the
//!   channel-packed layout. The filter bank is re-laid into the same dense
//!   rows once per call.
//! - **The filter-independent term once.** With `a · w = 2·popcount(a & w) −
//!   popcount(a)` for a `{0,1}` plane `a`, the second term
//!   `T = Σ_n 2^n · popcount(window_n)` does not depend on the filter, so it
//!   is computed once per window and each of the `K` filters costs one
//!   AND+popcount per plane word: `s = 2·Σ_n 2^n·popcount(window_n & w) − T`.
//! - **No border tables.** Plane bits are `{0,1}`, so an out-of-bounds tap
//!   is simply left zero in the gathered window and adds to neither term —
//!   unlike the ±1 binary layers, whose padding taps contribute `−1` and
//!   need the tap-popcount tables of [`crate::kernels::tiled`].
//! - **Hardware popcount.** Like the tiled drivers, `GatheredPlanes::row`
//!   is compiled twice from one `#[inline(always)]` body and takes the
//!   `popcnt` copy on x86-64 hosts that have the instruction (see
//!   [`crate::kernels::tiled`]); the window and filter popcounts
//!   (`weighted_popcount`, `emit_pixel`) are always inlined into it.
//!
//! The per-pixel, per-filter, per-plane, per-tap walk
//! [`bitplane_window_dot`] is kept as the reference oracle
//! ([`compute_bitplane_conv_fused_reference`]), like
//! [`compute_bconv_fused_reference`](crate::kernels::bconv::compute_bconv_fused_reference)
//! for the binary layers.

#[cfg(target_arch = "x86_64")]
use phonebit_gpusim::exec::host_popcnt;
use phonebit_gpusim::exec::par_chunks_mut;
use phonebit_gpusim::queue::CommandQueue;
use phonebit_tensor::bitplane::BitPlanes;
use phonebit_tensor::bits::{merge_bits, BitTensor, BitWord, PackedFilters};
use phonebit_tensor::shape::{ConvGeometry, Layout, Shape4};
use phonebit_tensor::tensor::Tensor;

use crate::fuse::FusedBn;
use crate::kernels::profiles;
use crate::kernels::tiled::BorderSpan;
use crate::workload::WorkloadPolicy;

/// Dispatches the bit-plane split of an 8-bit input image (§III-B).
pub fn bitplane_split<W: BitWord>(q: &mut CommandQueue, input: &Tensor<u8>) -> BitPlanes<W> {
    let mut planes = BitPlanes::<W>::empty(input.shape());
    bitplane_split_into(q, input, &mut planes);
    planes
}

/// [`bitplane_split`] into a caller-provided plane set, reusing its storage
/// — the engine's arena path.
pub fn bitplane_split_into<W: BitWord>(
    q: &mut CommandQueue,
    input: &Tensor<u8>,
    planes: &mut BitPlanes<W>,
) {
    let s = input.shape();
    let profile = profiles::bitplane_split(s.pixels(), s.c);
    q.launch(profile, || planes.split_from(input));
}

/// One conv1 call's planes and filters in the dense-window layout of the
/// module docs: the filter bank re-laid once, windows gathered per pixel.
#[derive(Debug)]
pub(crate) struct GatheredPlanes<'a, W: BitWord> {
    planes: &'a BitPlanes<W>,
    geom: &'a ConvGeometry,
    /// Words in one dense `kh·kw·C`-bit window.
    window_words: usize,
    /// `K` dense filter rows of `window_words` words each.
    filters: Vec<W>,
}

impl<'a, W: BitWord> GatheredPlanes<'a, W> {
    /// Re-lays `filters` into dense window rows for convolving `planes`.
    ///
    /// # Panics
    ///
    /// Panics when the filters' channels or kernel size disagree with the
    /// planes or `geom`.
    pub fn new(
        planes: &'a BitPlanes<W>,
        filters: &PackedFilters<W>,
        geom: &'a ConvGeometry,
    ) -> Self {
        let c = planes.shape().c;
        let fs = filters.shape();
        assert_eq!(c, fs.c, "plane channels {c} != filter channels {}", fs.c);
        assert_eq!(
            (geom.kh, geom.kw),
            (fs.kh, fs.kw),
            "geometry kernel != filter kernel"
        );
        // At least one word, so a zero-channel window still yields K rows.
        let window_words = (geom.taps() * c).div_ceil(W::BITS).max(1);
        let mut dense = vec![W::zero(); fs.k * window_words];
        for (k, row) in dense.chunks_exact_mut(window_words).enumerate() {
            for i in 0..fs.kh {
                for j in 0..fs.kw {
                    merge_bits(row, (i * fs.kw + j) * c, filters.tap_words(k, i, j), c);
                }
            }
        }
        Self {
            planes,
            geom,
            window_words,
            filters: dense,
        }
    }

    /// Row scratch for `GatheredPlanes::row`: one pixel's gathered
    /// window, word-major — entry `w` holds word `w` of all 8 planes —
    /// plus one spare entry that absorbs the (zero) carry past the end.
    pub fn scratch(&self) -> Vec<[W; 8]> {
        vec![[W::zero(); 8]; self.window_words + 1]
    }

    /// Computes output row `(n, oy)`, calling `emit(ox, k, s)` with the
    /// Eqn (2) accumulator `s` of every output pixel `ox < ow` and filter
    /// `k`. `windows` is `GatheredPlanes::scratch`. Runs the
    /// hardware-popcount copy of the row when the host has one.
    pub fn row(
        &self,
        windows: &mut [[W; 8]],
        n: usize,
        oy: usize,
        ow: usize,
        emit: impl FnMut(usize, usize, i32),
    ) {
        #[cfg(target_arch = "x86_64")]
        if host_popcnt() {
            // SAFETY: `host_popcnt()` checked that this CPU has POPCNT.
            return unsafe { self.row_popcnt(windows, n, oy, ow, emit) };
        }
        self.row_body(windows, n, oy, ow, emit)
    }

    /// `GatheredPlanes::row_body` compiled with hardware popcount.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn row_popcnt(
        &self,
        windows: &mut [[W; 8]],
        n: usize,
        oy: usize,
        ow: usize,
        emit: impl FnMut(usize, usize, i32),
    ) {
        self.row_body(windows, n, oy, ow, emit)
    }

    /// The body of `GatheredPlanes::row`, inlined into both of its copies.
    #[inline(always)]
    pub fn row_body(
        &self,
        windows: &mut [[W; 8]],
        n: usize,
        oy: usize,
        ow: usize,
        mut emit: impl FnMut(usize, usize, i32),
    ) {
        let ww = self.window_words;
        let g = self.geom;
        let s = self.planes.shape();
        let wpp = self.planes.plane(0).words_per_pixel();
        let planes: [&[W]; 8] = std::array::from_fn(|b| self.planes.plane(b).as_words());
        assert_eq!(windows.len(), ww + 1, "scratch from another call");
        for ox in 0..ow {
            // Only the in-bounds taps are gathered; padding stays zero.
            let span = BorderSpan::of(g, s.h, s.w, oy, ox);
            if ww == 1 && wpp == 1 {
                // One-word pixels into a one-word window: a plain
                // shift-or, with the window kept in registers.
                let mut window = [W::zero(); 8];
                self.for_each_tap(&span, n, oy, ox, |src, bit| {
                    for (w, plane) in window.iter_mut().zip(&planes) {
                        *w = w.or(plane[src].shl(bit));
                    }
                });
                self.emit_pixel(std::slice::from_ref(&window), ox, &mut emit);
                continue;
            }
            windows.fill([W::zero(); 8]);
            self.for_each_tap(&span, n, oy, ox, |src, bit| {
                let (word, shift) = (bit / W::BITS, bit % W::BITS);
                for q in 0..wpp {
                    let (lo, hi) = windows[word + q..].split_at_mut(1);
                    for (b, plane) in planes.iter().enumerate() {
                        // Pixel words are tail-clean, so the shifted word
                        // and its carry never overlap a neighbouring tap;
                        // the two-step right shift makes the carry 0 when
                        // `shift == 0`.
                        let v = plane[src * wpp + q];
                        lo[0][b] = lo[0][b].or(v.shl(shift));
                        hi[0][b] = hi[0][b].or(v.shr(W::BITS - 1 - shift).shr(1));
                    }
                }
            });
            self.emit_pixel(&windows[..ww], ox, &mut emit);
        }
    }

    /// Calls `f(pixel, bit)` for every in-bounds tap of output pixel
    /// `(n, oy, ox)`: the input pixel index and the tap's first bit in the
    /// dense window.
    #[inline]
    fn for_each_tap(
        &self,
        span: &BorderSpan,
        n: usize,
        oy: usize,
        ox: usize,
        mut f: impl FnMut(usize, usize),
    ) {
        let (g, s) = (self.geom, self.planes.shape());
        for i in span.i0..span.i1 {
            let iy = oy * g.stride_h + i - g.pad_h;
            for j in span.j0..span.j1 {
                let ix = ox * g.stride_w + j - g.pad_w;
                f((n * s.h + iy) * s.w + ix, (i * g.kw + j) * s.c);
            }
        }
    }

    /// Emits every filter's Eqn (2) accumulator for one gathered window.
    #[inline(always)]
    fn emit_pixel(&self, window: &[[W; 8]], ox: usize, emit: &mut impl FnMut(usize, usize, i32)) {
        let t: i32 = window.iter().map(weighted_popcount).sum();
        for (k, filter) in self.filters.chunks_exact(self.window_words).enumerate() {
            let pos: i32 = window
                .iter()
                .zip(filter)
                .map(|(planes, &f)| weighted_popcount(&planes.map(|a| a.and(f))))
                .sum();
            emit(ox, k, 2 * pos - t);
        }
    }
}

/// `Σ_n 2^n · popcount(planes[n])`: one window word of all 8 planes,
/// weighted per Eqn (2).
#[inline(always)]
fn weighted_popcount<W: BitWord>(planes: &[W; 8]) -> i32 {
    planes
        .iter()
        .enumerate()
        .map(|(n, a)| (a.popcount() as i32) << n)
        .sum()
}

/// Masked `{0,1} x {±1}` dot of one window of one plane against one filter:
/// out-of-bounds plane bits are 0 and contribute nothing.
#[inline]
fn plane_window_dot<W: BitWord>(
    plane: &BitTensor<W>,
    filters: &PackedFilters<W>,
    geom: &ConvGeometry,
    n: usize,
    oy: usize,
    ox: usize,
    k: usize,
) -> i32 {
    let s = plane.shape();
    let mut pos = 0u32;
    let mut total = 0u32;
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
            let a = plane.pixel_words(n, iy as usize, ix as usize);
            let w = filters.tap_words(k, i, j);
            for (&x, &y) in a.iter().zip(w.iter()) {
                pos += x.and(y).popcount();
                total += x.popcount();
            }
        }
    }
    2 * pos as i32 - total as i32
}

/// The Eqn (2) accumulator for one output element across all 8 planes,
/// walked per plane and per tap — the reference oracle for
/// `GatheredPlanes::row`.
#[inline]
pub fn bitplane_window_dot<W: BitWord>(
    planes: &BitPlanes<W>,
    filters: &PackedFilters<W>,
    geom: &ConvGeometry,
    n: usize,
    oy: usize,
    ox: usize,
    k: usize,
) -> i32 {
    planes
        .iter_weighted()
        .map(|(weight, plane)| weight * plane_window_dot(plane, filters, geom, n, oy, ox, k))
        .sum()
}

fn output_shape<W: BitWord>(
    planes: &BitPlanes<W>,
    filters: &PackedFilters<W>,
    geom: &ConvGeometry,
) -> Shape4 {
    let s = planes.shape();
    let fs = filters.shape();
    assert_eq!(
        s.c, fs.c,
        "plane channels {} != filter channels {}",
        s.c, fs.c
    );
    let (oh, ow) = geom.output_hw(s.h, s.w);
    Shape4::new(s.n, oh, ow, fs.k)
}

/// Functional body of the fused bit-plane convolution: gathered rows in
/// parallel, each output bit decided by the fused threshold.
pub fn compute_bitplane_conv_fused<W: BitWord>(
    planes: &BitPlanes<W>,
    filters: &PackedFilters<W>,
    fused: &FusedBn,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let os = out.shape();
    let wpp = out.words_per_pixel();
    let conv = GatheredPlanes::new(planes, filters, geom);
    par_chunks_mut(out.as_mut_words(), (os.w * wpp).max(1), |row_idx, span| {
        let mut windows = conv.scratch();
        conv.row(
            &mut windows,
            row_idx / os.h,
            row_idx % os.h,
            os.w,
            |ox, k, s| {
                if fused.decide_logic(k, s as f32) {
                    let slot = ox * wpp + k / W::BITS;
                    span[slot] = span[slot].with_bit(k % W::BITS, true);
                }
            },
        );
    });
}

/// The seed fused body: [`bitplane_window_dot`] per output pixel and
/// filter. Kept as the bit-exactness oracle for
/// [`compute_bitplane_conv_fused`] and the "before" side of `bconv_report`.
pub fn compute_bitplane_conv_fused_reference<W: BitWord>(
    planes: &BitPlanes<W>,
    filters: &PackedFilters<W>,
    fused: &FusedBn,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let os = out.shape();
    let k_total = filters.shape().k;
    let (oh, ow) = (os.h, os.w);
    let wpp = out.words_per_pixel();
    par_chunks_mut(out.as_mut_words(), wpp, |pixel, span| {
        let n = pixel / (oh * ow);
        let rem = pixel % (oh * ow);
        let (oy, ox) = (rem / ow, rem % ow);
        for k in 0..k_total {
            let s = bitplane_window_dot(planes, filters, geom, n, oy, ox, k);
            if fused.decide_logic(k, s as f32) {
                span[k / W::BITS] = span[k / W::BITS].with_bit(k % W::BITS, true);
            }
        }
    });
}

/// Dispatches the fused first-layer convolution: Eqn (2) accumulation +
/// batch-norm + binarize + pack.
///
/// # Panics
///
/// Panics on channel mismatches or when `fused.len() != filters.k`.
pub fn bitplane_conv_fused<W: BitWord>(
    q: &mut CommandQueue,
    planes: &BitPlanes<W>,
    filters: &PackedFilters<W>,
    fused: &FusedBn,
    geom: &ConvGeometry,
) -> BitTensor<W> {
    let mut out = BitTensor::<W>::zeros(Shape4::new(0, 0, 0, 0));
    bitplane_conv_fused_into(q, planes, filters, fused, geom, &mut out);
    out
}

/// [`bitplane_conv_fused`] into a caller-provided tensor (reset to the
/// output shape), reusing its storage — the engine's arena path.
pub fn bitplane_conv_fused_into<W: BitWord>(
    q: &mut CommandQueue,
    planes: &BitPlanes<W>,
    filters: &PackedFilters<W>,
    fused: &FusedBn,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let os = output_shape(planes, filters, geom);
    assert_eq!(
        fused.len(),
        filters.shape().k,
        "fusion params must cover every filter"
    );
    out.reset(os);
    let policy = WorkloadPolicy::for_channels(planes.shape().c);
    let profile = profiles::bitplane_conv_fused(os.pixels(), os.c, planes.shape().c, geom, &policy);
    q.launch(profile, || {
        compute_bitplane_conv_fused(planes, filters, fused, geom, out)
    });
}

/// Dispatches the first-layer convolution producing raw integer
/// accumulators (for tests and for heads that need real values).
pub fn bitplane_conv_accum<W: BitWord>(
    q: &mut CommandQueue,
    planes: &BitPlanes<W>,
    filters: &PackedFilters<W>,
    geom: &ConvGeometry,
) -> Tensor<i32> {
    let os = output_shape(planes, filters, geom);
    let mut out = Tensor::<i32>::zeros(os, Layout::Nhwc);
    let policy = WorkloadPolicy::for_channels(planes.shape().c);
    let mut profile =
        profiles::bitplane_conv_fused(os.pixels(), os.c, planes.shape().c, geom, &policy);
    profile.name = "bitplane_conv_accum".into();
    let k_total = os.c;
    q.launch(profile, || {
        let conv = GatheredPlanes::new(planes, filters, geom);
        par_chunks_mut(
            out.as_mut_slice(),
            (os.w * k_total).max(1),
            |row_idx, row| {
                let mut windows = conv.scratch();
                conv.row(
                    &mut windows,
                    row_idx / os.h,
                    row_idx % os.h,
                    os.w,
                    |ox, k, s| {
                        row[ox * k_total + k] = s;
                    },
                );
            },
        );
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_gpusim::{DeviceProfile, ExecutorClass};
    use phonebit_tensor::pack::{pack_filters, unpack_f32};
    use phonebit_tensor::shape::FilterShape;
    use phonebit_tensor::tensor::Filters;

    use crate::fuse::BnParams;

    fn queue() -> CommandQueue {
        CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl)
    }

    fn image(shape: Shape4) -> Tensor<u8> {
        Tensor::from_fn(shape, |n, h, w, c| {
            ((n * 157 + h * 83 + w * 19 + c * 7) % 256) as u8
        })
    }

    fn pm1_filters(shape: FilterShape) -> Filters {
        Filters::from_fn(shape, |k, i, j, c| {
            if (k + i * 2 + j + c) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        })
    }

    /// Integer reference: direct u8 x (+-1) convolution with zero padding.
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

    #[test]
    fn accum_matches_integer_reference() {
        let img = image(Shape4::new(1, 6, 6, 3));
        let f = pm1_filters(FilterShape::new(4, 3, 3, 3));
        let geom = ConvGeometry::square(3, 1, 1);
        let mut q = queue();
        let planes = bitplane_split::<u8>(&mut q, &img);
        let got = bitplane_conv_accum(&mut q, &planes, &pack_filters::<u8>(&f), &geom);
        let expect = reference_accum(&img, &f, &geom);
        assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    fn accum_matches_reference_with_stride() {
        let img = image(Shape4::new(2, 9, 9, 3));
        let f = pm1_filters(FilterShape::new(8, 3, 3, 3));
        let geom = ConvGeometry::square(3, 2, 0);
        let mut q = queue();
        let planes = bitplane_split::<u64>(&mut q, &img);
        let got = bitplane_conv_accum(&mut q, &planes, &pack_filters::<u64>(&f), &geom);
        assert_eq!(got.as_slice(), reference_accum(&img, &f, &geom).as_slice());
    }

    #[test]
    fn fused_matches_accum_then_threshold() {
        let img = image(Shape4::new(1, 8, 8, 3));
        let f = pm1_filters(FilterShape::new(16, 3, 3, 3));
        let geom = ConvGeometry::square(3, 1, 1);
        let bn = BnParams {
            gamma: (0..16)
                .map(|i| if i % 4 == 0 { -1.0 } else { 0.8 })
                .collect(),
            beta: (0..16).map(|i| i as f32 * 0.05).collect(),
            mu: (0..16).map(|i| 100.0 + i as f32 * 10.0).collect(),
            sigma: vec![50.0; 16],
        };
        let bias = vec![0.5; 16];
        let fused = FusedBn::precompute(&bn, &bias);

        let mut q = queue();
        let planes = bitplane_split::<u64>(&mut q, &img);
        let packed_f = pack_filters::<u64>(&f);
        let bits = bitplane_conv_fused(&mut q, &planes, &packed_f, &fused, &geom);
        let accum = bitplane_conv_accum(&mut q, &planes, &packed_f, &geom);

        let got = unpack_f32(&bits);
        let s = accum.shape();
        for n in 0..s.n {
            for h in 0..s.h {
                for w in 0..s.w {
                    #[allow(clippy::needless_range_loop)] // c indexes both tensors and bias
                    for c in 0..s.c {
                        let x3 = bn.apply(c, accum.at(n, h, w, c) as f32 + bias[c]);
                        let expect = if x3 >= 0.0 { 1.0 } else { -1.0 };
                        assert_eq!(got.at(n, h, w, c), expect, "at ({n},{h},{w},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn split_kernel_is_on_timeline() {
        let img = image(Shape4::new(1, 4, 4, 3));
        let mut q = queue();
        let planes = bitplane_split::<u8>(&mut q, &img);
        assert_eq!(q.timeline().len(), 1);
        assert_eq!(q.timeline()[0].stats.name, "bitplane_split");
        assert_eq!(planes.reconstruct(), img);
    }

    #[test]
    fn zero_image_gives_zero_accum() {
        let img = Tensor::<u8>::zeros(Shape4::new(1, 4, 4, 3), Layout::Nhwc);
        let f = pm1_filters(FilterShape::new(2, 3, 3, 3));
        let mut q = queue();
        let planes = bitplane_split::<u32>(&mut q, &img);
        let accum = bitplane_conv_accum(
            &mut q,
            &planes,
            &pack_filters::<u32>(&f),
            &ConvGeometry::square(3, 1, 1),
        );
        assert!(accum.as_slice().iter().all(|&v| v == 0));
    }
}
