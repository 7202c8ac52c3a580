//! The tiled binary-convolution hot path: window-gather reuse, an
//! interior/border split, and a register-tiled bit-GEMM microkernel.
//!
//! The naive kernel (kept as
//! [`compute_bconv_fused_reference`](crate::kernels::bconv::compute_bconv_fused_reference))
//! walks `K × kh × kw` tap spans per output pixel, re-slicing the same input
//! words once **per filter** and bounds-checking every tap. This module
//! restructures that work around the paper's §VI-A memory-access principles:
//!
//! 1. **Window gather** ([`WindowGather`]): each output pixel's `kh*kw`
//!    packed tap spans are materialized *once* into a contiguous scratch
//!    buffer whose raster layout matches
//!    [`PackedFilters::filter_words`](phonebit_tensor::bits::PackedFilters::filter_words),
//!    then reused across all `K` filters.
//!    Each filter dot product becomes one streaming xor+popcount over two
//!    contiguous spans — no per-tap slicing, no bounds checks.
//! 2. **Interior/border split**: a convolution row is split into the span of
//!    output columns whose windows are fully in bounds (the *interior*, the
//!    overwhelming majority at paper shapes) and the few *border* columns.
//!    Interior pixels take the branch-free gathered fast path. Border pixels
//!    dot only their in-bounds row segments and add the padding
//!    contribution from the filters' precomputed tap-popcount tables
//!    (`xor(0, w) = w`, so a padding tap disagrees exactly
//!    `popcount(w)` times) — no padding word is ever re-popcounted.
//! 3. **Register-tiled microkernel** ([`bit_dot_tile`]): the gathered
//!    windows of [`TILE_PIXELS`] pixels are multiplied against
//!    [`TILE_FILTERS`] filter windows per step, accumulating into `P × F`
//!    registers over 128-bit [`ClVec`] lanes, so every loaded activation
//!    vector is reused [`TILE_FILTERS`] times and every loaded filter vector
//!    [`TILE_PIXELS`] times. The same microkernel drives `bconv_fused`,
//!    `bconv_accum` and the lowered bit-GEMM path.
//!
//! **Hardware popcount.** The x86-64 baseline ABI has no POPCNT
//! instruction, so a plain build turns every popcount above into a
//! bit-twiddling sequence. The two row drivers, [`conv_row_tiled`] and
//! [`tile_filters`], are therefore each compiled twice from one
//! `#[inline(always)]` body: as is, and inside a
//! `#[target_feature(enable = "popcnt")]` copy that the entry point takes
//! when `phonebit_gpusim::exec::host_popcnt()` reports the instruction.
//! Everything that popcounts under them ([`bit_dot_tile`], the border
//! dot, `xor_popcount_vec`, `ClVec`, `BitWord::popcount`) is
//! `#[inline(always)]` so that it is compiled into the copy, and
//! [`conv_row_tiled`]'s body calls the filter loop's body directly. Other
//! targets build only the plain body: aarch64 lowers `count_ones` to
//! `cnt` anyway.

#[cfg(target_arch = "x86_64")]
use phonebit_gpusim::exec::host_popcnt;
use phonebit_gpusim::vector::{xor_popcount_vec, ClVec};
use phonebit_tensor::bits::{BitTensor, BitWord};
use phonebit_tensor::dict::FilterAccess;
use phonebit_tensor::shape::ConvGeometry;

/// Filters multiplied per microkernel step (accumulator tile height).
pub const TILE_FILTERS: usize = 4;
/// Output pixels multiplied per microkernel step (accumulator tile width).
pub const TILE_PIXELS: usize = 2;

/// Register-tiled binary dot product: `P` gathered windows × `F` filter
/// windows, all spans the same length, returning the per-pair
/// **disagreement counts** (`popcount(xor)`), not yet the ±1 dot values.
///
/// Words stream through 2-lane 128-bit-style vectors (§VI-A.1); each loaded
/// window vector is reused `F` times and each filter vector `P` times, which
/// is the whole point of the tile.
#[inline(always)]
pub fn bit_dot_tile<W: BitWord, const P: usize, const F: usize>(
    windows: &[&[W]; P],
    filters: &[&[W]; F],
) -> [[u32; F]; P] {
    let len = windows[0].len();
    debug_assert!(windows.iter().chain(filters.iter()).all(|s| s.len() == len));
    let mut acc = [[0u32; F]; P];
    let mut i = 0;
    while i + 2 <= len {
        let wv: [ClVec<W, 2>; P] = std::array::from_fn(|p| ClVec::load(&windows[p][i..]));
        for f in 0..F {
            let fv = ClVec::<W, 2>::load(&filters[f][i..]);
            for (p, w) in wv.iter().enumerate() {
                acc[p][f] += w.xor(fv).popcount();
            }
        }
        i += 2;
    }
    if i < len {
        for f in 0..F {
            let fw = filters[f][i];
            for p in 0..P {
                acc[p][f] += windows[p][i].xor(fw).popcount();
            }
        }
    }
    acc
}

/// Scratch buffer holding up to [`TILE_PIXELS`] gathered convolution
/// windows in filter-raster layout (tap `(i, j)` at word offset
/// `(i*kw + j) * words_per_tap`).
///
/// Allocated once per output row task and reused across all pixels and
/// filters of the row — the simulated analogue of a work item's private
/// window cache (§VI-B).
#[derive(Debug)]
pub struct WindowGather<W: BitWord> {
    kh: usize,
    row_words: usize,
    window_words: usize,
    buf: Vec<W>,
}

impl<W: BitWord> WindowGather<W> {
    /// A gather buffer for windows of `geom` over `words_per_tap`-word tap
    /// spans.
    pub fn new(geom: &ConvGeometry, words_per_tap: usize) -> Self {
        let row_words = geom.kw * words_per_tap;
        let window_words = geom.kh * row_words;
        Self {
            kh: geom.kh,
            row_words,
            window_words,
            buf: vec![W::zero(); TILE_PIXELS * window_words],
        }
    }

    /// Words in one gathered window.
    pub fn window_words(&self) -> usize {
        self.window_words
    }

    /// The gathered window in slot `slot`.
    #[inline]
    pub fn window(&self, slot: usize) -> &[W] {
        &self.buf[slot * self.window_words..(slot + 1) * self.window_words]
    }

    /// Materializes the (fully in-bounds) window of output pixel
    /// `(n, oy, ox)` into `slot`: `kh` contiguous row copies, each spanning
    /// `kw` packed pixels — the §VI-A.1 vectorized bulk loads.
    #[inline]
    pub fn gather_interior(
        &mut self,
        input: &BitTensor<W>,
        geom: &ConvGeometry,
        n: usize,
        oy: usize,
        ox: usize,
        slot: usize,
    ) {
        let iy0 = oy * geom.stride_h - geom.pad_h;
        let ix0 = ox * geom.stride_w - geom.pad_w;
        let words = input.as_words();
        let dst_base = slot * self.window_words;
        for i in 0..self.kh {
            let src = input.pixel_offset(n, iy0 + i, ix0);
            self.buf[dst_base + i * self.row_words..dst_base + (i + 1) * self.row_words]
                .copy_from_slice(&words[src..src + self.row_words]);
        }
    }
}

/// The in-bounds tap rectangle of a (border) output pixel's window:
/// rows `i0..i1`, columns `j0..j1` of the `kh × kw` tap grid. Everything
/// outside is padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BorderSpan {
    /// First in-bounds window row.
    pub i0: usize,
    /// One past the last in-bounds window row.
    pub i1: usize,
    /// First in-bounds window column.
    pub j0: usize,
    /// One past the last in-bounds window column.
    pub j1: usize,
}

impl BorderSpan {
    /// The valid tap rectangle of output pixel `(oy, ox)` for an input of
    /// `h × w` pixels. Empty ranges (`i0 == i1` or `j0 == j1`) mean the
    /// window is pure padding.
    #[inline]
    pub fn of(geom: &ConvGeometry, h: usize, w: usize, oy: usize, ox: usize) -> Self {
        let clamp = |origin: usize, pad: usize, extent: usize, taps: usize| {
            let lo = pad.saturating_sub(origin).min(taps);
            let hi = (extent + pad).saturating_sub(origin).min(taps);
            (lo, hi.max(lo))
        };
        let (i0, i1) = clamp(oy * geom.stride_h, geom.pad_h, h, geom.kh);
        let (j0, j1) = clamp(ox * geom.stride_w, geom.pad_w, w, geom.kw);
        Self { i0, i1, j0, j1 }
    }

    /// Whether every tap is in bounds.
    #[inline]
    pub fn is_full(&self, geom: &ConvGeometry) -> bool {
        self.i0 == 0 && self.j0 == 0 && self.i1 == geom.kh && self.j1 == geom.kw
    }
}

/// The interior span of output columns for row `oy`: all `ox` in
/// `lo..hi` have fully in-bounds windows (both axes). Returns an empty
/// range when the row itself clips vertically.
#[inline]
pub fn interior_columns(
    geom: &ConvGeometry,
    h: usize,
    w: usize,
    ow: usize,
    oy: usize,
) -> std::ops::Range<usize> {
    let iy0 = oy * geom.stride_h;
    let row_interior = iy0 >= geom.pad_h && iy0 + geom.kh <= h + geom.pad_h;
    if !row_interior {
        return 0..0;
    }
    // ox*stride_w >= pad_w  and  ox*stride_w + kw <= w + pad_w.
    let lo = geom.pad_w.div_ceil(geom.stride_w).min(ow);
    let hi = if w + geom.pad_w >= geom.kw {
        (((w + geom.pad_w - geom.kw) / geom.stride_w) + 1).min(ow)
    } else {
        0
    };
    lo..hi.max(lo)
}

/// Disagreement count of one border pixel against filter `k`: xor+popcount
/// over the valid tap spans (read straight from the input rows, no gather)
/// plus the precomputed popcount of the padding taps.
///
/// Taps are resolved one span at a time through [`FilterAccess`], so
/// dictionary-compressed banks work unchanged — the indices are chased
/// here, outside the xor+popcount inner loop.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn border_disagreement<W: BitWord>(
    input: &BitTensor<W>,
    filters: &(impl FilterAccess<W> + Sync),
    geom: &ConvGeometry,
    span: &BorderSpan,
    n: usize,
    oy: usize,
    ox: usize,
    k: usize,
) -> u32 {
    let mut disagree = 0u32;
    let mut valid_pop = 0u32;
    for i in span.i0..span.i1 {
        let iy = oy * geom.stride_h + i - geom.pad_h;
        for j in span.j0..span.j1 {
            let ix = ox * geom.stride_w + j - geom.pad_w;
            disagree +=
                xor_popcount_vec::<W, 2>(input.pixel_words(n, iy, ix), filters.tap_words(k, i, j));
        }
        valid_pop += filters.row_popcount_range(k, i, span.j0, span.j1);
    }
    // Padding taps: xor(0, w) = w, so they disagree popcount(w) times —
    // looked up, never recomputed.
    disagree + (filters.window_popcount(k) - valid_pop)
}

/// Multiplies up to [`TILE_PIXELS`] equal-length row spans against every
/// filter of `filters` (whose windows must be flat spans of the same
/// length), register-tiled [`TILE_FILTERS`] at a time with a scalar filter
/// tail, calling `emit(row_index, k, disagreement)` per output.
///
/// This is the one filter-loop shared by the direct interior fast path and
/// the lowered bit-GEMM — tile geometry changes land in exactly one place.
/// It runs the hardware-popcount copy of its body when the host has one
/// (see the module docs).
pub fn tile_filters<W: BitWord>(
    rows: &[&[W]],
    filters: &(impl FilterAccess<W> + Sync),
    emit: impl FnMut(usize, usize, u32),
) {
    #[cfg(target_arch = "x86_64")]
    if host_popcnt() {
        // SAFETY: `host_popcnt()` checked that this CPU has POPCNT.
        return unsafe { tile_filters_popcnt(rows, filters, emit) };
    }
    tile_filters_body(rows, filters, emit)
}

/// [`tile_filters_body`] compiled with hardware popcount.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn tile_filters_popcnt<W: BitWord>(
    rows: &[&[W]],
    filters: &(impl FilterAccess<W> + Sync),
    emit: impl FnMut(usize, usize, u32),
) {
    tile_filters_body(rows, filters, emit)
}

/// The body of [`tile_filters`], inlined into both of its copies.
#[inline(always)]
pub(crate) fn tile_filters_body<W: BitWord>(
    rows: &[&[W]],
    filters: &(impl FilterAccess<W> + Sync),
    mut emit: impl FnMut(usize, usize, u32),
) {
    debug_assert!(!rows.is_empty() && rows.len() <= TILE_PIXELS);
    let fs = filters.shape();
    let k_total = fs.k;
    if k_total == 0 {
        return;
    }
    if filters.contiguous_filter(0).is_none() {
        // Dictionary-compressed multi-tap bank: no contiguous window span
        // exists. Instead of re-walking every filter's taps, dot each of
        // the window's taps against every *unique* dictionary row once,
        // then resolve each filter as `kh*kw` table lookups through the
        // index table — the shared-popcount trick that makes the
        // dictionary *cheaper* than the raw walk whenever it deduped.
        let (dict_rows, indices) = filters
            .dictionary()
            .expect("non-contiguous bank must expose its dictionary");
        let wpt = filters.words_per_tap();
        let taps = fs.kh * fs.kw;
        let unique = dict_rows.len().checked_div(wpt).unwrap_or(0);
        let mut table = vec![0u32; taps * unique];
        for (p, row) in rows.iter().enumerate() {
            for t in 0..taps {
                let span = &row[t * wpt..(t + 1) * wpt];
                for (r, slot) in table[t * unique..(t + 1) * unique].iter_mut().enumerate() {
                    *slot = xor_popcount_vec::<W, 2>(span, &dict_rows[r * wpt..(r + 1) * wpt]);
                }
            }
            for k in 0..k_total {
                let mut d = 0u32;
                for (t, &idx) in indices[k * taps..(k + 1) * taps].iter().enumerate() {
                    d += table[t * unique + idx as usize];
                }
                emit(p, k, d);
            }
        }
        return;
    }
    let filter = |k: usize| filters.contiguous_filter(k).expect("contiguous bank");
    let mut k = 0;
    while k + TILE_FILTERS <= k_total {
        let filt: [&[W]; TILE_FILTERS] = std::array::from_fn(|f| filter(k + f));
        if rows.len() == TILE_PIXELS {
            let tile: [&[W]; TILE_PIXELS] = std::array::from_fn(|p| rows[p]);
            let acc = bit_dot_tile(&tile, &filt);
            for (p, row_acc) in acc.iter().enumerate() {
                for (f, &d) in row_acc.iter().enumerate() {
                    emit(p, k + f, d);
                }
            }
        } else {
            // Partial pixel tile: dot each row against the filter quad.
            for (p, row) in rows.iter().enumerate() {
                let acc = bit_dot_tile(&[row], &filt);
                for (f, &d) in acc[0].iter().enumerate() {
                    emit(p, k + f, d);
                }
            }
        }
        k += TILE_FILTERS;
    }
    while k < k_total {
        let fw = filter(k);
        for (p, row) in rows.iter().enumerate() {
            emit(p, k, xor_popcount_vec::<W, 2>(row, fw));
        }
        k += 1;
    }
}

/// Runs the tiled binary convolution over one output row, calling
/// `emit(ox, k, x1)` for every output with the raw ±1 dot value
/// `x1 = kh*kw*C − 2·disagreements` (Eqn 1 summed over taps).
///
/// Interior columns flow through [`WindowGather`] + [`bit_dot_tile`]
/// (pairs of pixels × four filters per step); border columns use segment
/// dots plus tap-popcount tables. `emit` decides what an output *is* —
/// a fused binarize+pack bit, an `i32` accumulator slot — so one driver
/// serves every direct kernel. Like [`tile_filters`], it runs the
/// hardware-popcount copy of its body when the host has one.
#[allow(clippy::too_many_arguments)]
pub fn conv_row_tiled<W: BitWord>(
    input: &BitTensor<W>,
    filters: &(impl FilterAccess<W> + Sync),
    geom: &ConvGeometry,
    gather: &mut WindowGather<W>,
    n: usize,
    oy: usize,
    ow: usize,
    emit: impl FnMut(usize, usize, i32),
) {
    #[cfg(target_arch = "x86_64")]
    if host_popcnt() {
        // SAFETY: `host_popcnt()` checked that this CPU has POPCNT.
        return unsafe { conv_row_tiled_popcnt(input, filters, geom, gather, n, oy, ow, emit) };
    }
    conv_row_tiled_body(input, filters, geom, gather, n, oy, ow, emit)
}

/// [`conv_row_tiled_body`] compiled with hardware popcount.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
#[allow(clippy::too_many_arguments)]
fn conv_row_tiled_popcnt<W: BitWord>(
    input: &BitTensor<W>,
    filters: &(impl FilterAccess<W> + Sync),
    geom: &ConvGeometry,
    gather: &mut WindowGather<W>,
    n: usize,
    oy: usize,
    ow: usize,
    emit: impl FnMut(usize, usize, i32),
) {
    conv_row_tiled_body(input, filters, geom, gather, n, oy, ow, emit)
}

/// The body of [`conv_row_tiled`], inlined into both of its copies.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_row_tiled_body<W: BitWord>(
    input: &BitTensor<W>,
    filters: &(impl FilterAccess<W> + Sync),
    geom: &ConvGeometry,
    gather: &mut WindowGather<W>,
    n: usize,
    oy: usize,
    ow: usize,
    mut emit: impl FnMut(usize, usize, i32),
) {
    let s = input.shape();
    let fs = filters.shape();
    let k_total = fs.k;
    let base = (geom.taps() * fs.c) as i32;
    let interior = interior_columns(geom, s.h, s.w, ow, oy);

    // Interior fast path: up-to-TILE_PIXELS pixel tiles × filter quads.
    let mut ox = interior.start;
    while ox < interior.end {
        let count = (interior.end - ox).min(TILE_PIXELS);
        for p in 0..count {
            gather.gather_interior(input, geom, n, oy, ox + p, p);
        }
        // Unused slots alias the last gathered window; they are sliced off.
        let windows: [&[W]; TILE_PIXELS] = std::array::from_fn(|p| gather.window(p.min(count - 1)));
        tile_filters_body(&windows[..count], filters, |p, k, d| {
            emit(ox + p, k, base - 2 * d as i32)
        });
        ox += count;
    }

    // Border columns on both sides (`emit` writes disjoint slots, so the
    // column order is free).
    for ox in (0..interior.start).chain(interior.end..ow) {
        let span = BorderSpan::of(geom, s.h, s.w, oy, ox);
        for k in 0..k_total {
            let d = border_disagreement(input, filters, geom, &span, n, oy, ox, k);
            emit(ox, k, base - 2 * d as i32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_tensor::bits::PackedFilters;
    use phonebit_tensor::shape::{FilterShape, Shape4};

    fn filters<W: BitWord>(shape: FilterShape, seed: usize) -> PackedFilters<W> {
        let mut f = PackedFilters::zeros(shape);
        for k in 0..shape.k {
            for i in 0..shape.kh {
                for j in 0..shape.kw {
                    for c in 0..shape.c {
                        f.set_bit(
                            k,
                            i,
                            j,
                            c,
                            (k * 31 + i * 7 + j * 3 + c + seed).is_multiple_of(3),
                        );
                    }
                }
            }
        }
        f
    }

    fn bits<W: BitWord>(shape: Shape4, seed: usize) -> BitTensor<W> {
        let mut t = BitTensor::zeros(shape);
        for n in 0..shape.n {
            for h in 0..shape.h {
                for w in 0..shape.w {
                    for c in 0..shape.c {
                        t.set_bit(
                            n,
                            h,
                            w,
                            c,
                            (n * 13 + h * 5 + w * 11 + c + seed).is_multiple_of(2),
                        );
                    }
                }
            }
        }
        t
    }

    #[test]
    fn microkernel_matches_scalar_xor_popcount() {
        let a: Vec<u64> = (0..19).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        let b: Vec<u64> = (0..19)
            .map(|i| (i as u64).wrapping_mul(0x1234567))
            .collect();
        let f0: Vec<u64> = (0..19).map(|i| (i as u64).wrapping_mul(0xABCDEF)).collect();
        let f1: Vec<u64> = (0..19).map(|i| !(i as u64)).collect();
        let acc = bit_dot_tile(&[&a, &b], &[&f0, &f1]);
        for (p, win) in [&a, &b].iter().enumerate() {
            for (f, filt) in [&f0, &f1].iter().enumerate() {
                let scalar: u32 = win
                    .iter()
                    .zip(filt.iter())
                    .map(|(x, y)| (x ^ y).count_ones())
                    .sum();
                assert_eq!(acc[p][f], scalar, "tile ({p},{f})");
            }
        }
    }

    #[test]
    fn gather_interior_matches_tap_walk() {
        let shape = Shape4::new(1, 6, 7, 40);
        let t = bits::<u32>(shape, 1);
        let geom = ConvGeometry::square(3, 1, 1);
        let mut g = WindowGather::new(&geom, t.words_per_pixel());
        g.gather_interior(&t, &geom, 0, 2, 3, 0);
        let win = g.window(0);
        let wpt = t.words_per_pixel();
        for i in 0..3 {
            for j in 0..3 {
                let expect = t.pixel_words(0, 2 + i - 1, 3 + j - 1);
                let got = &win[(i * 3 + j) * wpt..(i * 3 + j + 1) * wpt];
                assert_eq!(got, expect, "tap ({i},{j})");
            }
        }
    }

    #[test]
    fn interior_columns_cover_exactly_full_windows() {
        let geom = ConvGeometry::square(3, 1, 1);
        let (h, w) = (5, 7);
        let (oh, ow) = geom.output_hw(h, w);
        for oy in 0..oh {
            let cols = interior_columns(&geom, h, w, ow, oy);
            for ox in 0..ow {
                let full = BorderSpan::of(&geom, h, w, oy, ox).is_full(&geom);
                assert_eq!(cols.contains(&ox), full, "oy={oy} ox={ox}");
            }
        }
        // Stride-2 asymmetric case.
        let geom = ConvGeometry {
            kh: 1,
            kw: 3,
            stride_h: 1,
            stride_w: 2,
            pad_h: 0,
            pad_w: 1,
        };
        let (oh, ow) = geom.output_hw(3, 9);
        for oy in 0..oh {
            let cols = interior_columns(&geom, 3, 9, ow, oy);
            for ox in 0..ow {
                let full = BorderSpan::of(&geom, 3, 9, oy, ox).is_full(&geom);
                assert_eq!(cols.contains(&ox), full, "oy={oy} ox={ox}");
            }
        }
    }

    #[test]
    fn border_span_empty_for_pure_padding_window() {
        // 1x1 input, 3x3 kernel, pad 2: the corner output windows read only
        // padding in one or both axes.
        let geom = ConvGeometry::square(3, 1, 2);
        let span = BorderSpan::of(&geom, 1, 1, 0, 0);
        assert_eq!((span.i0, span.i1), (2, 3));
        assert_eq!((span.j0, span.j1), (2, 3));
        let span_far = BorderSpan::of(&geom, 1, 1, 4, 4);
        assert_eq!(span_far.i0, span_far.i1, "window past the input is empty");
    }

    #[test]
    fn tiled_row_matches_reference_window_dot() {
        use crate::kernels::bconv::window_dot;
        for (c, k) in [(10usize, 3usize), (37, 5), (64, 9)] {
            let shape = Shape4::new(2, 5, 6, c);
            let fshape = FilterShape::new(k, 3, 3, c);
            let t = bits::<u64>(shape, c);
            let f = filters::<u64>(fshape, k);
            let geom = ConvGeometry::square(3, 1, 1);
            let (oh, ow) = geom.output_hw(shape.h, shape.w);
            let mut gather = WindowGather::new(&geom, t.words_per_pixel());
            for n in 0..shape.n {
                for oy in 0..oh {
                    conv_row_tiled(&t, &f, &geom, &mut gather, n, oy, ow, |ox, kk, x1| {
                        assert_eq!(
                            x1,
                            window_dot(&t, &f, &geom, n, oy, ox, kk),
                            "c={c} n={n} oy={oy} ox={ox} k={kk}"
                        );
                    });
                }
            }
        }
    }
}
