//! Before/after report for the tiled binary-convolution hot path.
//!
//! Measures host wall-clock medians of the seed reference kernel and the
//! tiled kernel on the paper's 3×3 layer shapes — and of the per-tap
//! bit-plane reference and the gathered kernel on YOLOv2-Tiny's and
//! AlexNet's 8-bit first layers — prints the speedup table,
//! verifies bit-exact equality while doing so, and writes
//! `BENCH_bconv.json` (shape, path, median ns — plus ns/pixel) so future
//! PRs have a perf trajectory to compare against.
//!
//! Run: `cargo run --release -p phonebit-bench --bin bconv_report`
//! (`-- --out <path>` to redirect the JSON; `-- --quick` for CI smoke;
//! `-- --min-speedup X` to exit nonzero if any shape's tiled-vs-reference
//! speedup falls below `X`; `-- --check-baseline <path>` to diff this
//! run against a committed `BENCH_bconv.json` — same shape/path entries
//! required, and each tiled or gathered median may regress at most
//! `--max-regression` × (default 5, sized for noisy shared runners) —
//! the CI guards that keep the hot path from rotting.)

use std::time::Instant;

use phonebit_bench::baseline::{diff_rows, json_escape, parse_rows, Better, Row};
use phonebit_nn::fuse::FusedBn;
use phonebit_nn::kernels::bconv::{compute_bconv_fused, compute_bconv_fused_reference};
use phonebit_nn::kernels::bitplane::{
    compute_bitplane_conv_fused, compute_bitplane_conv_fused_reference,
};
use phonebit_tensor::bitplane::BitPlanes;
use phonebit_tensor::bits::BitTensor;
use phonebit_tensor::pack::{pack_f32, pack_filters};
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Shape4};
use phonebit_tensor::tensor::{Filters, Tensor};

/// Identity + guarded metric of the entries this bin writes, for the
/// shared baseline differ.
const KEY_FIELDS: [&str; 2] = ["shape", "path"];
const METRIC: &str = "ns_per_pixel";

struct Measurement {
    shape: String,
    path: &'static str,
    median_ns: f64,
    ns_per_pixel: f64,
}

impl Measurement {
    fn row(&self) -> Row {
        Row {
            key: vec![self.shape.clone(), self.path.to_string()],
            value: self.ns_per_pixel,
        }
    }
}

fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Checks `fast` bit-exact against `reference` on one output shape, times
/// both, prints the table row and records both measurements. Returns the
/// speedup.
fn measure_pair(
    results: &mut Vec<Measurement>,
    samples: usize,
    name: &str,
    fast_path: &'static str,
    out_shape: Shape4,
    reference: impl Fn(&mut BitTensor<u64>),
    fast: impl Fn(&mut BitTensor<u64>),
) -> f64 {
    // Equality first: the fast kernel must be bit-exact vs the reference.
    let mut a = BitTensor::<u64>::zeros(out_shape);
    let mut b = BitTensor::<u64>::zeros(out_shape);
    reference(&mut a);
    fast(&mut b);
    assert_eq!(a, b, "{fast_path} kernel diverged from reference on {name}");

    let time = |kernel: &dyn Fn(&mut BitTensor<u64>)| {
        median_ns(samples, || {
            let mut out = BitTensor::<u64>::zeros(out_shape);
            kernel(&mut out);
            std::hint::black_box(&out);
        })
    };
    let t_ref = time(&reference);
    let t_fast = time(&fast);
    let pixels = out_shape.pixels() as f64;
    let speedup = t_ref / t_fast;
    println!(
        "{:<32} {:>14.1} {:>14.1} {:>8.2}x  ({fast_path})",
        name,
        t_ref / pixels,
        t_fast / pixels,
        speedup
    );
    for (path, median_ns) in [("reference", t_ref), (fast_path, t_fast)] {
        results.push(Measurement {
            shape: name.into(),
            path,
            median_ns,
            ns_per_pixel: median_ns / pixels,
        });
    }
    speedup
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_bconv.json")
        .to_string();
    let numeric_flag = |flag: &str| -> Option<f64> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|s| {
                s.parse().unwrap_or_else(|_| {
                    eprintln!("error: {flag} expects a number, got `{s}`");
                    std::process::exit(2);
                })
            })
    };
    let min_speedup: Option<f64> = numeric_flag("--min-speedup");
    let baseline_path = args
        .iter()
        .position(|a| a == "--check-baseline")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let max_regression = numeric_flag("--max-regression").unwrap_or(5.0);
    let samples = if quick { 3 } else { 15 };

    // The paper's YOLOv2-Tiny 3x3 binary layers with C >= 64, plus an odd
    // channel count to keep the tail-word path honest.
    let shapes: &[(&str, usize, usize, usize)] = &[
        ("conv3_104x104_c64_k64", 104, 64, 64),
        ("conv4_52x52_c128_k128", 52, 128, 128),
        ("conv5_26x26_c128_k256", 26, 128, 256),
        ("odd_30x30_c100_k36", 30, 100, 36),
    ];
    let geom = ConvGeometry::square(3, 1, 1);

    println!(
        "{:<32} {:>14} {:>14} {:>9}  (median of {samples}, ns/pixel)",
        "shape", "reference", "fast", "speedup"
    );
    let mut results: Vec<Measurement> = Vec::new();
    let mut worst_speedup = f64::INFINITY;
    for &(name, hw, cin, k) in shapes {
        let input = Tensor::from_fn(Shape4::new(1, hw, hw, cin), |_, h, w, ch| {
            if (h * 7 + w * 3 + ch) % 3 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        let filters = Filters::from_fn(FilterShape::new(k, 3, 3, cin), |kk, i, j, ch| {
            if (kk + i + j + ch) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        let packed_in = pack_f32::<u64>(&input);
        let packed_f = pack_filters::<u64>(&filters);
        let fused = FusedBn::identity(k);
        let speedup = measure_pair(
            &mut results,
            samples,
            name,
            "tiled",
            Shape4::new(1, hw, hw, k),
            |out| compute_bconv_fused_reference(&packed_in, &packed_f, &fused, &geom, out),
            |out| compute_bconv_fused(&packed_in, &packed_f, &fused, &geom, out),
        );
        worst_speedup = worst_speedup.min(speedup);
    }

    // The first layer (§III-B Eqn 2 over 8 bit-planes): YOLOv2-Tiny's and
    // AlexNet's conv1, per-tap reference oracle vs the gathered kernel.
    let conv1: &[(&str, usize, usize, ConvGeometry)] = &[
        (
            "yolo_conv1_416x416_c3_k16",
            416,
            16,
            ConvGeometry::square(3, 1, 1),
        ),
        (
            "alexnet_conv1_227x227_c3_k96_s4",
            227,
            96,
            ConvGeometry::square(11, 4, 0),
        ),
    ];
    for &(name, hw, k, geom) in conv1 {
        let image = Tensor::from_fn(Shape4::new(1, hw, hw, 3), |_, h, w, ch| {
            ((h * 83 + w * 19 + ch * 7) % 256) as u8
        });
        let filters = Filters::from_fn(FilterShape::new(k, geom.kh, geom.kw, 3), |kk, i, j, ch| {
            if (kk * 11 + i * 3 + j * 5 + ch * 17) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        let planes = BitPlanes::<u64>::split(&image);
        let packed_f = pack_filters::<u64>(&filters);
        // Thresholds inside the accumulator range, so outputs carry both
        // bit values.
        let fused = FusedBn {
            xi: (0..k)
                .map(|kk| (kk as f32 - k as f32 / 2.0) * 40.0)
                .collect(),
            gamma_pos: (0..k).map(|kk| kk % 3 != 0).collect(),
        };
        let (oh, ow) = geom.output_hw(hw, hw);
        let speedup = measure_pair(
            &mut results,
            samples,
            name,
            "gathered",
            Shape4::new(1, oh, ow, k),
            |out| compute_bitplane_conv_fused_reference(&planes, &packed_f, &fused, &geom, out),
            |out| compute_bitplane_conv_fused(&planes, &packed_f, &fused, &geom, out),
        );
        worst_speedup = worst_speedup.min(speedup);
    }
    println!("\nworst-case speedup: {worst_speedup:.2}x");

    let mut json =
        String::from("{\n  \"bench\": \"bconv\",\n  \"unit\": \"ns\",\n  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shape\": \"{}\", \"path\": \"{}\", \"median_ns\": {:.0}, \"ns_per_pixel\": {:.1}}}{}\n",
            json_escape(&m.shape),
            m.path,
            m.median_ns,
            m.ns_per_pixel,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    if let Some(floor) = min_speedup {
        if worst_speedup < floor {
            eprintln!(
                "error: worst-case tiled speedup {worst_speedup:.2}x is below the required {floor:.2}x floor"
            );
            std::process::exit(1);
        }
        println!("speedup floor {floor:.2}x satisfied");
    }

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read baseline {path}: {e}");
            std::process::exit(1);
        });
        let baseline = parse_rows(&text, &KEY_FIELDS, METRIC);
        if baseline.is_empty() {
            eprintln!("error: baseline {path} holds no parsable entries");
            std::process::exit(1);
        }
        let current: Vec<Row> = results.iter().map(Measurement::row).collect();
        // Only the fast paths (tiled, gathered) are regression-gated: the
        // reference kernels are kept for the speedup denominator, not
        // guarded.
        let failures = diff_rows(
            &baseline,
            &current,
            max_regression,
            Better::Lower,
            "BENCH_bconv.json",
            "ns/px",
            |row| row.key[1] != "reference",
        );
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("baseline diff: {f}");
            }
            std::process::exit(1);
        }
        println!(
            "baseline diff vs {path}: {} entries matched, no regression beyond {max_regression:.1}x",
            baseline.len()
        );
    }
}
