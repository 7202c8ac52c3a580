//! The two closed-loop workloads: one client sends its next window only
//! after the previous one returns.
//!
//! - `yolo_b1`: full binary YOLOv2-Tiny, 416×416, random-sign weights,
//!   Xiaomi 9, default routes, `Stream::run_u8`.
//! - `vgg16_b4_passes`: full binary VGG16, 224×224, clustered weights,
//!   batch-4 windows on a primed double-banked arena (`run_batch_u8`),
//!   fusion + compression on and a weight budget of half the staged
//!   weight bytes (paging).

use std::sync::Arc;
use std::time::Instant;

use phonebit_bench::paper::TABLE3_SD855;
use phonebit_core::{
    format, ActivationData, CompressionMode, ExecutionPlan, FusionMode, PbitModel, RouteOverrides,
    StagedModel, Stream,
};
use phonebit_gpusim::Phone;
use phonebit_models::synthetic_image;
use phonebit_models::zoo::{self, Variant};
use phonebit_nn::graph::NetworkArch;
use phonebit_tensor::Tensor;

use crate::check::{reference_output, same_output};
use crate::metrics::{median_tally, push_layer_metrics, setup_reps_left, ModelShape, SetupTimes};
use crate::replay::Replayer;
use crate::trace::{count_alloc_bytes, Tracer};
use crate::util::{median, mix, peak_rss_mb};
use crate::{Args, Clock, Outcome};

/// One closed-loop workload's fixed configuration.
pub struct ClosedLoop {
    arch: fn(Variant) -> NetworkArch,
    batch: usize,
    /// Fusion + compression + half-budget paging (else default routes).
    passes: bool,
    /// Distinct seeded images the client cycles through; every one is
    /// checked against the reference.
    pool: usize,
}

pub const YOLO_B1: ClosedLoop = ClosedLoop {
    arch: zoo::yolov2_tiny,
    batch: 1,
    passes: false,
    pool: 2,
};

pub const VGG16_B4_PASSES: ClosedLoop = ClosedLoop {
    arch: zoo::vgg16,
    batch: 4,
    passes: true,
    pool: 4,
};

/// The opt-in passes this workload stages with. The weight budget is
/// half the weights the fused + compressed plan stages.
fn overrides_for(
    cfg: &ClosedLoop,
    model: &PbitModel,
    phone: &Phone,
) -> Result<RouteOverrides, String> {
    if !cfg.passes {
        return Ok(RouteOverrides::default());
    }
    let base = RouteOverrides {
        fusion: FusionMode::Auto,
        compression: CompressionMode::Auto,
        ..RouteOverrides::default()
    };
    let plan = ExecutionPlan::for_model_batched_with(model, &phone.gpu, cfg.batch, base)
        .map_err(|e| format!("lowering failed: {e}"))?;
    Ok(RouteOverrides {
        weight_budget: Some(plan.weights_bytes / 2),
        ..base
    })
}

/// Serving-layer metrics the fleet defines and the closed loops report as 0.
const SERVING_METRICS: [&str; 5] = [
    "serve.shed_deadline",
    "serve.shed_retry",
    "serve.latency_over_service",
    "fleet.util_max",
    "fleet.util_imbalance",
];

/// Output of image `j` of a window (the whole output for batch 1).
fn image_output(out: &ActivationData, j: usize, batch: usize) -> ActivationData {
    if batch == 1 {
        out.clone()
    } else {
        out.image(j)
    }
}

pub fn run(
    args: &Args,
    cfg: &ClosedLoop,
    blob: &[u8],
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let phone = Phone::xiaomi_9();
    let mut out = Outcome::default();

    // Set-up: `.pbit` bytes -> decoded model -> lowered, staged, streamed.
    let mut setup = SetupTimes::default();
    let mut stream = None;
    let mut overrides = RouteOverrides::default();
    while setup_reps_left(&setup.total) {
        let span = tracer.begin("setup", Tracer::root(), None);
        let t0 = Instant::now();
        let model = format::read_model(blob).map_err(|e| format!("read_model: {e}"))?;
        let t1 = Instant::now();
        overrides = overrides_for(cfg, &model, &phone)?;
        let staged = StagedModel::stage_opts(model, &phone, cfg.batch, overrides)
            .map_err(|e| format!("staging: {e}"))?;
        let s = Stream::new(staged).map_err(|e| format!("stream: {e}"))?;
        let t2 = Instant::now();
        tracer.end(span);
        setup.decode.push((t1 - t0).as_secs_f64());
        setup.stage.push((t2 - t1).as_secs_f64());
        setup.total.push((t2 - t0).as_secs_f64());
        stream = Some(s);
    }
    let mut stream = stream.expect("at least one set-up");
    let staged = Arc::clone(stream.staged());
    setup.lower = (0..setup.total.len())
        .map(|_| {
            let t = Instant::now();
            let plan = ExecutionPlan::for_model_batched_with(
                staged.model(),
                &phone.gpu,
                cfg.batch,
                overrides,
            );
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box(plan.is_ok());
            dt
        })
        .collect();

    // Inputs: a seeded pool of images; window `w` takes the pool rotated
    // by `w`, so every image passes through every window slot.
    let shape = (cfg.arch)(Variant::Binary).input;
    let pool: Vec<Tensor<u8>> = (0..cfg.pool)
        .map(|i| synthetic_image(shape, mix(args.seed, 100 + i as u64)))
        .collect();
    let windows: Vec<Vec<Tensor<u8>>> = (0..cfg.pool)
        .map(|w| {
            (0..cfg.batch)
                .map(|j| pool[(w + j) % cfg.pool].clone())
                .collect()
        })
        .collect();
    let replayer = args.trace.then(|| Replayer::new(&staged));

    let mut host_s = Vec::new();
    let mut traced_host_s = Vec::new();
    let mut untraced_host_s = Vec::new();
    let mut tallies = Vec::new();
    let mut alloc_bytes = Vec::new();
    let mut modeled: Vec<(f64, f64, usize)> = Vec::new();
    let mut first_seen: Vec<Option<ActivationData>> = vec![None; cfg.pool];
    let mut last_report = None;
    let t_start = Instant::now();
    let mut w = 0usize;
    // Two windows at least: the double-banked stream's steady (primed)
    // window is its second, and the traced run alternates.
    while w < 2 || t_start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && w % 2 == 1;
        let window = &windows[w % cfg.pool];
        let span = if traced {
            tracer.begin("engine.window", Tracer::root(), Some(w as u64))
        } else {
            Tracer::root()
        };
        let t = Instant::now();
        let run = |s: &mut Stream| {
            if cfg.batch == 1 {
                s.run_u8(&window[0])
            } else {
                s.run_batch_u8(window)
            }
        };
        let (report, bytes) = if traced {
            count_alloc_bytes(|| run(&mut stream))
        } else {
            (run(&mut stream), 0)
        };
        let dt = t.elapsed().as_secs_f64();
        tracer.end(span);
        out.attempted += cfg.batch as u64;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.failed += cfg.batch as u64;
                out.problems.push(format!("window {w}: {e}"));
                w += 1;
                continue;
            }
        };
        host_s.push(dt);
        if args.trace {
            if traced {
                traced_host_s.push(dt);
                alloc_bytes.push(bytes as f64);
            } else {
                untraced_host_s.push(dt);
            }
        }
        modeled.push((report.total_s, report.energy_j, report.peak_bytes));
        // Every output of every window must equal the first output seen
        // for that image (checked against the reference below), whatever
        // slot of the window it ran in.
        let output = report.output.as_ref().expect("output capture is on");
        for j in 0..cfg.batch {
            let id = (w + j) % cfg.pool;
            let o = image_output(output, j, cfg.batch);
            match &first_seen[id] {
                None => first_seen[id] = Some(o),
                Some(prev) if same_output(prev, &o) => {}
                Some(_) => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "window {w} slot {j}: image {id} output differs from its earlier run"
                    ));
                }
            }
        }
        last_report = Some(report);
        if let (true, Some(rp)) = (traced, replayer.as_ref()) {
            let span = tracer.begin("replay", Tracer::root(), Some(w as u64));
            tallies.push(rp.replay(mix(args.seed, 1000 + w as u64), tracer, span, w as u64));
            tracer.end(span);
        }
        w += 1;
    }
    if modeled.is_empty() {
        return Err("every window failed".into());
    }
    let images = host_s.len() * cfg.batch;
    let measured_s: f64 = host_s.iter().sum();
    let peak_mb = peak_rss_mb();

    // Correctness gate, off the clock: every pool image's engine output
    // against the reference walk.
    let model = staged.model();
    for (id, img) in pool.iter().enumerate() {
        let span = tracer.begin("reference", Tracer::root(), Some(id as u64));
        let want = reference_output(model, img);
        tracer.end(span);
        match &first_seen[id] {
            Some(got) if same_output(got, &want) => {}
            Some(_) => {
                out.failed += 1;
                out.problems.push(format!(
                    "image {id}: engine output differs from the reference"
                ));
            }
            None => out.problems.push(format!("image {id}: never ran")),
        }
    }

    // Determinism on the modeled clock: a batch-1 stream pays the cold
    // overhead every window; a double-banked stream only on the first.
    let steady = if cfg.batch == 1 {
        0
    } else {
        1.min(modeled.len() - 1)
    };
    let (total_s, energy_j, peak_bytes) = *modeled.last().expect("checked non-empty");
    for (i, m) in modeled.iter().enumerate().skip(steady) {
        if m.0.to_bits() != total_s.to_bits()
            || m.1.to_bits() != energy_j.to_bits()
            || m.2 != peak_bytes
        {
            out.problems.push(format!(
                "modeled clock is not deterministic: window {i} differs (bug)"
            ));
        }
    }

    let b = cfg.batch as f64;
    out.push(
        "host_img_per_s",
        images as f64 / measured_s,
        "img/s",
        Clock::Host,
    );
    out.push("host_ms_p50", median(&host_s) * 1e3, "ms", Clock::Host);
    out.push("setup_s", median(&setup.total), "s", Clock::Host);
    out.push("host_peak_mb", peak_mb, "MB", Clock::Host);
    out.push(
        "modeled_ms_per_img",
        total_s * 1e3 / b,
        "ms",
        Clock::Modeled,
    );
    out.push(
        "modeled_mj_per_img",
        energy_j * 1e3 / b,
        "mJ",
        Clock::Modeled,
    );
    out.push(
        "modeled_device_mb",
        peak_bytes as f64 / 1e6,
        "MB",
        Clock::Modeled,
    );
    out.push(
        "fail_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        Clock::None,
    );
    out.notes.push(format!(
        "host_ms_p50 is the median of {} {}-image window calls; host_img_per_s counts {images} verified images",
        host_s.len(),
        cfg.batch
    ));
    out.notes.push(format!(
        "window host ms: {}",
        host_s
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if cfg.batch == 1 {
        if let Some(paper) = TABLE3_SD855[1][5].ms() {
            out.notes.push(format!(
                "paper Table III SD855 PhoneBit YOLOv2-Tiny: {paper} ms; modeled/paper = {:.3} (informational)",
                total_s * 1e3 / paper
            ));
        }
    }

    // Per-layer metrics: set-up pieces, plan shape, gpusim launch stats.
    setup.push(&mut out, blob.len());
    let report = last_report.expect("checked non-empty");
    ModelShape::of(&staged, &report, stream.timeline()).push(&mut out);
    // No serving layer on a closed loop: its counters read 0.
    for name in SERVING_METRICS {
        let unit = if name.starts_with("serve.shed") {
            "count"
        } else {
            "ratio"
        };
        out.push(name, 0.0, unit, Clock::Modeled);
    }
    if args.trace {
        if tallies.is_empty() {
            return Err("--trace 1 needs at least two windows; raise --seconds".into());
        }
        let window_host_s = median(&traced_host_s);
        push_layer_metrics(&mut out, &median_tally(&tallies), window_host_s);
        out.push(
            "engine.alloc_bytes_per_window",
            median(&alloc_bytes),
            "bytes",
            Clock::Host,
        );
        let traced = median(&traced_host_s);
        let untraced = median(&untraced_host_s);
        out.notes.push(format!(
            "tracing overhead: traced window p50 {:.3} ms vs untraced {:.3} ms ({:+.2}%; host_img_per_s {:.3} vs {:.3}); \
             {} traced windows replayed",
            traced * 1e3,
            untraced * 1e3,
            (traced / untraced - 1.0) * 100.0,
            b / traced,
            b / untraced,
            tallies.len()
        ));
    }
    Ok(out)
}
