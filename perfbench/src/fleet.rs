//! `fleet_openloop`: seeded Poisson arrivals on the modeled clock, three
//! micro tenants with a Zipf 1.2 rate split and per-tenant SLOs, served by
//! a two-device fleet (a Xiaomi 9 with ~5% transient dispatch faults and a
//! Xiaomi 5) behind the power-of-two-choices router, two streams per
//! device. A ladder of three offered rates (0.5×, 1×, 2× of a nominal
//! rate) is served repeatedly for the run's duration; each pass builds a
//! fresh fleet, as `Fleet` requires.
//!
//! Latency is anchored to each request's scheduled arrival by
//! construction. Arrivals are generated before the pass, so the
//! generator is never late.

use std::time::Instant;

use phonebit_core::serve::{TenantSpec, TenantTraffic};
use phonebit_core::{
    format, zipf_rates, ActivationData, ArrivalProcess, ExecutionPlan, Fleet, FleetDeviceSpec,
    FleetOptions, FleetOutcome, FleetRequestFate, PbitModel, RouteOverrides, RoutePolicy,
    ShedReason, StagedModel, Stream,
};
use phonebit_gpusim::{FaultPlan, Phone};
use phonebit_models::synthetic_image;
use phonebit_models::zoo::{self, Variant};
use phonebit_nn::graph::NetworkArch;
use phonebit_tensor::Tensor;

use crate::check::{reference_output, same_output};
use crate::metrics::{median_tally, push_layer_metrics, setup_reps_left, ModelShape, SetupTimes};
use crate::replay::{Replayer, Tally};
use crate::trace::{count_alloc_bytes, Tracer};
use crate::util::{median, mix, peak_rss_mb};
use crate::{Args, Clock, Outcome};

/// The tenants, in tenant order.
pub const TENANT_ARCHS: [fn(Variant) -> NetworkArch; 3] =
    [zoo::yolo_micro, zoo::alexnet_micro, zoo::yolo_micro];

/// Per-tenant p95 SLOs, milliseconds (the hot tenant's is tightest).
const SLO_MS: [f64; 3] = [10.0, 12.0, 15.0];

/// Window size every tenant asks admission for. Left to admission, an SLO
/// tenant gets the largest batch whose *service* time fits the SLO; at
/// these rates such windows cannot fill before their deadlines and nearly
/// every request sheds, so the ladder would measure nothing but shedding.
const TENANT_BATCH: usize = 4;

/// Zipf skew of the tenant rate split.
const ZIPF: f64 = 1.2;

/// Total offered rate of the nominal rung, requests/s: set near where
/// `serve_p95_ms` first passes the SLO.
const NOMINAL_RPS: f64 = 16000.0;

/// Offered-rate ladder, as multiples of the nominal rate.
const RUNGS: [f64; 3] = [0.5, 1.0, 2.0];

/// Index of the nominal rung in [`RUNGS`].
const NOMINAL: usize = 1;

/// Requests the nominal rung offers per pass (sets the modeled horizon):
/// enough that at least 200 are served, so 10 samples lie beyond p95.
const NOMINAL_REQUESTS: f64 = 240.0;

/// Nominal passes every run makes, however short `--seconds` is.
const MIN_NOMINAL_PASSES: usize = 3;

/// Distinct seeded images per tenant; request `i` sends image `i % POOL`.
const POOL: usize = 8;

/// Transient dispatch failure rate injected on the Xiaomi 9.
const FAULT_RATE: f64 = 0.05;

fn devices(seed: u64) -> Vec<FleetDeviceSpec> {
    vec![
        FleetDeviceSpec::new(Phone::xiaomi_9())
            .with_fault(FaultPlan::new(mix(seed, 7)).with_failure_rate(FAULT_RATE)),
        FleetDeviceSpec::new(Phone::xiaomi_5()),
    ]
}

fn options(seed: u64) -> FleetOptions {
    FleetOptions {
        policy: RoutePolicy::PowerOfTwo,
        seed: mix(seed, 8),
        replicas: 2,
        streams: 2,
        ..FleetOptions::default()
    }
}

fn specs(models: &[PbitModel]) -> Vec<TenantSpec> {
    models
        .iter()
        .enumerate()
        .map(|(t, m)| {
            let mut spec = TenantSpec::new(m.clone())
                .with_slo_ms(SLO_MS[t])
                .with_batch(TENANT_BATCH);
            spec.name = format!("tenant{t}");
            spec
        })
        .collect()
}

/// One rung's seeded traffic: per-tenant arrival times and request images.
struct Rung {
    rate_rps: f64,
    arrivals: Vec<Vec<f64>>,
    requests: Vec<Vec<Tensor<u8>>>,
}

/// What the fleet did with one tenant's requests at one rung, from the
/// per-request fates.
#[derive(Default)]
struct FateCounts {
    shed_deadline: usize,
    shed_retry: usize,
    shed_unplaced: usize,
}

fn count_fates(outcome: &FleetOutcome) -> FateCounts {
    let mut c = FateCounts::default();
    for fate in outcome.fates.iter().flatten() {
        match fate {
            FleetRequestFate::Served { .. } => {}
            FleetRequestFate::Shed {
                reason: Some(ShedReason::DeadlinePast),
                ..
            } => c.shed_deadline += 1,
            FleetRequestFate::Shed {
                reason: Some(ShedReason::RetriesExhausted),
                ..
            } => c.shed_retry += 1,
            FleetRequestFate::Shed { reason: None, .. } => c.shed_unplaced += 1,
        }
    }
    c
}

/// Whether every tenant's p95 over **offered** requests (a shed request
/// counts as missing the SLO) meets its SLO.
fn meets_slo(outcome: &FleetOutcome) -> bool {
    outcome.fates.iter().enumerate().all(|(t, fates)| {
        if fates.is_empty() {
            return true;
        }
        let lat: Vec<f64> = fates
            .iter()
            .map(|f| match f {
                FleetRequestFate::Served { latency_ms, .. } => *latency_ms,
                FleetRequestFate::Shed { .. } => f64::INFINITY,
            })
            .collect();
        let mut v = lat;
        v.sort_by(f64::total_cmp);
        let k = ((0.95 * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
        v[k] <= SLO_MS[t]
    })
}

/// Solo (batch-1, single-stream) results of one tenant: outputs per pool
/// image, median host seconds per run, modeled ms, and its plan's shape.
struct Solo {
    outputs: Vec<ActivationData>,
    host_s: f64,
    modeled_ms: f64,
    shape: ModelShape,
}

fn solo(model: &PbitModel, images: &[Tensor<u8>]) -> Result<Solo, String> {
    let staged = StagedModel::stage(model.clone(), &Phone::xiaomi_9(), 1)
        .map_err(|e| format!("solo staging: {e}"))?;
    let mut stream =
        Stream::new(std::sync::Arc::clone(&staged)).map_err(|e| format!("solo stream: {e}"))?;
    let mut outputs = Vec::new();
    let mut host = Vec::new();
    let mut last = None;
    for img in images {
        let t = Instant::now();
        let mut r = stream.run_u8(img).map_err(|e| format!("solo run: {e}"))?;
        host.push(t.elapsed().as_secs_f64());
        outputs.push(r.output.take().expect("output capture is on"));
        last = Some(r);
    }
    let last = last.ok_or("solo: no images")?;
    Ok(Solo {
        outputs,
        host_s: median(&host),
        modeled_ms: last.total_s * 1e3,
        shape: ModelShape::of(&staged, &last, stream.timeline()),
    })
}

pub fn run(args: &Args, blobs: &[Vec<u8>], tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seed = args.seed;

    // Set-up: decode every tenant, then place and admit them on the fleet.
    let mut setup = SetupTimes::default();
    let mut models = Vec::new();
    let mut device_mb = 0.0;
    while setup_reps_left(&setup.total) {
        let span = tracer.begin("setup", Tracer::root(), None);
        let t0 = Instant::now();
        models = blobs
            .iter()
            .map(|b| format::read_model(b).map_err(|e| format!("read_model: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let t1 = Instant::now();
        let fleet = Fleet::new(devices(seed), specs(&models), options(seed))
            .map_err(|e| format!("fleet admission: {e}"))?;
        let t2 = Instant::now();
        tracer.end(span);
        device_mb = placement_mb(&fleet, &models, seed);
        setup.decode.push((t1 - t0).as_secs_f64());
        setup.stage.push((t2 - t1).as_secs_f64());
        setup.total.push((t2 - t0).as_secs_f64());
    }
    setup.lower = (0..setup.total.len())
        .map(|_| {
            let t = Instant::now();
            for m in &models {
                let plan = ExecutionPlan::for_model_batched_with(
                    m,
                    &Phone::xiaomi_9().gpu,
                    1,
                    RouteOverrides::default(),
                );
                std::hint::black_box(plan.is_ok());
            }
            t.elapsed().as_secs_f64()
        })
        .collect();

    // Inputs: per-tenant image pools and per-rung seeded arrivals.
    let pools: Vec<Vec<Tensor<u8>>> = models
        .iter()
        .enumerate()
        .map(|(t, m)| {
            (0..POOL)
                .map(|i| synthetic_image(m.input, mix(seed, 200 + (t * POOL + i) as u64)))
                .collect()
        })
        .collect();
    // One modeled horizon for every rung, so a rung above capacity builds
    // a backlog over the same span the nominal rung is measured on. Each
    // tenant offers exactly its expected count over that horizon (the
    // first `rate × horizon` arrivals of its seeded Poisson stream), so
    // the host work of a pass does not vary with the seed.
    let duration_ms = NOMINAL_REQUESTS / NOMINAL_RPS * 1e3;
    let rungs: Vec<Rung> = RUNGS
        .iter()
        .enumerate()
        .map(|(r, mult)| {
            let rate = NOMINAL_RPS * mult;
            let arrivals: Vec<Vec<f64>> = zipf_rates(rate, models.len(), ZIPF)
                .iter()
                .enumerate()
                .map(|(t, &rt)| {
                    let count = (rt * duration_ms / 1e3).round() as usize;
                    let mut times = ArrivalProcess::poisson(rt)
                        .times_ms(mix(seed, 300 + (r * 8 + t) as u64), 4.0 * duration_ms);
                    if times.len() < count {
                        return Err(format!(
                            "tenant {t}: only {} of {count} arrivals",
                            times.len()
                        ));
                    }
                    times.truncate(count);
                    Ok(times)
                })
                .collect::<Result<_, String>>()?;
            let requests = arrivals
                .iter()
                .enumerate()
                .map(|(t, a)| (0..a.len()).map(|i| pools[t][i % POOL].clone()).collect())
                .collect();
            Ok(Rung {
                rate_rps: rate,
                arrivals,
                requests,
            })
        })
        .collect::<Result<_, String>>()?;

    // Solo reference results, off the clock.
    let solos: Vec<Solo> = models
        .iter()
        .zip(&pools)
        .map(|(m, p)| solo(m, p))
        .collect::<Result<_, _>>()?;
    // The traced run replays each tenant's plan at the window size the
    // fleet serves it with.
    let window_stagings: Vec<_> = if args.trace {
        models
            .iter()
            .map(|m| StagedModel::stage(m.clone(), &Phone::xiaomi_9(), TENANT_BATCH))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("replay staging: {e}"))?
    } else {
        Vec::new()
    };
    let replayers: Vec<Replayer<'_>> = window_stagings.iter().map(|s| Replayer::new(s)).collect();

    let mut last: Vec<Option<FleetOutcome>> = (0..RUNGS.len()).map(|_| None).collect();
    let mut nominal_pass_s = Vec::new();
    let mut nominal_req_s = Vec::new();
    let mut nominal_served = 0usize;
    let mut shed_total = 0usize;
    let mut alloc_per_req = Vec::new();
    let mut traced_req_s = Vec::new();
    let mut untraced_req_s = Vec::new();
    let mut tallies = Vec::new();
    // The off-nominal rungs run once each (their modeled results are
    // deterministic); the nominal rung then repeats for the rest of the
    // run and carries every host metric.
    let ladder: Vec<usize> = (0..RUNGS.len()).filter(|&r| r != NOMINAL).collect();
    let t_start = Instant::now();
    let mut pass = 0usize;
    let mut nominal_passes = 0usize;
    while pass < ladder.len() + MIN_NOMINAL_PASSES || t_start.elapsed().as_secs_f64() < args.seconds
    {
        let r = ladder.get(pass).copied().unwrap_or(NOMINAL);
        let rung = &rungs[r];
        let traffic: Vec<TenantTraffic<'_>> =
            rung.requests.iter().map(|q| TenantTraffic::U8(q)).collect();
        let mut fleet = Fleet::new(devices(seed), specs(&models), options(seed))
            .map_err(|e| format!("fleet admission: {e}"))?;
        let traced = args.trace && r == NOMINAL && nominal_passes % 2 == 1;
        let span = if traced {
            tracer.begin("fleet.serve_open_loop", Tracer::root(), Some(pass as u64))
        } else {
            Tracer::root()
        };
        let t = Instant::now();
        let (result, bytes) = if traced {
            count_alloc_bytes(|| fleet.serve_open_loop(&traffic, &rung.arrivals, &[]))
        } else {
            (fleet.serve_open_loop(&traffic, &rung.arrivals, &[]), 0)
        };
        let dt = t.elapsed().as_secs_f64();
        tracer.end(span);
        pass += 1;
        let offered: usize = rung.arrivals.iter().map(Vec::len).sum();
        out.attempted += offered as u64;
        let outcome = match result {
            Ok(o) => {
                shed_total += o.report.shed;
                o
            }
            Err(e) => {
                out.failed += offered as u64;
                out.problems.push(format!("pass {pass} rung {r}: {e}"));
                continue;
            }
        };
        // Every served output must equal its solo result.
        for (t, outs) in outcome.outputs.iter().enumerate() {
            for (i, o) in outs.iter().enumerate() {
                if o.as_ref()
                    .is_some_and(|o| !same_output(o, &solos[t].outputs[i % POOL]))
                {
                    out.failed += 1;
                    out.problems.push(format!(
                        "pass {pass} rung {r}: tenant {t} request {i} differs from its solo result"
                    ));
                }
            }
        }
        if r == NOMINAL {
            let served = outcome.report.served;
            nominal_served += served;
            nominal_pass_s.push(dt);
            let per_req = dt / served.max(1) as f64;
            nominal_req_s.push(per_req);
            if traced {
                traced_req_s.push(per_req);
                alloc_per_req.push(bytes as f64 / served.max(1) as f64);
                let span = tracer.begin("replay", Tracer::root(), Some(pass as u64));
                tallies.push(mix_tally(&replayers, &outcome, seed, pass, tracer, span));
                tracer.end(span);
            } else {
                untraced_req_s.push(per_req);
            }
            nominal_passes += 1;
        }
        // The modeled clock must repeat exactly, pass after pass.
        match &last[r] {
            Some(prev) if prev.report != outcome.report => out.problems.push(format!(
                "modeled clock is not deterministic: rung {r} pass {pass} report differs (bug)"
            )),
            _ => {}
        }
        last[r] = Some(outcome);
    }

    let peak_mb = peak_rss_mb();

    // Correctness gate, off the clock: every solo output against the
    // reference walk.
    for (t, (m, p)) in models.iter().zip(&pools).enumerate() {
        for (i, img) in p.iter().enumerate() {
            if !same_output(&solos[t].outputs[i], &reference_output(m, img)) {
                out.failed += 1;
                out.problems.push(format!(
                    "tenant {t} image {i}: solo output differs from the reference"
                ));
            }
        }
    }

    let nominal = last[NOMINAL]
        .as_ref()
        .ok_or("the nominal rung never completed")?;
    let rep = &nominal.report;
    let fates = count_fates(nominal);
    let share = |t: usize| rep.tenants[t].served as f64 / rep.served.max(1) as f64;
    let slo_rate = last
        .iter()
        .zip(&rungs)
        .filter(|(o, _)| o.as_ref().is_some_and(meets_slo))
        .map(|(_, r)| r.rate_rps)
        .fold(0.0, f64::max);

    let nominal_s: f64 = nominal_pass_s.iter().sum();
    out.push(
        "host_img_per_s",
        nominal_served as f64 / nominal_s,
        "img/s",
        Clock::Host,
    );
    out.push(
        "host_ms_p50",
        median(&nominal_req_s) * 1e3,
        "ms",
        Clock::Host,
    );
    out.push("setup_s", median(&setup.total), "s", Clock::Host);
    out.push("host_peak_mb", peak_mb, "MB", Clock::Host);
    out.push("modeled_device_mb", device_mb, "MB", Clock::Modeled);
    out.push("serve_p50_ms", rep.p50_ms, "ms", Clock::Modeled);
    out.push("serve_p95_ms", rep.p95_ms, "ms", Clock::Modeled);
    out.push(
        "goodput_rps",
        rep.goodput_imgs_per_s,
        "req/s",
        Clock::Modeled,
    );
    out.push("slo_rate_rps", slo_rate, "req/s", Clock::Modeled);
    out.push(
        "fail_rate",
        (shed_total as u64 + out.failed) as f64 / out.attempted.max(1) as f64,
        "ratio",
        Clock::None,
    );
    out.notes.push(format!(
        "nominal rung {NOMINAL_RPS} req/s: {} offered, {} served, {} shed; host_ms_p50 is the median over {} serve_open_loop passes of pass wall per served request",
        rep.offered,
        rep.served,
        rep.shed,
        nominal_pass_s.len()
    ));
    for (r, o) in last.iter().enumerate() {
        if let Some(o) = o {
            out.notes.push(format!(
                "rung {:>6.0} req/s: offered {:>4} served {:>4} shed {:>4} p50 {:>8.3} ms p95 {:>8.3} ms goodput {:>8.1} req/s slo {}",
                rungs[r].rate_rps,
                o.report.offered,
                o.report.served,
                o.report.shed,
                o.report.p50_ms,
                o.report.p95_ms,
                o.report.goodput_imgs_per_s,
                if meets_slo(o) { "met" } else { "missed" }
            ));
        }
    }
    out.notes.push(
        "open loop: latency anchored to each request's scheduled arrival; arrivals pre-generated, generator lateness 0 ms"
            .into(),
    );

    // Per-layer metrics.
    let utils: Vec<f64> = rep.devices.iter().map(|d| d.utilization).collect();
    let util_max = utils.iter().copied().fold(0.0, f64::max);
    let util_mean = utils.iter().sum::<f64>() / utils.len().max(1) as f64;
    let solo_modeled_ms: f64 = (0..solos.len())
        .map(|t| share(t) * solos[t].modeled_ms)
        .sum();
    let solo_host_s: f64 = (0..solos.len()).map(|t| share(t) * solos[t].host_s).sum();
    let host_per_req_s = nominal_s / nominal_served.max(1) as f64;
    out.push(
        "serve.shed_deadline",
        fates.shed_deadline as f64,
        "count",
        Clock::Modeled,
    );
    out.push(
        "serve.shed_retry",
        fates.shed_retry as f64,
        "count",
        Clock::Modeled,
    );
    out.push(
        "serve.shed_unplaced",
        fates.shed_unplaced as f64,
        "count",
        Clock::Modeled,
    );
    out.push(
        "serve.latency_over_service",
        rep.p50_ms / solo_modeled_ms,
        "ratio",
        Clock::Modeled,
    );
    out.push(
        "serve.host_ms_per_req",
        host_per_req_s * 1e3,
        "ms",
        Clock::Host,
    );
    out.push(
        "serve.host_overhead_ms_per_req",
        (host_per_req_s - solo_host_s) * 1e3,
        "ms",
        Clock::Host,
    );
    out.push("fleet.util_max", util_max, "ratio", Clock::Modeled);
    out.push(
        "fleet.util_imbalance",
        if util_mean > 0.0 {
            util_max / util_mean
        } else {
            0.0
        },
        "ratio",
        Clock::Modeled,
    );

    setup.push(&mut out, blobs.iter().map(Vec::len).sum());
    // Plan shape and launch stats of the tenants' solo plans, weighted by
    // each tenant's share of served requests.
    let parts: Vec<(f64, &ModelShape)> = solos
        .iter()
        .enumerate()
        .map(|(t, s)| (share(t), &s.shape))
        .collect();
    ModelShape::mix(&parts).push(&mut out);
    if args.trace {
        if tallies.is_empty() {
            return Err("--trace 1 needs at least two passes; raise --seconds".into());
        }
        // On the fleet a "window" is one served request.
        let window_s = median(&traced_req_s);
        push_layer_metrics(&mut out, &median_tally(&tallies), window_s);
        out.push(
            "engine.alloc_bytes_per_window",
            median(&alloc_per_req),
            "bytes",
            Clock::Host,
        );
        let untraced = median(&untraced_req_s);
        out.notes.push(format!(
            "tracing overhead: traced host ms/request {:.4} vs untraced {:.4} ({:+.2}%); {} traced passes replayed",
            window_s * 1e3,
            untraced * 1e3,
            (window_s / untraced - 1.0) * 100.0,
            tallies.len()
        ));
    }
    Ok(out)
}

/// Replays each tenant's window plan once and mixes the per-request
/// tallies by the tenants' share of served requests: per-layer host time
/// per request.
fn mix_tally(
    replayers: &[Replayer<'_>],
    outcome: &FleetOutcome,
    seed: u64,
    pass: usize,
    tracer: &mut Tracer,
    span: crate::trace::SpanId,
) -> Tally {
    let rep = &outcome.report;
    let mut mixed = Tally::default();
    for (t, rp) in replayers.iter().enumerate() {
        let tally = rp.replay(
            mix(seed, 2000 + (pass * 8 + t) as u64),
            tracer,
            span,
            pass as u64,
        );
        let share = rep.tenants[t].served as f64 / rep.served.max(1) as f64;
        mixed.add_scaled(&tally, share / TENANT_BATCH as f64);
    }
    mixed
}

/// Device bytes the fleet's placement holds: on every device, each placed
/// tenant's batch-1 weights plus `streams` copies of the largest placed
/// tenant's staged arena (the footprint admission charges), MB.
fn placement_mb(fleet: &Fleet, models: &[PbitModel], seed: u64) -> f64 {
    let specs = devices(seed);
    let streams = options(seed).streams;
    let mut bytes = 0usize;
    for (d, spec) in specs.iter().enumerate() {
        let mut arena = 0usize;
        for &t in fleet.roster(d) {
            let plan = ExecutionPlan::for_model_batched_with(
                &models[t],
                &spec.phone.gpu,
                1,
                RouteOverrides::default(),
            )
            .expect("admitted tenants lower");
            bytes += plan.weights_bytes;
            arena = arena.max(plan.staged_arena_bytes());
        }
        bytes += streams * arena;
    }
    bytes as f64 / 1e6
}
