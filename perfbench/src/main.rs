//! End-to-end benchmark of the PhoneBit engine on both of its clocks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <yolo_b1|vgg16_b4_passes|fleet_openloop> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every number is printed with its unit and clock: **host** is the wall
//! time of the Rust kernels producing the bit-exact outputs, **modeled**
//! is the deterministic gpusim device time. The last stdout line is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`) holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) that `BENCHMARK.json` names. See `perfbench/README.md`.

mod check;
mod closed;
mod fleet;
mod metrics;
mod replay;
mod trace;
mod util;

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use phonebit_core::{convert, format};
use phonebit_models::zoo::{self, Variant};
use phonebit_models::{fill_weights, fill_weights_clustered};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// End-to-end metrics the JSON line carries with `--trace 0`: the ones
/// every workload defines and that are never 0.
const END_TO_END: [&str; 5] = [
    "host_img_per_s",
    "host_ms_p50",
    "setup_s",
    "host_peak_mb",
    "modeled_device_mb",
];

/// Per-layer metrics the JSON line carries with `--trace 1`: the ones every
/// workload defines (serving counters read 0 on the closed loops). The
/// printed table holds more (see README).
const PER_LAYER: [&str; 31] = [
    "nn.bitplane.host_ms",
    "nn.bitplane.ns_per_px",
    "nn.bitplane.share",
    "nn.tiled.host_ms",
    "nn.other.host_ms",
    "nn.bitplane.exec_gops",
    "nn.tiled.exec_gops",
    "nn.bgemm.exec_gops",
    "nn.bitplane.dram_mb",
    "nn.tiled.dram_mb",
    "nn.bgemm.dram_mb",
    "tensor.dict.bytes_ratio",
    "format.decode_ms",
    "format.bytes",
    "plan.lower_ms",
    "plan.dispatches_per_img",
    "plan.arena_mb",
    "plan.fused_chains",
    "engine.stage_ms",
    "engine.window_host_ms",
    "engine.alloc_bytes_per_window",
    "gpusim.dram_mb_per_img",
    "gpusim.mem_bound_share",
    "gpusim.alu_util",
    "gpusim.conv1_share",
    "paging.upload_mb",
    "serve.shed_deadline",
    "serve.shed_retry",
    "serve.latency_over_service",
    "fleet.util_max",
    "fleet.util_imbalance",
];

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of the host kernels.
    Host,
    /// Deterministic gpusim device time (or a count derived from it).
    Modeled,
    /// A count or ratio on no clock.
    None,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modeled => "modeled",
            Clock::None => "-",
        }
    }
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations issued (images on the closed loops, requests offered on
    /// the fleet).
    pub attempted: u64,
    /// Operations whose output was wrong or whose call errored.
    pub failed: u64,
    /// Correctness or determinism violations, one line each.
    pub problems: Vec<String>,
    /// Every metric, end-to-end first, in print order.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed under the table.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, clock: Clock) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            clock,
        });
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Digest of every modeled metric's exact bits: runs of one seed must
    /// agree on it.
    fn modeled_digest(&self) -> u64 {
        let vals: Vec<f64> = self
            .metrics
            .iter()
            .filter(|m| m.clock == Clock::Modeled)
            .map(|m| m.value)
            .collect();
        util::digest(&vals)
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["yolo_b1", "vgg16_b4_passes", "fleet_openloop"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (want one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_string())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Prototype filters per conv layer in the clustered VGG16 weights.
const VGG_PROTOTYPES: usize = 8;

/// Generates the workload's models from the seed and returns their `.pbit`
/// bytes. Runs in a child process (`--emit-models`) so the float
/// checkpoints never count toward the benchmark's peak RSS.
fn emit_models(workload: &str, seed: u64) -> Vec<Vec<u8>> {
    let s = |tag| util::mix(seed, tag);
    let models = match workload {
        "yolo_b1" => vec![convert(&fill_weights(
            &zoo::yolov2_tiny(Variant::Binary),
            s(1),
        ))],
        "vgg16_b4_passes" => vec![convert(&fill_weights_clustered(
            &zoo::vgg16(Variant::Binary),
            s(2),
            VGG_PROTOTYPES,
        ))],
        _ => fleet::TENANT_ARCHS
            .iter()
            .enumerate()
            .map(|(t, arch)| convert(&fill_weights(&arch(Variant::Binary), s(10 + t as u64))))
            .collect(),
    };
    models.iter().map(format::write_model).collect()
}

/// Spawns this binary in `--emit-models` mode and reads the length-prefixed
/// `.pbit` blobs from its stdout.
fn load_models(workload: &str, seed: u64) -> Result<Vec<Vec<u8>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--emit-models", workload, &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the model generator: {e}"))?;
    if !out.status.success() {
        return Err(format!("model generator failed: {}", out.status));
    }
    let mut blobs = Vec::new();
    let mut rest = out.stdout.as_slice();
    while rest.len() >= 8 {
        let (len, tail) = rest.split_at(8);
        let len = u64::from_le_bytes(len.try_into().expect("8-byte prefix")) as usize;
        if tail.len() < len {
            return Err("model generator output truncated".into());
        }
        blobs.push(tail[..len].to_vec());
        rest = &tail[len..];
    }
    Ok(blobs)
}

fn print_report(args: &Args, out: &Outcome) {
    println!(
        "\n{:<34} {:>16} {:<8} {:<8}",
        "metric", "value", "unit", "clock"
    );
    for m in &out.metrics {
        println!(
            "{:<34} {:>16} {:<8} {:<8}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.clock.label()
        );
    }
    for n in &out.notes {
        println!("{n}");
    }
    println!(
        "modeled digest {:016x} (bit-identical across runs of seed {})",
        out.modeled_digest(),
        args.seed
    );
    println!(
        "correctness: {} attempted, {} failed, {} problem(s)",
        out.attempted,
        out.failed,
        out.problems.len()
    );
    for p in out.problems.iter().take(20) {
        println!("  FAIL: {p}");
    }
    if out.problems.len() > 20 {
        println!("  ... and {} more", out.problems.len() - 20);
    }
}

fn json_line(args: &Args, out: &Outcome) -> Result<String, String> {
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for name in names {
        let m = out
            .get(name)
            .ok_or_else(|| format!("workload did not produce metric `{name}`"))?;
        if !m.value.is_finite() {
            return Err(format!("metric `{name}` is not finite"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--emit-models") {
        let (Some(workload), Some(seed)) = (argv.get(2), argv.get(3).and_then(|s| s.parse().ok()))
        else {
            eprintln!("usage: --emit-models <workload> <seed>");
            return ExitCode::from(2);
        };
        let mut stdout = std::io::stdout().lock();
        for blob in emit_models(workload, seed) {
            let ok = stdout.write_all(&(blob.len() as u64).to_le_bytes()).is_ok()
                && stdout.write_all(&blob).is_ok();
            if !ok {
                return ExitCode::from(1);
            }
        }
        return if stdout.flush().is_ok() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} | host threads {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let blobs = match load_models(&args.workload, args.seed) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let mut tracer = trace::Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "yolo_b1" => closed::run(&args, &closed::YOLO_B1, &blobs[0], &mut tracer),
        "vgg16_b4_passes" => closed::run(&args, &closed::VGG16_B4_PASSES, &blobs[0], &mut tracer),
        _ => fleet::run(&args, &blobs, &mut tracer),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    print_report(&args, &out);
    if tracer.enabled() {
        let dir = std::path::Path::new("perfbench").join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, tracer.to_chrome_json()))
        {
            Ok(()) => println!("wrote {} spans to {}", tracer.len(), path.display()),
            Err(e) => println!("could not write the trace to {}: {e}", path.display()),
        }
    }
    match json_line(&args, &out) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    }
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
