//! The repository benchmark: batch-1 edge latency and cold start, with
//! per-crate attribution (including an open-loop serving probe).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload resnet18-b1 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! probes and prints the per-layer metrics. The last stdout line is the
//! result as one JSON object. See `perfbench/README.md`.

mod check;
mod host;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use check::Tally;
use host::Host;
use report::{json_str, result_line, Metrics, END_TO_END, PER_LAYER};
use trace::Tracer;
use workload::{Error, Prepared, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <resnet18-b1|mobilenet-b1> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or(bad("workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The untraced run. Cold starts alternate with slices of the timed phase,
/// so each run measures [`Workload::setups`] separately loaded networks
/// (one resident at a time) and the latency does not hinge on one load's
/// memory layout.
fn end_to_end(a: &Args, p: &Prepared, tally: &mut Tally) -> Result<(Metrics, String), Error> {
    let slices = p.workload.setups();
    let mut setups = Vec::with_capacity(slices);
    let mut latencies = Vec::new();
    let mut wall = Duration::ZERO;
    for _ in 0..slices {
        let (seconds, mut session) = workload::setup(p, tally)?;
        setups.push(seconds);
        let min_samples = stats::MIN_SAMPLES_FOR_P99.div_ceil(slices);
        let run = workload::closed_loop(
            &mut session,
            p,
            a.seconds / slices as f64,
            min_samples,
            tally,
        );
        latencies.extend(run.latencies_ms);
        wall += run.wall;
    }
    if stats::beyond(latencies.len(), 0.99) < 10 {
        return Err(format!("{} samples are too few for a p99", latencies.len()).into());
    }
    let completed = latencies.len();
    let latencies = stats::sorted(latencies);
    let mut m = Metrics::default();
    m.set("setup_s", stats::median(&setups));
    m.set("latency_p50_ms", stats::quantile(&latencies, 0.5));
    m.set("throughput_ips", completed as f64 / wall.as_secs_f64());
    m.set("peak_rss_mib", host::peak_rss_mib());
    // The tail is recorded but carries no bound: on the shared reference
    // host it could not be held steady (see perfbench/README.md, "Noise").
    let tail = format!(
        ", \"samples\": {completed}, \"latency_p90_ms\": {}, \"latency_p99_ms\": {}",
        stats::quantile(&latencies, 0.9),
        stats::quantile(&latencies, 0.99)
    );
    Ok((m, tail))
}

fn run(a: &Args) -> Result<(), Error> {
    let host = Host::calibrate();
    let name = report::WORKLOADS
        .iter()
        .find(|n| Workload::from_name(n) == Some(a.workload))
        .expect("every workload has a name");
    let p = workload::prepare(a.workload, a.seed)?;
    let mut tally = Tally::default();
    let (metrics, spec, extra): (Metrics, &[(&str, &str)], String) = if a.trace {
        let mut tracer = Tracer::new();
        let m = traced::traced_run(&p, a.seconds, a.seed, &host, &mut tally, &mut tracer)?;
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{name}-seed{}.json", a.seed));
        std::fs::write(&path, tracer.to_json())?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        println!(
            "{:<24} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (span, t) in tracer.totals() {
            println!(
                "{span:<24} {:>8} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        (m, &PER_LAYER, String::new())
    } else {
        let (m, extra) = end_to_end(a, &p, &mut tally)?;
        (m, &END_TO_END, extra)
    };
    println!(
        "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"git_sha\": {}, \"trace\": {}, \"nproc\": {}, \"cpu_model\": {}, \"gemm_dispatch\": {}, \"gemm_peak_gflops\": {}{extra}}}}}",
        json_str(name),
        a.seed,
        json_str(&host::git_sha()),
        a.trace,
        host.nproc,
        json_str(&host.cpu_model),
        json_str(host.gemm_dispatch),
        host.peak_gflops,
    );
    for (metric, unit) in spec {
        if let Some(v) = metrics.get(metric) {
            println!("{metric:<28} {v:>14.4} {unit}");
        }
    }
    println!(
        "{}",
        result_line(
            tally.mismatched == 0,
            tally.attempted.max(1),
            tally.failed(),
            &metrics,
            spec
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
