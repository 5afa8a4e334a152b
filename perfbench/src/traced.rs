//! The traced run: per-crate attribution from timed public calls.
//!
//! Every number here comes from spans the harness records around its own
//! calls into the library crates; the library's global recorder stays off.

use std::sync::Arc;
use std::time::{Duration, Instant};

use orpheus::{Engine, Network, Session};
use orpheus_graph::passes::PassManager;
use orpheus_serve::Server;
use orpheus_tensor::{SmallRng, Tensor};

use crate::check::Tally;
use crate::host::Host;
use crate::replay;
use crate::report::Metrics;
use crate::serve::{open_loop, poisson_schedule, OpenLoop};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{self, server_config, Error, Prepared, MAX_BATCH};

/// Salt separating the serve probe's arrival-schedule stream from the
/// input-pool stream of the same seed.
const SCHEDULE_STREAM: u64 = 0x5eed_a11c_0f5e_ed00;

/// What the traced cold-start chain leaves behind for the later probes.
struct Chain {
    engine: Engine,
    network: Network,
    session: Session,
}

/// Phase times of the traced cold-start chain, one entry per repetition.
#[derive(Default)]
struct Phases {
    import: Vec<f64>,
    simplify: Vec<f64>,
    verify: Vec<f64>,
    load: Vec<f64>,
    session: Vec<f64>,
    first_run: Vec<f64>,
}

/// The cold-start chain split at each crate boundary: import, simplify,
/// verify, load with simplification off, session, first run.
fn traced_setup(
    p: &Prepared,
    tally: &mut Tally,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(Phases, Chain), Error> {
    let mut ph = Phases::default();
    let mut chain = None;
    for rep in 0..p.workload.setups() {
        drop(chain.take());
        let root = tracer.begin("setup", Some(rep as u64));
        let s = tracer.begin("onnx.import", None);
        let mut graph = orpheus_onnx::import_model(&p.onnx)?;
        ph.import.push(tracer.end(s));
        m.set("graph.nodes_in", graph.nodes().len() as f64);
        let s = tracer.begin("graph.simplify", None);
        PassManager::standard().run_to_fixpoint(&mut graph)?;
        ph.simplify.push(tracer.end(s));
        m.set("graph.nodes_out", graph.nodes().len() as f64);
        let s = tracer.begin("verify.graph", None);
        let diagnostics = orpheus_verify::verify_graph(&graph);
        ph.verify.push(tracer.end(s));
        if orpheus_verify::has_errors(&diagnostics) {
            return Err(format!("simplified graph fails verification: {diagnostics:?}").into());
        }
        let s = tracer.begin("core.load", None);
        let engine = Engine::builder().threads(1).simplification(false).build()?;
        let network = engine.load(graph)?;
        ph.load.push(tracer.end(s));
        let s = tracer.begin("core.session", None);
        let mut session = network.session();
        ph.session.push(tracer.end(s));
        let s = tracer.begin("core.first_run", None);
        let output = session.run(&p.inputs[0]);
        ph.first_run.push(tracer.end(s));
        match output {
            Ok(output) => tally.output(output, &p.references[0]),
            Err(e) => tally.error(&e),
        }
        tracer.end(root);
        chain = Some(Chain {
            engine,
            network,
            session,
        });
    }
    Ok((ph, chain.expect("at least one set-up")))
}

/// Runs per block before switching between untraced and traced runs.
const BLOCK: usize = 20;

/// Steady-state `Session::run` in alternating untraced and traced blocks
/// for `seconds`. Returns the traced median in ms and the traced run's
/// relative overhead over the untraced one.
fn steady(
    session: &mut Session,
    p: &Prepared,
    seconds: f64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> (f64, f64) {
    for x in &p.inputs {
        let _ = session.run(x);
    }
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed() < budget || traced.len() < 2 * BLOCK {
        for trace in [false, true] {
            for _ in 0..BLOCK {
                let i = k % p.inputs.len();
                let t0 = Instant::now();
                let span = trace.then(|| tracer.begin("core.run", Some(k as u64)));
                k += 1;
                let output = session.run(&p.inputs[i]);
                let ms = match span {
                    Some(span) => tracer.end(span),
                    None => t0.elapsed().as_secs_f64() * 1e3,
                };
                match output {
                    Ok(output) => {
                        tally.output(output, &p.references[i]);
                        (if trace { &mut traced } else { &mut plain }).push(ms);
                    }
                    Err(e) => tally.error(&e),
                }
            }
        }
        if start.elapsed() > workload::MAX_PHASE {
            break;
        }
    }
    let run_ms = stats::median(&traced);
    (run_ms, run_ms / stats::median(&plain) - 1.0)
}

/// `inputs[0..batch]` (cycling) stacked along the batch dimension.
fn stack(inputs: &[Tensor], batch: usize) -> Result<Tensor, Error> {
    let mut dims = inputs[0].dims().to_vec();
    dims[0] = batch;
    let data: Vec<f32> = (0..batch)
        .flat_map(|i| inputs[i % inputs.len()].as_slice().iter().copied())
        .collect();
    Ok(Tensor::from_vec(data, &dims)?)
}

/// `Session::run` at each rung of the batch ladder; per-input µs.
fn buckets(
    network: &Network,
    p: &Prepared,
    tally: &mut Tally,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), Error> {
    let mut session = network.session();
    let rungs = [
        (1, "core.bucket1_us_per_input"),
        (2, "core.bucket2_us_per_input"),
        (4, "core.bucket4_us_per_input"),
        (8, "core.bucket8_us_per_input"),
    ];
    for (batch, metric) in rungs {
        let input = stack(&p.inputs, batch)?;
        let span_name = format!("core.bucket{batch}");
        session.run(&input)?;
        let mut ms = Vec::new();
        let start = Instant::now();
        while ms.len() < 5 || (start.elapsed() < Duration::from_millis(300) && ms.len() < 200) {
            let span = tracer.begin(&span_name, None);
            let output = session.run(&input);
            ms.push(tracer.end(span));
            let output = output?;
            let classes = output.len() / batch;
            for (row, values) in output.as_slice().chunks(classes).enumerate() {
                let row_out = Tensor::from_vec(values.to_vec(), &[1, classes])?;
                tally.output(&row_out, &p.references[row % p.references.len()]);
            }
        }
        m.set(metric, stats::median(&ms) * 1e3 / batch as f64);
    }
    Ok(())
}

/// Open-loop probe of `server`, recorded as request spans afterwards (the
/// generator's own loop is the untraced one) and summarised into the
/// `serve.*` rows.
#[allow(clippy::too_many_arguments)]
fn serve_probe(
    server: &Server,
    p: &Prepared,
    rate: f64,
    seconds: f64,
    seed: u64,
    tally: &mut Tally,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), Error> {
    let mut rng = SmallRng::seed_from_u64(seed ^ SCHEDULE_STREAM);
    let warmup = poisson_schedule(&mut rng, rate, 0.3, p.inputs.len());
    open_loop(
        server,
        &p.inputs,
        &p.references,
        &warmup,
        &mut Tally::default(),
    );
    let schedule = poisson_schedule(&mut rng, rate, seconds, p.inputs.len());
    let root = tracer.begin("serve.probe", None);
    let run: OpenLoop = open_loop(server, &p.inputs, &p.references, &schedule, tally);
    for (idx, r) in run.records.iter().enumerate() {
        let req = Some(idx as u64);
        let end = r.done.unwrap_or(r.submit_end);
        let parent = tracer.record("serve.request", r.due, end, root, req);
        tracer.record("serve.submit", r.submit_start, r.submit_end, parent, req);
    }
    tracer.end(root);
    if run.completed() == 0 {
        return Err("serve probe completed no request".into());
    }
    let submit_us: Vec<f64> = run
        .records
        .iter()
        .map(|r| (r.submit_end - r.submit_start).as_secs_f64() * 1e6)
        .collect();
    let waits = stats::sorted(
        run.records
            .iter()
            .filter(|r| r.done.is_some())
            .map(|r| r.queue_wait.as_secs_f64() * 1e3)
            .collect(),
    );
    let s = run.stats;
    let completed = run.completed() as f64;
    let via_reference = run.records.iter().filter(|r| r.reference_route).count();
    m.set("serve.requests", run.records.len() as f64);
    m.set("serve.submit_us", stats::median(&submit_us));
    m.set("serve.queue_wait_p50_ms", stats::quantile(&waits, 0.5));
    m.set("serve.queue_wait_p90_ms", stats::quantile(&waits, 0.9));
    m.set(
        "serve.batch_mean",
        if s.batches == 0 {
            // No coalesced run: every request ran alone.
            1.0
        } else {
            s.batched_requests as f64 / s.batches as f64
        },
    );
    m.set("serve.batched_frac", s.batched_requests as f64 / completed);
    m.set("serve.reference_frac", via_reference as f64 / completed);
    m.set(
        "serve.backlog_max",
        run.records.iter().map(|r| r.backlog).max().unwrap_or(0) as f64,
    );
    m.set(
        "serve.gen_late_ms",
        stats::quantile(&stats::sorted(run.lateness_ms()), 0.9),
    );
    Ok(())
}

/// The whole traced run of one workload.
pub fn traced_run(
    p: &Prepared,
    seconds: f64,
    seed: u64,
    host: &Host,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<Metrics, Error> {
    let mut m = Metrics::default();
    m.set("gemm.peak_gflops", host.peak_gflops);
    m.set("onnx.model_bytes", p.onnx.len() as f64);

    // The untraced cold start, the base of `setup.coverage`.
    let setup_s = (0..p.workload.setups())
        .map(|_| workload::setup(p, tally).map(|(s, _)| s))
        .collect::<Result<Vec<f64>, Error>>()?;
    let setup_ms = stats::median(&setup_s) * 1e3;

    let (ph, chain) = traced_setup(p, tally, tracer, &mut m)?;
    let phases = [
        ("onnx.import_ms", &ph.import),
        ("graph.simplify_ms", &ph.simplify),
        ("verify.graph_ms", &ph.verify),
        ("core.load_ms", &ph.load),
        ("core.session_ms", &ph.session),
        ("core.first_run_ms", &ph.first_run),
    ];
    let mut chain_ms = 0.0;
    for (metric, times) in phases {
        let ms = stats::median(times);
        m.set(metric, ms);
        chain_ms += ms;
    }
    m.set("setup.coverage", chain_ms / setup_ms);

    let Chain {
        engine,
        network,
        mut session,
    } = chain;
    let (run_ms, overhead) = steady(&mut session, p, seconds / 2.0, tally, tracer);
    m.set("core.run_ms", run_ms);
    m.set("trace.overhead_frac", overhead);
    m.set("core.arena_kib", session.arena_bytes() as f64 / 1024.0);
    m.set(
        "core.arena_measured_kib",
        session.measured_arena_bytes() as f64 / 1024.0,
    );
    drop(session);

    // The replay rebuilds layers from the graph the network was loaded
    // from: imported and simplified again here, outside the set-up chain.
    let mut graph = orpheus_onnx::import_model(&p.onnx)?;
    PassManager::standard().run_to_fixpoint(&mut graph)?;
    let summary = network.plan_summary();
    let r = replay::replay(&graph, &summary, &engine, REPLAY_REPS, seed, tracer)?;
    drop((graph, network, engine));
    m.set("ops.conv_gemm_ms", r.conv_gemm_ms);
    m.set("ops.conv_depthwise_ms", r.conv_depthwise_ms);
    m.set("ops.pool_ms", r.pool_ms);
    m.set("ops.dense_ms", r.dense_ms);
    m.set("ops.other_ms", r.other_ms);
    m.set("ops.coverage", r.ops_total_ms() / run_ms);
    m.set("gemm.im2col_ms", r.im2col_ms);
    m.set("gemm.prepacked_ms", r.prepacked_ms);
    let gflops = r.gemm_flops as f64 / (r.prepacked_ms * 1e6);
    m.set("gemm.gflops", gflops);
    m.set("gemm.pct_peak", 100.0 * gflops / host.peak_gflops);
    m.set(
        "gemm.small_n_gflops",
        r.small_n_flops as f64 / (r.small_n_ms * 1e6),
    );
    m.set("gemm.flops", r.gemm_flops as f64);
    m.set("gemm.bytes", r.gemm_bytes as f64);

    // The bucket ladder and the serve probe share one network loaded for
    // batches up to eight. The probe offers half of the single-caller
    // capacity, so the queue stays stable and the batcher still coalesces.
    let batched = Arc::new(
        Engine::builder()
            .threads(1)
            .max_batch(MAX_BATCH)
            .build()?
            .load_onnx(&p.onnx)?,
    );
    buckets(&batched, p, tally, tracer, &mut m)?;
    let server = Server::start(batched, server_config());
    let probe = serve_probe(
        &server,
        p,
        0.5 * 1e3 / run_ms,
        seconds / 4.0,
        seed,
        tally,
        tracer,
        &mut m,
    );
    let drain = server.shutdown();
    if !drain.clean {
        tally.error(&format!("unclean drain: {drain:?}"));
    }
    probe?;
    Ok(m)
}

/// Repetitions per layer in the replay; each layer reports its median.
const REPLAY_REPS: usize = 21;
