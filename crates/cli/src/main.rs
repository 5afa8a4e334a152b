//! `orpheus-cli` — the experiment runner binary.
//!
//! ```text
//! orpheus-cli bench [--quick] [--full] [--models a,b] [--threads N] [--iters N]
//!                   [--warmup N] [--rounds N] [--out F] [--compare BASELINE.json]
//!                   [--budget-pct X] [--arena-pct X] [--alloc-budget N]
//! orpheus-cli figure2 [--quick] [--repeats N] [--threads N] [--models a,b]
//!                     [--include-darknet] [--csv] [--trace-out F] [--metrics-out F]
//! orpheus-cli table1 [--measured]
//! orpheus-cli profile --model M [--personality P] [--hw N] [--runs N] [--report]
//!                     [--trace-out F] [--events-out F] [--metrics-out F]
//! orpheus-cli repeat --model M [--personality P] [--hw N] [--runs N] [--warmup N] [--no-reuse] [--json]
//! orpheus-cli layers --model M [--personality P] [--hw N]
//! orpheus-cli depthwise [--hw N]
//! orpheus-cli simplify --model M [--hw N] [--repeats N]
//! orpheus-cli inspect --model M
//! orpheus-cli sweep [--channels a,b] [--hws a,b] [--k N] [--stride N]
//! orpheus-cli policy --model M [--hw N] [--repeats N]
//! orpheus-cli export --model M --out FILE.onnx
//! orpheus-cli lint (FILE.onnx | --model M|all) [--hw N] [--max-batch N] [--check-plan] [--json]
//! orpheus-cli fuzz [--model M|all] [--iters N] [--seed N]
//! orpheus-cli serve --model M [--load-gen] [--workers N] [--queue-depth N]
//!                   [--max-batch N] [--batch-wait-us N]
//!                   [--deadline-ms N] [--requests N] [--clients N]
//!                   [--fault NEEDLE] [--fault-mode error|panic|panic-first:N|flaky:PERMILLE[:SEED]]
//!                   [--breaker-threshold N] [--breaker-cooldown-ms N] [--drain-timeout-ms N]
//! ```
//!
//! `bench --compare` exits with code 2 when a metric regresses past its
//! budget, so CI can distinguish a performance regression from a usage
//! error (exit 1). On any runtime error the binary dumps the flight
//! recorder to stderr for post-mortem context.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::process::ExitCode;

use orpheus::Personality;
use orpheus_cli::{
    bench_filename, compare, profile_model, render_layer_profile, run_bench,
    run_depthwise_ablation, run_figure2, run_layer_sweep, run_repeat, run_simplify_ablation,
    run_table1, run_traced_profile, with_recording, BenchConfig, BenchReport, CompareBudgets,
    Figure2Config, InputScale,
};
use orpheus_graph::passes::PassManager;
use orpheus_models::{build_model, ModelKind};
use orpheus_observe::{json::JsonValue, FlightEvent, SpanRecord};

// Counting allocator: lets `bench` report steady-state allocations per run
// (the session executor's contract is zero). The library crate forbids
// unsafe code; this binary is its own crate root, and the counting shim is
// the same one `crates/core/tests/zero_alloc.rs` uses to prove the
// invariant. The counter is per-thread, so the single-threaded bench reads
// exactly its own traffic.
thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn alloc_count() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

struct CountingAlloc;

fn bump() {
    // `try_with` so allocations during thread teardown never panic.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            let events = orpheus_observe::flight_snapshot();
            if !events.is_empty() {
                eprintln!();
                eprintln!("flight recorder (recent events, oldest first):");
                eprint!("{}", orpheus_observe::flight_render(&events));
            }
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  orpheus-cli bench [--quick] [--full] [--models a,b] [--threads N] [--iters N] [--warmup N] [--rounds N] [--max-batch N] [--out F] [--compare BASELINE.json] [--budget-pct X] [--arena-pct X] [--alloc-budget N]
  orpheus-cli figure2 [--quick] [--repeats N] [--threads N] [--models a,b] [--include-darknet] [--csv] [--trace-out F] [--metrics-out F]
  orpheus-cli table1 [--measured]
  orpheus-cli profile --model M [--personality P] [--hw N] [--threads N] [--runs N] [--report] [--trace-out F] [--events-out F] [--metrics-out F] [--openmetrics-out F] [--flight-out F]
  orpheus-cli repeat --model M [--personality P] [--hw N] [--threads N] [--runs N] [--warmup N] [--no-reuse] [--json]
  orpheus-cli layers --model M [--personality P] [--hw N]
  orpheus-cli depthwise [--hw N]
  orpheus-cli simplify --model M [--hw N] [--repeats N]
  orpheus-cli inspect --model M
  orpheus-cli sweep [--channels a,b] [--hws a,b] [--k N] [--stride N]
  orpheus-cli export --model M --out FILE.onnx
  orpheus-cli policy --model M [--hw N] [--repeats N]
  orpheus-cli validate (--model M | --onnx FILE) [--hw N]
  orpheus-cli lint (FILE.onnx | --model M|all) [--hw N] [--max-batch N] [--check-plan] [--json]
  orpheus-cli fuzz [--model M|all] [--iters N] [--seed N]
  orpheus-cli serve --model M [--load-gen] [--hw N] [--threads N] [--workers N] [--queue-depth N] [--max-batch N] [--batch-wait-us N] [--deadline-ms N] [--requests N] [--clients N] [--fault NEEDLE] [--fault-mode error|panic|panic-first:N|flaky:PERMILLE[:SEED]] [--breaker-threshold N] [--breaker-cooldown-ms N] [--drain-timeout-ms N] [--openmetrics-out F] [--flight-out F] [--metrics-out F]";

/// Tiny `--flag value` argument scanner.
struct Args<'a> {
    args: &'a [String],
}

impl<'a> Args<'a> {
    fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} expects an integer, got {v:?}")),
        }
    }

    fn f64_or(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} expects a number, got {v:?}")),
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(command) = argv.first() else {
        return Err("missing subcommand".into());
    };
    let args = Args { args: &argv[1..] };
    match command.as_str() {
        "bench" => {
            let mut config = if args.flag("--quick") {
                BenchConfig::quick()
            } else {
                BenchConfig::default()
            };
            if args.flag("--full") {
                config.scale = InputScale::Full;
            }
            if let Some(list) = args.value("--models") {
                config.models = list
                    .split(',')
                    .map(|name| {
                        ModelKind::from_name(name).ok_or_else(|| format!("unknown model {name:?}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            config.threads = args.usize_or("--threads", config.threads)?;
            config.iters = args.usize_or("--iters", config.iters)?;
            config.warmup = args.usize_or("--warmup", config.warmup)?;
            config.rounds = args.usize_or("--rounds", config.rounds)?;
            config.max_batch = args.usize_or("--max-batch", config.max_batch)?.max(1);
            config.alloc_counter = Some(alloc_count);

            let report = run_bench(&config).map_err(|e| e.to_string())?;
            print!("{}", report.render());

            let out = args
                .value("--out")
                .map(str::to_string)
                .unwrap_or_else(|| bench_filename(&config.git_sha));
            std::fs::write(&out, format!("{:#}\n", report.to_json()))
                .map_err(|e| format!("writing {out:?}: {e}"))?;
            println!(
                "bench report written to {out} (schema v{})",
                report.schema_version
            );

            if let Some(base_path) = args.value("--compare") {
                let text = std::fs::read_to_string(base_path)
                    .map_err(|e| format!("reading baseline {base_path:?}: {e}"))?;
                let baseline = BenchReport::from_json(&text)
                    .map_err(|e| format!("parsing baseline {base_path:?}: {e}"))?;
                let budgets = CompareBudgets {
                    latency_pct: args.f64_or("--budget-pct", 25.0)?,
                    arena_pct: args.f64_or("--arena-pct", 0.0)?,
                    alloc_budget: args.usize_or("--alloc-budget", 0)? as u64,
                };
                let regressions = compare(&report, &baseline, &budgets);
                if regressions.is_empty() {
                    println!(
                        "compare vs {base_path} (baseline @ {}): OK, no regression past budgets \
                         (latency +{}%, arena +{}%, allocs +{})",
                        baseline.git_sha,
                        budgets.latency_pct,
                        budgets.arena_pct,
                        budgets.alloc_budget
                    );
                } else {
                    eprintln!(
                        "compare vs {base_path} (baseline @ {}): {} regression(s):",
                        baseline.git_sha,
                        regressions.len()
                    );
                    for regression in &regressions {
                        eprintln!("  {regression}");
                    }
                    // Exit 2: regression, distinct from usage errors (1).
                    std::process::exit(2);
                }
            }
            Ok(())
        }
        "figure2" => {
            let models = match args.value("--models") {
                None => ModelKind::FIGURE2.to_vec(),
                Some(list) => list
                    .split(',')
                    .map(|name| {
                        ModelKind::from_name(name).ok_or_else(|| format!("unknown model {name:?}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            };
            let config = Figure2Config {
                scale: if args.flag("--quick") {
                    InputScale::Quick
                } else {
                    InputScale::Full
                },
                repeats: args.usize_or("--repeats", 3)?,
                threads: args.usize_or("--threads", 1)?,
                models,
                include_darknet: args.flag("--include-darknet"),
            };
            let wants_recording =
                args.value("--trace-out").is_some() || args.value("--metrics-out").is_some();
            let result = if wants_recording {
                let (result, trace, metrics) = with_recording(|| run_figure2(&config));
                write_observability(&args, &trace, &metrics)?;
                result.map_err(|e| e.to_string())?
            } else {
                run_figure2(&config).map_err(|e| e.to_string())?
            };
            if args.flag("--csv") {
                print!("{}", result.to_csv());
            } else {
                println!(
                    "Figure 2 reproduction: inference time, {} thread(s), scale = {:?}",
                    config.threads, config.scale
                );
                print!("{}", result.render());
            }
            Ok(())
        }
        "table1" => {
            let text = run_table1(args.flag("--measured")).map_err(|e| e.to_string())?;
            println!("Table I reproduction: framework feature comparison (1-3)");
            print!("{text}");
            Ok(())
        }
        "profile" => {
            let model = required_model(&args)?;
            let personality = personality_or_default(&args)?;
            let hw = args.usize_or("--hw", InputScale::Quick.input_hw(model))?;
            let threads = args.usize_or("--threads", 1)?;
            let runs = args.usize_or("--runs", 5)?;
            let report = run_traced_profile(personality, model, hw, threads, runs)
                .map_err(|e| e.to_string())?;
            println!(
                "traced profile: {model} under {personality} at {hw}x{hw}, {runs} timed run(s), 1 warm-up discarded"
            );
            print!("{}", report.profile.render());
            println!("\nend-to-end latency:");
            print!("{}", report.latency.render());
            let selections: Vec<_> = report
                .metrics
                .counters
                .iter()
                .filter_map(|(k, v)| k.strip_prefix("selection.algo.").map(|algo| (algo, *v)))
                .collect();
            if !selections.is_empty() {
                println!("\nalgorithm selections:");
                for (algo, count) in selections {
                    println!("  {algo:<28} x{count}");
                }
            }
            if args.flag("--report") {
                let all = orpheus::Profile {
                    memory: report.profile.memory,
                    ..orpheus::Profile::from_trace(&report.trace)
                };
                println!(
                    "\nper-layer attribution over all {runs} run(s) (self excludes same-thread children):"
                );
                print!("{}", all.render());
                println!("\nby selection algorithm:");
                print!("{}", all.group_by(|t| &t.implementation).render());
            }
            write_observability(&args, &report.trace, &report.metrics)?;
            Ok(())
        }
        "repeat" => {
            let model = required_model(&args)?;
            let personality = personality_or_default(&args)?;
            let hw = args.usize_or("--hw", InputScale::Quick.input_hw(model))?;
            let threads = args.usize_or("--threads", 1)?;
            let runs = args.usize_or("--runs", 30)?;
            let warmup = args.usize_or("--warmup", 3)?;
            let no_reuse = args.flag("--no-reuse");
            let stats = run_repeat(personality, model, hw, threads, runs, warmup, no_reuse)
                .map_err(|e| e.to_string())?;
            if args.flag("--json") {
                // Same serialization the bench artifact uses for latency.
                println!("{}", stats.to_json());
                return Ok(());
            }
            let executor = if no_reuse {
                "no-reuse session"
            } else {
                "session arena"
            };
            println!(
                "repeat: {model} under {personality} at {hw}x{hw}, {threads} thread(s), {warmup} warm-up run(s) discarded, {executor}"
            );
            print!("{}", stats.render());
            Ok(())
        }
        "layers" => {
            let model = required_model(&args)?;
            let personality = personality_or_default(&args)?;
            let hw = args.usize_or("--hw", InputScale::Quick.input_hw(model))?;
            let threads = args.usize_or("--threads", 1)?;
            let profile =
                profile_model(personality, model, hw, threads).map_err(|e| e.to_string())?;
            println!("per-layer profile: {model} under {personality} at {hw}x{hw}");
            print!("{}", render_layer_profile(&profile));
            if let Some(path) = args.value("--trace") {
                std::fs::write(path, format!("{}\n", profile.to_chrome_trace()))
                    .map_err(|e| format!("writing {path:?}: {e}"))?;
                println!("chrome trace written to {path} (open in chrome://tracing)");
            }
            Ok(())
        }
        "depthwise" => {
            let hw = args.usize_or("--hw", 224)?;
            let report = run_depthwise_ablation(hw, args.usize_or("--threads", 1)?)
                .map_err(|e| e.to_string())?;
            println!("MobileNetV1 depthwise layers at {hw}x{hw} input (13 layers, 1 pass):");
            println!(
                "  dedicated depthwise kernel (Orpheus/TVM): {:8.2} ms",
                report.orpheus_depthwise_ms
            );
            println!(
                "  generic im2col+GEMM path (PyTorch):       {:8.2} ms",
                report.pytorch_depthwise_ms
            );
            println!("  slowdown: {:.1}x", report.slowdown);
            Ok(())
        }
        "simplify" => {
            let model = required_model(&args)?;
            let hw = args.usize_or("--hw", InputScale::Quick.input_hw(model))?;
            let report = run_simplify_ablation(model, hw, args.usize_or("--repeats", 3)?)
                .map_err(|e| e.to_string())?;
            println!("graph simplification ablation: {model} at {hw}x{hw}");
            println!(
                "  layers: {} -> {}",
                report.layers_plain, report.layers_simplified
            );
            println!(
                "  time:   {:.2} ms -> {:.2} ms ({:.2}x)",
                report.plain_ms,
                report.simplified_ms,
                report.plain_ms / report.simplified_ms.max(1e-9)
            );
            Ok(())
        }
        "inspect" => {
            let model = required_model(&args)?;
            let mut graph = build_model(model);
            println!("before simplification: {} nodes", graph.nodes().len());
            PassManager::standard()
                .run_to_fixpoint(&mut graph)
                .map_err(|e| e.to_string())?;
            println!("after simplification:  {} nodes", graph.nodes().len());
            print!("{}", graph.render());
            Ok(())
        }
        "sweep" => {
            let parse_list = |name: &str, default: &[usize]| -> Result<Vec<usize>, String> {
                match args.value(name) {
                    None => Ok(default.to_vec()),
                    Some(list) => list
                        .split(',')
                        .map(|v| v.parse().map_err(|_| format!("bad {name} entry {v:?}")))
                        .collect(),
                }
            };
            let channels = parse_list("--channels", &[16, 64, 256])?;
            let hws = parse_list("--hws", &[8, 16, 32, 56])?;
            let csv = run_layer_sweep(
                &channels,
                &hws,
                args.usize_or("--k", 3)?,
                args.usize_or("--stride", 1)?,
                args.usize_or("--threads", 1)?,
            )
            .map_err(|e| e.to_string())?;
            print!("{csv}");
            Ok(())
        }
        "policy" => {
            let model = required_model(&args)?;
            let hw = args.usize_or("--hw", InputScale::Full.input_hw(model))?;
            let rows =
                orpheus_cli::run_policy_comparison(model, hw, args.usize_or("--repeats", 3)?)
                    .map_err(|e| e.to_string())?;
            println!("selection-policy comparison: {model} at {hw}x{hw}, 1 thread");
            for (label, millis) in rows {
                println!("  {label:<28} {millis:>9.2} ms");
            }
            Ok(())
        }
        "validate" => {
            let graph = if let Some(path) = args.value("--onnx") {
                let bytes = std::fs::read(path).map_err(|e| format!("reading {path:?}: {e}"))?;
                orpheus_onnx::import_model(&bytes).map_err(|e| e.to_string())?
            } else {
                let model = required_model(&args)?;
                let hw = args.usize_or("--hw", InputScale::Quick.input_hw(model))?;
                orpheus_models::build_model_with_input(model, hw, hw)
            };
            let dims = graph
                .inputs()
                .first()
                .map(|i| i.dims.clone())
                .ok_or_else(|| "model has no input".to_string())?;
            let input =
                orpheus_tensor::Tensor::from_fn(&dims, |i| ((i * 31 % 97) as f32 / 97.0) - 0.5);
            let rows =
                orpheus_cli::run_backend_validation(&graph, &input).map_err(|e| e.to_string())?;
            println!(
                "backend validation vs orpheus reference ({} configs):",
                rows.len()
            );
            let mut failures = 0;
            for row in &rows {
                println!(
                    "  {:<40} {}  (max |err| {:.2e})",
                    row.label,
                    if row.ok { "PASS" } else { "FAIL" },
                    row.max_abs
                );
                if !row.ok {
                    failures += 1;
                }
            }
            if failures > 0 {
                return Err(format!("{failures} backend(s) failed validation"));
            }
            Ok(())
        }
        "lint" => {
            let json = args.flag("--json");
            let check_plan = args.flag("--check-plan");
            let max_batch = args.usize_or("--max-batch", 1)?.max(1);
            // Positional FILE.onnx, or --model M|all for in-tree zoo models.
            let path = args.args.first().filter(|a| !a.starts_with("--"));
            let reports = if let Some(path) = path {
                let bytes = std::fs::read(path).map_err(|e| format!("reading {path:?}: {e}"))?;
                let graph = orpheus_onnx::import_model(&bytes).map_err(|e| e.to_string())?;
                let mut report = orpheus_verify::lint_with_batch(&graph, max_batch);
                if check_plan {
                    orpheus_cli::attach_plan_check(&mut report, &graph, max_batch);
                }
                vec![report]
            } else {
                let models = match args.value("--model") {
                    None => return Err("lint needs FILE.onnx or --model M|all".into()),
                    Some("all") => ModelKind::FIGURE2.to_vec(),
                    Some(name) => vec![ModelKind::from_name(name)
                        .ok_or_else(|| format!("unknown model {name:?}"))?],
                };
                let hw = match args.value("--hw") {
                    None => None,
                    Some(_) => Some(args.usize_or("--hw", 0)?),
                };
                orpheus_cli::run_lint_zoo_checked(&models, hw, max_batch, check_plan)
            };
            let mut errors = 0;
            for report in &reports {
                if json {
                    println!("{}", report.to_json());
                } else {
                    print!("{}", report.render());
                }
                errors += report.errors();
            }
            if errors > 0 {
                return Err(format!("lint found {errors} error(s)"));
            }
            Ok(())
        }
        "fuzz" => {
            let models = match args.value("--model") {
                None | Some("all") => ModelKind::FIGURE2.to_vec(),
                Some(name) => {
                    vec![ModelKind::from_name(name)
                        .ok_or_else(|| format!("unknown model {name:?}"))?]
                }
            };
            let iters = args.usize_or("--iters", 1000)? as u64;
            let seed = args.usize_or("--seed", 0x0e5)? as u64;
            println!(
                "fuzzing the ONNX importer: {} model(s), {iters} mutants each, seed {seed}",
                models.len()
            );
            let table = orpheus_cli::run_fuzz(&models, iters, seed).map_err(|e| e.to_string())?;
            print!("{table}");
            println!("importer contract held: no panics, no over-limit accepts");
            Ok(())
        }
        "export" => {
            let model = required_model(&args)?;
            let out = args
                .value("--out")
                .ok_or_else(|| "--out is required".to_string())?;
            let graph = build_model(model);
            let bytes = orpheus_onnx::export_model(&graph).map_err(|e| e.to_string())?;
            std::fs::write(out, &bytes).map_err(|e| format!("writing {out:?}: {e}"))?;
            println!(
                "wrote {} ({} bytes, {} nodes)",
                out,
                bytes.len(),
                graph.nodes().len()
            );
            Ok(())
        }
        "serve" => {
            let model = required_model(&args)?;
            let hw = args.usize_or("--hw", InputScale::Quick.input_hw(model))?;
            let threads = args.usize_or("--threads", 1)?;
            let server_cfg = orpheus_serve::ServerConfig {
                workers: args.usize_or("--workers", 2)?,
                queue_depth: args.usize_or("--queue-depth", 64)?,
                default_deadline: args
                    .value("--deadline-ms")
                    .map(|v| {
                        v.parse::<u64>()
                            .map(std::time::Duration::from_millis)
                            .map_err(|_| format!("--deadline-ms expects an integer, got {v:?}"))
                    })
                    .transpose()?,
                breaker_threshold: args.usize_or("--breaker-threshold", 5)? as u32,
                breaker_cooldown: std::time::Duration::from_millis(
                    args.usize_or("--breaker-cooldown-ms", 250)? as u64,
                ),
                drain_timeout: std::time::Duration::from_millis(
                    args.usize_or("--drain-timeout-ms", 5000)? as u64,
                ),
                max_batch: args.usize_or("--max-batch", 1)?,
                batch_max_wait: std::time::Duration::from_micros(
                    args.usize_or("--batch-wait-us", 200)? as u64,
                ),
            };
            if server_cfg.max_batch == 0 {
                return Err("--max-batch must be at least 1".into());
            }

            let mut builder = orpheus::Engine::builder()
                .threads(threads)
                .max_batch(server_cfg.max_batch);
            let mut injects_panics = false;
            if let Some(needle) = args.value("--fault") {
                builder = builder.fault_injection(needle);
                let mode = parse_fault_mode(args.value("--fault-mode").unwrap_or("error"))?;
                injects_panics = !matches!(mode, orpheus::FaultMode::Error);
                builder = builder.fault_mode(mode);
            } else if args.value("--fault-mode").is_some() {
                return Err("--fault-mode needs --fault NEEDLE to select layers".into());
            }
            if injects_panics {
                // Injected panics are caught by worker isolation; keep the
                // default hook's backtrace spam out of the report.
                suppress_injected_panic_output();
            }
            let engine = builder.build().map_err(|e| e.to_string())?;
            let network = std::sync::Arc::new(
                engine
                    .load(orpheus_models::build_model_with_input(model, hw, hw))
                    .map_err(|e| e.to_string())?,
            );

            let load_cfg = orpheus_serve::LoadGenConfig {
                requests: args
                    .usize_or("--requests", if args.flag("--load-gen") { 200 } else { 8 })?,
                clients: args.usize_or("--clients", if args.flag("--load-gen") { 4 } else { 1 })?,
                deadline: server_cfg.default_deadline,
            };
            println!(
                "serve: {model} at {hw}x{hw}, {} worker(s) x {} thread(s), queue depth {}, max batch {}, {} client(s) x {} request(s)",
                server_cfg.workers,
                threads,
                server_cfg.queue_depth,
                server_cfg.max_batch,
                load_cfg.clients,
                load_cfg.requests
            );
            let (report, trace, metrics) =
                with_recording(|| orpheus_serve::run_load_gen(network, server_cfg, load_cfg));
            print!("{}", report.render());
            write_observability(&args, &trace, &metrics)?;
            if report.drain.worker_panics > 0 {
                return Err(format!(
                    "{} worker(s) died by panic: isolation failed",
                    report.drain.worker_panics
                ));
            }
            if !report.all_resolved() {
                return Err("some requests never resolved".into());
            }
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// Parses `--fault-mode`: `error`, `panic`, `panic-first:N`, or
/// `flaky:PERMILLE[:SEED]`.
fn parse_fault_mode(spec: &str) -> Result<orpheus::FaultMode, String> {
    match spec {
        "error" => return Ok(orpheus::FaultMode::Error),
        "panic" => return Ok(orpheus::FaultMode::Panic),
        _ => {}
    }
    if let Some(n) = spec.strip_prefix("panic-first:") {
        let n = n
            .parse()
            .map_err(|_| format!("panic-first expects an integer, got {n:?}"))?;
        return Ok(orpheus::FaultMode::PanicFirst(n));
    }
    if let Some(rest) = spec.strip_prefix("flaky:") {
        let mut parts = rest.splitn(2, ':');
        let per_mille = parts
            .next()
            .unwrap_or("")
            .parse()
            .map_err(|_| format!("flaky expects PERMILLE[:SEED], got {rest:?}"))?;
        let seed = match parts.next() {
            None => 0x5eed,
            Some(s) => s
                .parse()
                .map_err(|_| format!("flaky seed expects an integer, got {s:?}"))?,
        };
        return Ok(orpheus::FaultMode::Flaky { per_mille, seed });
    }
    Err(format!(
        "unknown fault mode {spec:?} (expected error | panic | panic-first:N | flaky:PERMILLE[:SEED])"
    ))
}

/// Replaces the panic hook with one that stays silent for injected-fault
/// panics (they are expected and isolated) and delegates everything else.
fn suppress_injected_panic_output() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|msg| msg.contains("injected panic"));
        if !injected {
            default_hook(info);
        }
    }));
}

fn required_model(args: &Args) -> Result<ModelKind, String> {
    let name = args
        .value("--model")
        .ok_or_else(|| "--model is required".to_string())?;
    ModelKind::from_name(name).ok_or_else(|| format!("unknown model {name:?}"))
}

fn personality_or_default(args: &Args) -> Result<Personality, String> {
    match args.value("--personality") {
        None => Ok(Personality::Orpheus),
        Some(p) => Personality::from_name(p).ok_or_else(|| format!("unknown personality {p:?}")),
    }
}

/// One compact JSON object per line.
fn json_lines(values: impl Iterator<Item = JsonValue>) -> String {
    values.map(|v| format!("{v}\n")).collect()
}

/// Writes whichever of `--trace-out` (Chrome trace), `--events-out` (JSON
/// lines), `--metrics-out` (metrics summary JSON), `--openmetrics-out`
/// (OpenMetrics/Prometheus text), and `--flight-out` (flight-recorder JSON
/// lines) the user asked for.
fn write_observability(
    args: &Args,
    trace: &orpheus_observe::Trace,
    metrics: &orpheus_observe::MetricsSnapshot,
) -> Result<(), String> {
    if let Some(path) = args.value("--trace-out") {
        std::fs::write(path, format!("{}\n", trace.to_chrome_trace()))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        println!("trace written to {path} (load in https://ui.perfetto.dev or chrome://tracing)");
    }
    if let Some(path) = args.value("--events-out") {
        std::fs::write(
            path,
            json_lines(trace.spans.iter().map(SpanRecord::to_json)),
        )
        .map_err(|e| format!("writing {path:?}: {e}"))?;
        println!("span events written to {path} (one JSON object per line)");
    }
    if let Some(path) = args.value("--metrics-out") {
        std::fs::write(path, format!("{:#}\n", metrics.to_json()))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        println!("metrics written to {path}");
    }
    if let Some(path) = args.value("--openmetrics-out") {
        std::fs::write(path, metrics.to_openmetrics())
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        println!("OpenMetrics exposition written to {path}");
    }
    if let Some(path) = args.value("--flight-out") {
        let events = orpheus_observe::flight_snapshot();
        std::fs::write(path, json_lines(events.iter().map(FlightEvent::to_json)))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        println!(
            "flight recorder written to {path} ({} event(s), one JSON object per line)",
            events.len()
        );
    }
    Ok(())
}
