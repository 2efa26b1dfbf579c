//! `epocc` — the EPOC command-line compiler.
//!
//! Compiles an OpenQASM 2.0 file (or a named builtin benchmark) down to a
//! pulse schedule and prints the report.
//!
//! ```sh
//! epocc circuit.qasm                # EPOC pipeline (hybrid GRAPE backend)
//! epocc --flow gate-based bench:ghz_n8
//! epocc --flow paqoc --no-zx bench:qaoa_n6
//! epocc --no-regroup circuit.qasm   # the Figures-8/10 "no grouping" arm
//! epocc --timeline circuit.qasm     # print the human-readable pulse timeline
//! epocc --schedule s.json circuit.qasm  # dump the final schedule as JSON
//! epocc --simulate bench:wstate_n3  # pulse-level replay vs the circuit unitary
//! epocc --simulate --shots 8 bench:wstate_n3  # + noisy Monte-Carlo trajectories
//! epocc --grape 0 circuit.qasm      # modeled backend (no GRAPE)
//! epocc --trace t.json bench:ghz_n8 # Chrome trace of the compile
//! epocc --metrics bench:ghz_n8      # counter/histogram dump + stage times
//! epocc --metrics-file m.prom bench:ghz_n8  # Prometheus text exposition
//! ```

use epoc::baselines::{gate_based, PaqocCompiler};
use epoc::sim::{NoiseModel, SimOptions};
use epoc::{simulate_schedule, CompilationReport, EpocCompiler, EpocConfig};
use epoc_circuit::{generators, parse_qasm, Circuit};
use std::process::ExitCode;

/// GRAPE width cap of the default `epoc` flow (`--grape` overrides; 0
/// selects the calibrated duration model instead).
const DEFAULT_GRAPE_LIMIT: usize = 2;

struct Args {
    input: String,
    flow: String,
    zx: bool,
    regroup: bool,
    timeline: bool,
    schedule_out: Option<String>,
    simulate: bool,
    shots: usize,
    sim_check: Option<f64>,
    json: bool,
    trace: Option<String>,
    metrics: bool,
    metrics_file: Option<String>,
    grape_limit: usize,
    strict: bool,
    deadline_ms: Option<u64>,
    budget: Option<String>,
    faults: Option<String>,
    fault_seed: Option<u64>,
    library: Option<String>,
    library_budget: Option<u64>,
    hw: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: epocc [--flow epoc|gate-based|paqoc] [--no-zx] [--no-regroup] \
         [--grape N] [--timeline] [--schedule FILE] [--simulate] [--shots N] \
         [--sim-check F] [--json] [--trace FILE] [--metrics] [--metrics-file FILE] [--strict] \
         [--deadline-ms N] [--budget SPEC] [--faults SPEC] [--fault-seed N] \
         [--library FILE] [--library-budget BYTES] [--hw PROFILE] \
         <file.qasm | bench:NAME>\n\
         --grape N      GRAPE width cap for the epoc flow (default {DEFAULT_GRAPE_LIMIT}; 0 = modeled)\n\
         --timeline     print the human-readable pulse timeline\n\
         --schedule FILE dump the final pulse schedule as JSON to FILE\n\
         --simulate     replay the schedule at pulse level vs the circuit unitary\n\
         --shots N      add N noisy Monte-Carlo trajectories (implies --simulate)\n\
         --sim-check F  fail unless simulated process fidelity >= F (implies --simulate)\n\
         --trace FILE   write a Chrome trace-event JSON of the compile to FILE\n\
         --metrics      print telemetry counters, histograms, and stage times\n\
         --metrics-file FILE write the Prometheus text exposition to FILE\n\
         --strict       fail the compile when the recovery ladder is exhausted\n\
         --deadline-ms N fail typed unless the compile finishes within N ms (epoc flow only)\n\
         --budget SPEC  deterministic per-block work caps, e.g. 'grape_iters=100,qsearch_nodes=500';\n\
         \x20              exhaustion degrades via the recovery ladder, byte-identically at any worker count\n\
         --faults SPEC  arm fault injection, e.g. 'grape.converge=always,pulse_lib.miss=p0.5'\n\
         --fault-seed N seed for probabilistic fault triggers\n\
         --library FILE warm-start the pulse library from FILE and save it back after the compile;\n\
         \x20              a FILE that fails to load is moved aside to FILE.corrupt first\n\
         --library-budget BYTES cap the in-memory pulse library (LRU eviction; epoc flow only)\n\
         --hw PROFILE   compile under a control-electronics model (epoc flow only);\n\
         \x20              profiles: {}\n\
         builtin benchmarks: {}",
        epoc::hw::PROFILE_NAMES.join(", "),
        generators::benchmark_suite()
            .iter()
            .map(|b| b.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

/// The value of a `--flag VALUE` pair, failing with a targeted message
/// (not the generic usage dump) when the value is missing.
fn flag_value(iter: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    match iter.next() {
        Some(v) if !v.starts_with('-') => v,
        _ => {
            eprintln!("error: {flag} requires {what}");
            std::process::exit(2);
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        input: String::new(),
        flow: "epoc".into(),
        zx: true,
        regroup: true,
        timeline: false,
        schedule_out: None,
        simulate: false,
        shots: 0,
        sim_check: None,
        json: false,
        trace: None,
        metrics: false,
        metrics_file: None,
        grape_limit: DEFAULT_GRAPE_LIMIT,
        strict: false,
        deadline_ms: None,
        budget: None,
        faults: None,
        fault_seed: None,
        library: None,
        library_budget: None,
        hw: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--flow" => args.flow = flag_value(&mut iter, "--flow", "a flow name"),
            "--no-zx" => args.zx = false,
            "--no-regroup" => args.regroup = false,
            "--timeline" => args.timeline = true,
            "--schedule" => {
                args.schedule_out = Some(flag_value(&mut iter, "--schedule", "a path"))
            }
            "--simulate" => args.simulate = true,
            "--shots" => {
                let v = flag_value(&mut iter, "--shots", "a trajectory count");
                args.shots = match v.parse() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("error: --shots expects a non-negative integer, got '{v}'");
                        std::process::exit(2);
                    }
                };
                args.simulate = true;
            }
            "--sim-check" => {
                let v = flag_value(&mut iter, "--sim-check", "a fidelity threshold");
                args.sim_check = match v.parse() {
                    Ok(f) => Some(f),
                    Err(_) => {
                        eprintln!("error: --sim-check expects a fidelity in [0, 1], got '{v}'");
                        std::process::exit(2);
                    }
                };
                args.simulate = true;
            }
            "--json" => args.json = true,
            "--trace" => args.trace = Some(flag_value(&mut iter, "--trace", "a path")),
            "--metrics" => args.metrics = true,
            "--metrics-file" => {
                args.metrics_file = Some(flag_value(&mut iter, "--metrics-file", "a path"))
            }
            "--grape" => {
                let v = flag_value(&mut iter, "--grape", "a qubit count");
                args.grape_limit = match v.parse() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("error: --grape expects a non-negative integer, got '{v}'");
                        std::process::exit(2);
                    }
                };
            }
            "--strict" => args.strict = true,
            "--deadline-ms" => {
                let v = flag_value(&mut iter, "--deadline-ms", "a millisecond count");
                args.deadline_ms = match v.parse() {
                    Ok(n) => Some(n),
                    Err(_) => {
                        eprintln!("error: --deadline-ms expects a non-negative integer, got '{v}'");
                        std::process::exit(2);
                    }
                };
            }
            "--budget" => args.budget = Some(flag_value(&mut iter, "--budget", "a budget spec")),
            "--library" => args.library = Some(flag_value(&mut iter, "--library", "a path")),
            "--library-budget" => {
                let v = flag_value(&mut iter, "--library-budget", "a byte count");
                args.library_budget = match v.parse() {
                    Ok(n) => Some(n),
                    Err(_) => {
                        eprintln!("error: --library-budget expects a byte count, got '{v}'");
                        std::process::exit(2);
                    }
                };
            }
            "--hw" => args.hw = Some(flag_value(&mut iter, "--hw", "a profile name")),
            "--faults" => args.faults = Some(flag_value(&mut iter, "--faults", "a fault spec")),
            "--fault-seed" => {
                let v = flag_value(&mut iter, "--fault-seed", "a seed");
                args.fault_seed = match v.parse() {
                    Ok(n) => Some(n),
                    Err(_) => {
                        eprintln!("error: --fault-seed expects a non-negative integer, got '{v}'");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => args.input = other.to_string(),
        }
    }
    if args.input.is_empty() {
        usage();
    }
    args
}

fn load_circuit(input: &str) -> Result<Circuit, String> {
    if let Some(name) = input.strip_prefix("bench:") {
        return generators::benchmark(name)
            .ok_or_else(|| format!("unknown builtin benchmark '{name}'"));
    }
    let source =
        std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    parse_qasm(&source).map_err(|e| e.to_string())
}

fn print_schedule(report: &CompilationReport) {
    println!("\npulse timeline ({} pulses):", report.schedule.len());
    for p in report.schedule.pulses() {
        println!(
            "  t={:>9.1}..{:>9.1} ns  q{:?}  {} (f={:.4})",
            p.start,
            p.end(),
            p.qubits,
            p.label,
            p.fidelity
        );
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    // Validate the flow before doing any work, so a typo'd --flow fails
    // fast with no partial output.
    if !matches!(args.flow.as_str(), "epoc" | "gate-based" | "paqoc") {
        eprintln!("error: unknown flow '{}'", args.flow);
        return ExitCode::FAILURE;
    }
    let circuit = match load_circuit(&args.input) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.json {
        println!(
            "input: {} qubits, {} gates, depth {}",
            circuit.n_qubits(),
            circuit.len(),
            circuit.depth()
        );
    }
    if args.trace.is_some() || args.metrics || args.metrics_file.is_some() {
        epoc_rt::telemetry::enable();
    }
    if let Some(spec) = &args.faults {
        if let Some(seed) = args.fault_seed {
            epoc_rt::faults::set_seed(seed);
        }
        if let Err(e) = epoc_rt::faults::arm_from_spec(spec) {
            eprintln!("error: bad --faults spec: {e}");
            return ExitCode::from(2);
        }
    }
    let mut report = match args.flow.as_str() {
        "epoc" => {
            let base = if args.grape_limit == 0 {
                EpocConfig::default()
            } else {
                EpocConfig::with_grape(args.grape_limit)
            };
            let mut config = EpocConfig { zx: args.zx, ..base };
            config.recovery.strict = args.strict;
            if let Some(budget) = args.library_budget {
                config.store = epoc::StoreConfig {
                    budget_bytes: Some(budget),
                };
            }
            if !args.regroup {
                config = config.without_regrouping();
            }
            if let Some(name) = &args.hw {
                match epoc::hw::HardwareProfile::by_name(name) {
                    Some(profile) => config = config.with_hw(profile),
                    None => {
                        eprintln!(
                            "error: unknown hardware profile '{name}' (profiles: {})",
                            epoc::hw::PROFILE_NAMES.join(", ")
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            let compiler = EpocCompiler::new(config);
            if let Some(path) = &args.library {
                // A missing library loads 0, and a bad one never fails the
                // compile: it is moved aside, as `epocd` does, before the
                // save below writes a fresh library in its place.
                match compiler.load_library_or_set_aside(std::path::Path::new(path)) {
                    Ok(n) if n > 0 && !args.json => eprintln!("library: warm-started {n} pulses"),
                    Ok(_) => {}
                    Err(warning) => eprintln!("warning: {warning}"),
                }
            }
            // Deadline and work budgets ride one cancellation token:
            // a blown deadline fails typed below; budget exhaustion
            // degrades deterministically via the recovery ladder.
            let mut cancel = epoc_rt::cancel::CancelToken::default();
            if let Some(spec) = &args.budget {
                match epoc_rt::cancel::Budget::parse_spec(spec) {
                    Ok(b) => cancel = cancel.with_budget(b),
                    Err(e) => {
                        eprintln!("error: bad --budget spec: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            if let Some(ms) = args.deadline_ms {
                cancel = cancel.with_deadline_ms(ms);
            }
            let r = match compiler.compile_with_cancel(&circuit, &cancel) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: compilation failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(path) = &args.library {
                if let Err(e) = compiler.save_library(std::path::Path::new(path)) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            r
        }
        "gate-based" => gate_based(&circuit),
        "paqoc" => PaqocCompiler::default().compile(&circuit),
        _ => unreachable!("flow validated at startup"),
    };
    if args.simulate {
        // Noiseless trajectories carry no information beyond the
        // propagator pass, so shots default to the standard noise model.
        let opts = SimOptions {
            shots: args.shots,
            noise: if args.shots > 0 {
                NoiseModel::standard()
            } else {
                NoiseModel::noiseless()
            },
            ..SimOptions::default()
        };
        match simulate_schedule(&circuit, &report.schedule, &opts) {
            Ok(stats) => report.simulation = Some(stats),
            Err(e) => {
                eprintln!("error: simulation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.schedule_out {
        let dump = report.schedule.to_json_value().to_string_pretty();
        if let Err(e) = std::fs::write(path, dump) {
            eprintln!("error: cannot write schedule to {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.json {
            println!("schedule written to {path}");
        }
    }
    if let Some(threshold) = args.sim_check {
        let fid = report
            .simulation
            .as_ref()
            .expect("--sim-check implies --simulate")
            .outcome
            .process_fidelity;
        if fid < threshold {
            eprintln!("error: simulated process fidelity {fid:.6} < required {threshold:.6}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.trace {
        let trace = epoc_rt::telemetry::chrome_trace().to_string_pretty();
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("error: cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.json {
            println!("trace written to {path}");
        }
    }
    if args.metrics {
        eprintln!("{}", epoc_rt::telemetry::metrics_text());
        eprintln!("{}", report.stages.to_text());
    }
    if let Some(path) = &args.metrics_file {
        let text = epoc_rt::telemetry::prometheus_text();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.json {
            println!("metrics written to {path}");
        }
    }
    if args.json {
        println!("{}", report.to_json());
        return if report.verified || report.verify_skipped {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!("{}", report.summary());
    if let Some(hw) = &report.hardware {
        println!(
            "hardware: {} ({} conditioned pulse{}{})",
            hw.profile,
            hw.conditioned_pulses,
            if hw.conditioned_pulses == 1 { "" } else { "s" },
            if hw.sfq { ", sfq bitstream drive" } else { "" },
        );
    }
    if let Some(sim) = &report.simulation {
        println!("{}", sim.summary());
    }
    if report.verify_skipped {
        println!("verification: skipped (register too wide)");
    } else if report.verified {
        println!("verification: PASSED");
    } else {
        println!("verification: FAILED");
        return ExitCode::FAILURE;
    }
    if args.timeline {
        print_schedule(&report);
    }
    ExitCode::SUCCESS
}
