//! The repository benchmark. `bench run` measures one workload (or all
//! five) and prints every metric by name with its unit, then one JSON line;
//! `bench compare` judges two sets of runs against the bounds in
//! `BENCHMARK.json`. See `README.md` beside this package's `Cargo.toml`.

mod api;
mod compare;
mod gen;
mod host;
mod json;
mod metrics;
mod probes;
mod root;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Value;
use metrics::{Def, END_TO_END, PER_LAYER};
use workloads::{Env, Samples, Workload};

const USAGE: &str = "\
usage:
  bench run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
            [--root DIR] [--clean] [--quick] [--out FILE]
  bench compare A.jsonl B.jsonl [--bounds BENCHMARK.json]

run:
  --workload  dense_fast | paced_slow | sparse_content | restart |
              tenants_round | all (default)
  --seed      drives every generator; the same seed gives the same inputs
  --seconds   how long the measured rounds of one workload run (default 20)
  --trace     0: untraced pass, end-to-end metrics; 1: traced pass, layer
              metrics and trace file; omitted: both passes, every metric
  --root      where storage roots go (default: the build directory)
  --clean     remove roots left by earlier runs instead of refusing to start
  --quick     tiny sizes, one round: a smoke test, numbers not comparable
  --out       append this run's record to FILE (input of `bench compare`)";

/// Complete set-ups per run (`setup_s` is their median): at least
/// `MIN_SETUPS`, then more — up to `MAX_SETUPS` — while they have taken less
/// than `SETUP_BUDGET_S` in total, so a cheap set-up is sampled more often.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.5;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    root: Option<PathBuf>,
    clean: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: "all".into(),
        seed: 1,
        seconds: 20.0,
        trace: None,
        root: None,
        clean: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => run.workload = value()?,
            "--seed" => {
                run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                run.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a number in (0, 3600]")?
            }
            "--trace" => {
                run.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--root" => run.root = Some(PathBuf::from(value()?)),
            "--out" => run.out = Some(PathBuf::from(value()?)),
            "--clean" => run.clean = true,
            "--quick" => run.quick = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if run.workload != "all" && !workloads::NAMES.contains(&run.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of: {}, all)",
            run.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(run)
}

/// Rounds until the budget is spent: stop when one more round of the
/// longest length seen would overrun it. Always at least one round per
/// returned pool.
///
/// Returns `(untraced, traced)` samples. With `alternate`, odd rounds run
/// with the tracer on and are pooled separately: interleaving the two kinds
/// of round lets slow drift of the machine cancel out of the
/// traced-minus-untraced comparison. Without it every round is untraced.
fn pass(
    w: &mut dyn Workload,
    env: &Env<'_>,
    budget_s: f64,
    quick: bool,
    alternate: bool,
    baseline: &[f64],
) -> io::Result<(Samples, Samples)> {
    let fresh = || Samples {
        base_iter_ms: baseline.to_vec(),
        ..Samples::default()
    };
    let (mut plain, mut traced) = (fresh(), fresh());
    let least = if alternate { 2 } else { 1 };
    let start = Instant::now();
    let mut longest = 0.0f64;
    for round in 0u64.. {
        let tracing = alternate && round % 2 == 1;
        let t = Instant::now();
        if tracing {
            trace::enable();
        }
        let done = w.round(env, round, if tracing { &mut traced } else { &mut plain });
        trace::disable();
        done?;
        longest = longest.max(t.elapsed().as_secs_f64());
        let spent = start.elapsed().as_secs_f64() + longest > budget_s;
        if round + 1 >= least && (quick || spent) {
            break;
        }
    }
    Ok((plain, traced))
}

/// `name: {value, unit}` pairs of the result line, in catalogue order.
fn result_pairs(defs: &[Def], values: &BTreeMap<&'static str, f64>) -> Vec<(String, Value)> {
    defs.iter()
        .map(|d| {
            let entry = Value::obj(vec![
                ("value", Value::Num(values[d.name])),
                ("unit", Value::Str(d.unit.into())),
            ]);
            (d.name.to_string(), entry)
        })
        .collect()
}

fn print_metrics(title: &str, defs: &[Def], values: &BTreeMap<&'static str, f64>) {
    println!("  -- {title}");
    for d in defs {
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(" [bound {:.0}%]", b * 100.0));
        println!(
            "  {:<42} {:>16.6} {:<6} {} is better{}  -> {}",
            d.name,
            values[d.name],
            d.unit,
            d.better.as_str(),
            bound,
            d.moves
        );
    }
}

/// Measure one workload; returns whether every operation succeeded and the
/// contract's result object.
fn run_workload(name: &str, args: &RunArgs, roots: &root::RootGuard) -> io::Result<(bool, Value)> {
    let mut w = workloads::by_name(name, args.quick).expect("workload names are validated");
    let salt = name
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131) + b as u64);
    let env = Env {
        roots,
        rng: gen::Rng::new(args.seed).fork(salt),
    };
    println!("== {name}  seed {}", args.seed);

    let mut setup = Samples::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut host = host::Host::default();
    let enough = |done: &[f64]| {
        let spent: f64 = done.iter().sum();
        let wanted = if args.quick { 1 } else { MIN_SETUPS };
        done.len() >= MAX_SETUPS
            || (done.len() >= wanted && (args.quick || spent >= SETUP_BUDGET_S))
    };
    while !enough(&setup_s) {
        let t = Instant::now();
        host = host::calibrate(roots.path(), w.state_bytes())?;
        w.prepare(&env, &mut setup)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let baseline = setup.base_iter_ms;
    let compute = |samples: &mut Samples, probes: &probes::Probes, overhead: f64| {
        metrics::compute(metrics::Inputs {
            workload: name,
            samples,
            setup_s: &setup_s,
            host,
            probes,
            trace_overhead_pct: overhead,
            peak_rss_mib: host::peak_rss_mib(),
        })
    };

    // `--trace 0`: one untraced pass. `--trace 1`: one alternating pass.
    // Neither given: both, the end-to-end figures from the untraced one.
    let (mut plain, mut traced) = pass(
        &mut *w,
        &env,
        args.seconds,
        args.quick,
        args.trace == Some(true),
        &baseline,
    )?;
    let mut reference_iter = stats::median(&plain.iter_ms);
    let (mut attempted, mut failed) = (plain.attempted, plain.failed);
    if args.trace.is_none() {
        let (reference, t) = pass(&mut *w, &env, args.seconds, args.quick, true, &baseline)?;
        reference_iter = stats::median(&reference.iter_ms);
        attempted += reference.attempted;
        failed += reference.failed;
        traced = t;
    }
    let plain_values = compute(&mut plain, &Vec::new(), 0.0);

    let mut traced_values = None;
    if args.trace != Some(false) {
        trace::enable();
        let probes = probes::run(roots, &env.rng, w.state_bytes() / api::page_size())?;
        trace::disable();
        let overhead = if reference_iter > 0.0 {
            (stats::median(&traced.iter_ms) - reference_iter) / reference_iter * 100.0
        } else {
            0.0
        };
        attempted += traced.attempted;
        failed += traced.failed;
        traced_values = Some(compute(&mut traced, &probes, overhead));
        let path = roots
            .path()
            .parent()
            .unwrap_or(roots.path())
            .join(format!("trace_{name}.json"));
        std::fs::write(&path, trace::drain_to_json(name, args.seed).render())?;
        println!("  trace written to {}", path.display());
    }
    drop(w); // the restart image's root goes before the summary prints

    println!(
        "  rounds {} untraced  peak round footprint {:.0} MiB (limit 1024)",
        plain.rounds,
        plain.count("footprint_mib")
    );
    for (label, summary) in &plain_values.series {
        if summary.n > 0 {
            println!("  {label:<36} {summary}");
        }
    }
    let mut metrics = Vec::new();
    if args.trace != Some(true) {
        print_metrics(
            "end to end (untraced pass)",
            END_TO_END,
            &plain_values.values,
        );
        metrics.extend(result_pairs(END_TO_END, &plain_values.values));
    }
    if let Some(t) = &traced_values {
        print_metrics("per layer (traced rounds)", PER_LAYER, &t.values);
        metrics.extend(result_pairs(PER_LAYER, &t.values));
    }
    let correct = failed == 0;
    let result = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    Ok((correct, result))
}

fn run(args: &RunArgs) -> io::Result<bool> {
    let base = args.root.clone().unwrap_or_else(root::default_base);
    std::fs::create_dir_all(&base)?;
    let roots = root::RootGuard::create(&base, args.clean)?;
    println!(
        "ai-ckpt benchmark  root {} ({})  nproc {}  page {} B  LLC {} MiB  seconds {}{}",
        roots.path().display(),
        host::fs_type(roots.path()),
        host::nproc(),
        api::page_size(),
        host::llc_bytes() >> 20,
        args.seconds,
        if args.quick {
            "  QUICK: smoke test, numbers are not comparable"
        } else {
            ""
        }
    );
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        let (correct, result) = run_workload(name, args, &roots)?;
        all_correct &= correct;
        if let Some(path) = &args.out {
            let record = Value::obj(vec![
                ("workload", Value::Str(name.into())),
                ("seed", Value::Num(args.seed as f64)),
                (
                    "trace",
                    args.trace
                        .map_or(Value::Null, |t| Value::Num(if t { 1.0 } else { 0.0 })),
                ),
                ("quick", Value::Bool(args.quick)),
                ("result", result.clone()),
            ]);
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(file, "{}", record.render())?;
        }
        // The contract's result line: last on standard output.
        println!("{}", result.render());
    }
    Ok(all_correct)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds_path = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            bounds_path = PathBuf::from(it.next().ok_or("--bounds needs a value")?);
        } else {
            files.push(a);
        }
    }
    let [a, b] = files[..] else {
        return Err("compare takes exactly two run-set files".into());
    };
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let bounds = compare::parse_bounds(&read(&bounds_path)?)?;
    let set_a = compare::parse_run_set(&read(a.as_ref())?)?;
    let set_b = compare::parse_run_set(&read(b.as_ref())?)?;
    let bad = compare::report(&set_a, &set_b, &bounds);
    println!("{bad} regressed or mismatching");
    Ok(bad == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a).map_err(|e| e.to_string())),
        Some("compare") => compare(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err("expected `run` or `compare`".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
