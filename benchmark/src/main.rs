//! `wirebench` — the wire-path exploration benchmark for Blaeu.
//!
//! One run self-hosts `AsyncSessionServer` + `NetServer` in-process on
//! loopback, drives it with closed-loop raw-`TcpStream` clients (an
//! analyst waits for the map before the next click), checks every
//! output, and prints every metric by name with its unit; the last line
//! of standard output is the machine-readable result.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload wide_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 1` reports the per-layer metrics instead and writes the
//! spans to `benchmark/out/trace-<workload>.json`; `--noise` runs the
//! repeatability study that generates `benchmark/NOISE.md`.

mod client;
mod layers;
mod noise;
mod recorder;
mod run;
mod session;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use run::{Metric, Options, Outcome};
use workload::{Size, WORKLOADS};

/// `BENCHMARK.json`'s `run_seconds`: the default for a bare run, and the
/// length of every run of the noise study.
const RUN_SECONDS: f64 = 20.0;

/// Journal and trace files go here, relative to the checkout root the
/// command runs from.
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    noise: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        noise: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_owned())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            // `--trace 1` / `--trace 0`, or bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--noise" => args.noise = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: wirebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
         wirebench --noise",
        names.join("|")
    )
}

/// A fixed arithmetic spin: how fast this box is today, so numbers from
/// two machines (or two noisy hours) can be told apart. Not a metric.
fn calibration_spin_ms() -> f64 {
    let spins: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..20_000_000u64 {
                x = (x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    recorder::median(&spins).unwrap_or(0.0)
}

/// Hundredths of a second the hypervisor ran someone else while this VM
/// wanted the CPU, summed over the cores (`/proc/stat`). Its growth over
/// a run goes to the provenance header: a run that lost seconds to a
/// neighbour is the box's noise, not the benchmark's. (A neighbour on
/// the sibling hyperthread slows a run without showing here.)
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The commit, when the checkout is a git repository (the driver's is
/// not).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".to_owned(), |hash| hash.trim().to_owned()),
        None if head.is_empty() => "unknown".to_owned(),
        None => head.to_owned(),
    }
}

fn print_outcome(opts: &Options, outcome: &Outcome, steal_before: u64) {
    // Provenance only: what the box reports next to the budget pinned over it.
    #[allow(clippy::disallowed_methods)]
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!(
        "# wirebench workload={} seed={} seconds={} trace={} size={:?}",
        opts.workload.name, opts.seed, opts.seconds, opts.trace as u8, opts.size
    );
    println!(
        "# commit={} nproc={} thread_budget={} clients={} calibration_spin_ms={:.2} steal_ticks={}",
        commit(),
        nproc,
        run::THREADS,
        opts.workload.clients,
        calibration_spin_ms(),
        steal_ticks().saturating_sub(steal_before)
    );
    println!("# why: {}", opts.workload.why);
    for note in &outcome.notes {
        println!("# {note}");
    }
    let table = |metrics: &[Metric]| {
        for Metric {
            name,
            unit,
            value,
            n,
        } in metrics
        {
            let samples = if *n > 0 {
                format!("n={n}")
            } else {
                String::new()
            };
            println!("{name:<30} {value:>16.4} {unit:<6} {samples}");
        }
    };
    table(&outcome.metrics);
    println!(
        "failed_share                   {:>16.6} ratio  {} of {} attempted",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    if !outcome.also.is_empty() {
        println!("# per-layer numbers this untraced run measured anyway (no bound):");
        table(&outcome.also);
    }
    println!("{}", result_line(outcome));
}

/// The machine-readable last line: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    blaeu_exec::set_thread_budget(run::THREADS);
    if args.noise {
        return match noise::study() {
            Ok(()) => ExitCode::SUCCESS,
            Err(why) => {
                eprintln!("noise study failed: {why}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload.as_deref().and_then(workload::find) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: if args.smoke { Size::Smoke } else { Size::Full },
        out_dir: PathBuf::from(OUT_DIR),
    };
    let steal_before = steal_ticks();
    let outcome = run::run(&opts);
    print_outcome(&opts, &outcome, steal_before);
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{END_TO_END, PER_LAYER};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let end_to_end = END_TO_END.iter().map(|&(name, unit, _)| (name, unit));
        for (name, unit) in end_to_end.chain(PER_LAYER) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s", 0.25)));
    }

    /// `BENCHMARK.json` and the code list the same workloads and metrics,
    /// in the same order, with the same units, bounds and rationale.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str, field: &str| -> Vec<String> {
            spec[key]
                .as_array()
                .expect("an array")
                .iter()
                .map(|entry| entry[field].as_str().expect("a string").to_owned())
                .collect()
        };
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|&(n, _)| n.to_owned()).collect()
        };
        let units = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|&(_, u)| u.to_owned()).collect()
        };
        let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect();
        assert_eq!(listed("end_to_end", "name"), names(&end_to_end));
        assert_eq!(listed("end_to_end", "unit"), units(&end_to_end));
        assert_eq!(listed("per_layer", "name"), names(&PER_LAYER));
        assert_eq!(listed("per_layer", "unit"), units(&PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
        assert_eq!(listed("workloads", "name"), workloads);
        let whys: Vec<String> = WORKLOADS.iter().map(|w| w.why.to_owned()).collect();
        assert_eq!(listed("workloads", "why"), whys);
        assert_eq!(spec["run_seconds"].as_f64(), Some(RUN_SECONDS));
        assert_eq!(spec["paths"][0], "benchmark");
        let bounds: Vec<Option<f64>> = spec["end_to_end"]
            .as_array()
            .expect("an array")
            .iter()
            .map(|entry| entry["bound"].as_f64())
            .collect();
        let fixed: Vec<Option<f64>> = END_TO_END.iter().map(|&(_, _, b)| Some(b)).collect();
        assert_eq!(bounds, fixed);
        // The contract's ceiling; set-up time gets the largest.
        assert!(END_TO_END.iter().all(|&(_, _, b)| b > 0.0 && b <= 0.25));
    }

    #[test]
    fn arguments_parse_like_the_driver_sends_them() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };
        let args = parse_args(&argv(
            "--workload tall_shared --seed 7 --seconds 3 --trace 1",
        ))
        .expect("parses");
        assert_eq!(args.workload.as_deref(), Some("tall_shared"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        assert!(
            !parse_args(&argv("--workload x --trace 0"))
                .expect("parses")
                .trace
        );
        assert!(parse_args(&argv("--trace --smoke")).expect("parses").trace);
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    /// The smoke size: tiny tables, a few sessions — all four workloads
    /// plus `--trace`, end to end, every check on.
    #[test]
    fn smoke_runs_every_workload_untraced_and_traced() {
        blaeu_exec::set_thread_budget(run::THREADS);
        for workload in &WORKLOADS {
            for trace in [false, true] {
                let opts = Options {
                    workload,
                    seed: 11,
                    seconds: 0.3,
                    trace,
                    size: Size::Smoke,
                    out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/smoke"),
                };
                let outcome = run::run(&opts);
                assert!(
                    outcome.correct && outcome.failed == 0,
                    "{} trace={trace}: {:#?}",
                    workload.name,
                    outcome.notes
                );
                let expected = if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(outcome.metrics.len(), expected, "{}", workload.name);
                assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
                if !trace {
                    assert!(outcome.metrics.iter().all(|m| m.value > 0.0));
                }
                let line = result_line(&outcome);
                let parsed = serde_json::from_str(&line).expect("the result line is JSON");
                assert_eq!(parsed["correct"], true);
                assert_eq!(
                    parsed["metrics"].as_object().map(|m| m.len()),
                    Some(expected)
                );
                let _ = std::fs::remove_dir_all(&opts.out_dir);
            }
        }
    }
}
