//! `--noise`: the repeatability study behind `NOISE.md`. Two sets of
//! runs of the same build, every workload, a different seed each run —
//! the check the driver applies before it accepts a benchmark: within a
//! set, each end-to-end metric's quartile spread (as a share of its
//! median) must stay inside the metric's bound, and the second set's
//! median must not be worse than the first's by more than the bound.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use serde_json::Value;

use crate::workload::WORKLOADS;
use crate::RUN_SECONDS;

/// Runs per set and workload: the driver's count.
const NOISE_REPS: u64 = 10;

/// The per-layer tails an untraced run prints below its metrics, on the
/// workloads that resolve them. No bound: a workload cannot be made to
/// resolve them all (`wide_cold` builds 28 maps a run).
const TAILS: [&str; 2] = ["wire.map_ms_p90", "wire.nav_ms_p99"];

/// Python's `statistics.quantiles(values, n=4)` (the exclusive method),
/// which is what the driver computes.
fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// One run in a child process of this same executable (a fresh process,
/// so peak RSS and pool state do not leak between runs).
fn one_run(workload: &str, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload} seed {seed}: {e}: {stdout}"))?;
    if !output.status.success() || result["correct"] != true || result["failed"] != 0u64 {
        return Err(format!("{workload} seed {seed} was not correct:\n{stdout}"));
    }
    let metrics = result["metrics"]
        .as_object()
        .ok_or("result line without metrics")?;
    let mut values: BTreeMap<String, f64> = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m["value"].as_f64()?)))
        .collect();
    // Printed as `name value unit`.
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        let name = words.next().unwrap_or_default();
        let value = words.next().and_then(|v| v.parse().ok());
        if TAILS.contains(&name) {
            values.extend(value.map(|v| (name.to_owned(), v)));
        }
    }
    // Not metrics: the header's pure-CPU spin and stolen CPU time, kept
    // to tell the box's own drift from the benchmark's.
    for field in [CALIBRATION, STEAL] {
        let value = stdout
            .split_once(field)
            .and_then(|(_, rest)| rest.split_whitespace().next()?.parse().ok());
        values.extend(value.map(|v| (field.to_owned(), v)));
    }
    Ok(values)
}

/// The provenance header's calibration and steal fields.
const CALIBRATION: &str = "calibration_spin_ms=";
const STEAL: &str = "steal_ticks=";

struct Spec {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn specs() -> Result<Vec<Spec>, String> {
    let file = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("run from the repository root: BENCHMARK.json: {e}"))?;
    let spec = serde_json::from_str(&file).map_err(|e| e.to_string())?;
    spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json lists no end_to_end metrics")?
        .iter()
        .map(|m| {
            Ok(Spec {
                name: m["name"].as_str().ok_or("metric without name")?.to_owned(),
                unit: m["unit"].as_str().ok_or("metric without unit")?.to_owned(),
                lower_is_better: m["better"] == "lower",
                bound: m["bound"].as_f64().ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Runs the study and writes `benchmark/NOISE.md`.
pub fn study() -> Result<(), String> {
    let specs = specs()?;
    // values[set][workload][metric] = one value per repetition.
    let mut values = [BTreeMap::new(), BTreeMap::new()];
    for (set, first_seed) in [(0usize, 1u64), (1, 101)] {
        for rep in 0..NOISE_REPS {
            for workload in &WORKLOADS {
                let seed = first_seed + rep;
                eprintln!("set {} rep {rep}: {} seed {seed}", set + 1, workload.name);
                let metrics = one_run(workload.name, seed)?;
                let per_workload: &mut BTreeMap<String, Vec<f64>> =
                    values[set].entry(workload.name).or_default();
                for (name, value) in metrics {
                    per_workload.entry(name).or_default().push(value);
                }
            }
        }
    }

    let mut md = String::new();
    let w = &mut md;
    let _ = writeln!(
        w,
        "# NOISE — do two sets of runs of the same build agree?\n"
    );
    let _ = writeln!(
        w,
        "Generated by `wirebench --noise`: two sets of {NOISE_REPS} runs of {RUN_SECONDS} s of every \
         workload on one build, seeds 1.. in set 1 and 101.. in set 2. `spread` is the distance \
         between the first and third quartile (Python's `statistics.quantiles(values, n=4)`) as a share \
         of the median; `shift` is how much *worse* set 2's median is than set 1's (negative = better). \
         A cell holds when both spreads and the shift stay inside the bound; the aim is a third of it. \
         Rows marked per-layer are the tails an untraced run resolves on that workload; they have no \
         bound. The last two rows of each table are not metrics: the single-threaded arithmetic spin every run \
         times for its provenance header, and the CPU time the hypervisor stole from the run (median and \
         largest, in hundredths of a second) — when *they* move, the box drifted, not the benchmark.\n"
    );
    let mut broken = 0;
    for workload in &WORKLOADS {
        let _ = writeln!(w, "## {}\n", workload.name);
        let _ = writeln!(
            w,
            "| metric | unit | bound | set 1 median | spread | set 2 median | spread | shift | holds |"
        );
        let _ = writeln!(w, "|---|---|---:|---:|---:|---:|---:|---:|---|");
        // Median and quartile spread of one set, when every run reported it.
        let stats = |set: usize, name: &str| {
            values[set]
                .get(workload.name)
                .and_then(|m| m.get(name))
                .filter(|v| v.len() as u64 == NOISE_REPS)
                .and_then(|v| quartiles(v))
                .map(|[q1, q2, q3]| (q2, (q3 - q1) / q2))
        };
        for spec in &specs {
            let (Some((m1, s1)), Some((m2, s2))) = (stats(0, &spec.name), stats(1, &spec.name))
            else {
                return Err(format!("{}: {} was not reported", workload.name, spec.name));
            };
            let shift = if spec.lower_is_better {
                m2 / m1 - 1.0
            } else {
                1.0 - m2 / m1
            };
            // The driver exempts set-up time from the spread rule only.
            let spread_ok = spec.name == "setup_s" || s1.max(s2) <= spec.bound;
            let verdict = match (
                spread_ok && shift <= spec.bound,
                s1.max(s2) <= spec.bound / 3.0,
            ) {
                (true, true) => "yes",
                (true, false) => "yes (above a third)",
                (false, _) => {
                    broken += 1;
                    "NO"
                }
            };
            let _ = writeln!(
                w,
                "| `{}` | {} | {:.0} % | {:.4} | {:.2} % | {:.4} | {:.2} % | {:+.2} % | {} |",
                spec.name,
                spec.unit,
                spec.bound * 100.0,
                m1,
                s1 * 100.0,
                m2,
                s2 * 100.0,
                shift * 100.0,
                verdict
            );
        }
        for name in TAILS {
            if let (Some((m1, s1)), Some((m2, s2))) = (stats(0, name), stats(1, name)) {
                let _ = writeln!(
                    w,
                    "| `{name}` (per-layer) | ms | — | {m1:.4} | {:.2} % | {m2:.4} | {:.2} % | {:+.2} % | — |",
                    s1 * 100.0,
                    s2 * 100.0,
                    (m2 / m1 - 1.0) * 100.0
                );
            }
        }
        let spin = |set: usize| {
            values[set]
                .get(workload.name)
                .and_then(|m| m.get(CALIBRATION))
                .and_then(|v| quartiles(v))
                .map_or((0.0, 0.0), |[q1, q2, q3]| (q2, (q3 - q1) / q2 * 100.0))
        };
        let ((m1, s1), (m2, s2)) = (spin(0), spin(1));
        let _ = writeln!(
            w,
            "| *calibration spin* | ms | — | {m1:.2} | {s1:.2} % | {m2:.2} | {s2:.2} % | {:+.2} % | — |",
            (m2 / m1 - 1.0) * 100.0
        );
        let steal = |set: usize| {
            let ticks = values[set].get(workload.name).and_then(|m| m.get(STEAL));
            let ticks = ticks.map_or(&[][..], Vec::as_slice);
            (
                crate::recorder::median(ticks).unwrap_or(0.0),
                ticks.iter().copied().fold(0.0, f64::max),
            )
        };
        let ((m1, max1), (m2, max2)) = (steal(0), steal(1));
        let _ = writeln!(
            w,
            "| *stolen CPU* | 10 ms | — | {m1:.0} | max {max1:.0} | {m2:.0} | max {max2:.0} | — | — |\n"
        );
    }
    let _ = writeln!(
        w,
        "{}",
        if broken == 0 {
            "Every reported metric × workload cell holds its bound.".to_owned()
        } else {
            format!("{broken} cells do NOT hold their bound.")
        }
    );
    std::fs::write("benchmark/NOISE.md", &md).map_err(|e| format!("benchmark/NOISE.md: {e}"))?;
    print!("{md}");
    if broken == 0 {
        Ok(())
    } else {
        Err(format!("{broken} cells do not hold their bound"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
