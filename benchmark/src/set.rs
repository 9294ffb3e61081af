//! The whole set: every workload, timed and traced, each run in a fresh
//! child process (so resident-set figures are per workload), repeated
//! `--repeat` times to show the noise next to the numbers.

use crate::json::{self, Value};
use crate::run::BROKEN;
use crate::spec::{Better, COUNT_PASS, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

/// One child run; its parsed result line and the predictions its traced
/// figures broke, or what went wrong.
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &Path,
) -> Result<(Value, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .map_err(|e| format!("starting the child run: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}:\n{stderr}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed no result"))?;
    let result = json::parse(line)?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload} failed its output checks:\n{stderr}"));
    }
    if result.get("failed").and_then(Value::as_f64) != Some(0.0) {
        return Err(format!("{workload} had failed operations:\n{stderr}"));
    }
    let broken = stderr
        .lines()
        .filter(|line| line.contains(BROKEN))
        .map(|line| format!("{workload}: {}", line.trim()))
        .collect();
    Ok((result, broken))
}

/// `(metric, value, unit)` of a result line, in the order printed.
fn metrics_of(result: &Value) -> Vec<(String, f64, String)> {
    result
        .get("metrics")
        .map_or(&[][..], Value::fields)
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

pub fn run(seed: u64, seconds: u64, repeat: usize, out: &Path) -> ExitCode {
    // (workload, metric) → one value per repeat.
    let mut cells: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut problems = Vec::new();
    let mut broken = Vec::new();
    for round in 1..=repeat {
        for w in &WORKLOADS {
            println!(
                "== {} (seed {seed}, {seconds} s, round {round}/{repeat}) ==",
                w.name
            );
            for trace in [false, true] {
                match child(w.name, seed, seconds, trace, out) {
                    Ok((result, broken_here)) => {
                        for (name, value, unit) in metrics_of(&result) {
                            println!("  {name:<34} {value:>18.6} {unit}");
                            cells.entry((w.name, name)).or_default().push(value);
                        }
                        for line in &broken_here {
                            println!("  {line}");
                        }
                        broken.extend(broken_here);
                    }
                    Err(problem) => {
                        println!("  FAILED: {problem}");
                        problems.push(problem);
                    }
                }
            }
        }
    }

    let mut noisy = Vec::new();
    let mut drifting = Vec::new();
    if repeat > 1 {
        println!("== end-to-end noise over {repeat} rounds: median [q1 .. q3] spread / bound ==");
        for w in &WORKLOADS {
            for m in &END_TO_END {
                let Some(values) = cells.get(&(w.name, m.name.to_string())) else {
                    continue;
                };
                if values.len() < 2 {
                    continue;
                }
                let [q1, _, q3] = quartiles(values);
                let spread = spread(values);
                // As in the acceptance rule, the set-up time's own spread
                // is shown but not held against its bound; nor is a
                // workload that is not gated.
                let over = spread > m.bound && m.name != "setup_s" && w.gated;
                println!(
                    "  {:<16} {:<18} {:>16.6} [{:>16.6} .. {:>16.6}] {:>6.2}% / {:>2.0}% {}{}",
                    w.name,
                    m.name,
                    median(values),
                    q1,
                    q3,
                    spread * 100.0,
                    m.bound * 100.0,
                    match m.better {
                        Better::Lower => "lower is better",
                        Better::Higher => "higher is better",
                    },
                    if over { "  TOO NOISY" } else { "" },
                );
                if over {
                    noisy.push(format!("{}/{}", w.name, m.name));
                }
            }
        }
        for w in &WORKLOADS {
            for name in COUNT_PASS {
                if let Some(values) = cells.get(&(w.name, name.to_string())) {
                    if values.iter().any(|v| *v != values[0]) {
                        println!(
                            "  count differs between rounds: {}/{name} {values:?}",
                            w.name
                        );
                        drifting.push(format!("{}/{name}", w.name));
                    }
                }
            }
        }
        if drifting.is_empty() {
            println!("  every count-pass counter repeated exactly");
        }
    }

    let strings =
        |items: &[String]| Value::Array(items.iter().map(|s| Value::from(s.as_str())).collect());
    let summary = Value::object([
        ("seed", Value::from(seed)),
        ("seconds", Value::from(seconds)),
        ("rounds", Value::from(repeat as u64)),
        // End-to-end medians only; the per-layer figures are listed above.
        (
            "medians",
            Value::Object(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        let of_workload = END_TO_END
                            .iter()
                            .filter_map(|m| {
                                let values = cells.get(&(w.name, m.name.to_string()))?;
                                Some((m.name.to_string(), Value::from(median(values))))
                            })
                            .collect();
                        (w.name.to_string(), Value::Object(of_workload))
                    })
                    .collect(),
            ),
        ),
        ("failed_runs", Value::from(problems.len() as u64)),
        ("too_noisy", strings(&noisy)),
        ("count_drift", strings(&drifting)),
        ("predictions_broken", strings(&broken)),
        // This benchmark defines the baseline; it compares nothing.
        ("claim", Value::Null),
    ]);
    println!("{summary}");
    if problems.is_empty() && noisy.is_empty() && drifting.is_empty() && broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
