//! The repository benchmark: six closed-loop transaction workloads driven
//! through the public `Database` facade.  See `README.md` next to this
//! package for the workloads, the metrics and how to read the output.
//!
//! ```text
//! critique-benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//!     one run of one workload; the last line of stdout is its result
//! critique-benchmark [--seed N] [--seconds S] [--repeat K] [--out DIR]
//!     every workload, timed and traced, each in a fresh child process;
//!     with K > 1 also each end-to-end cell's median, quartiles and spread
//! critique-benchmark --emit-spec
//!     print BENCHMARK.json
//! ```

mod alloc;
mod driver;
mod gen;
mod hist;
mod json;
mod micro;
mod run;
mod set;
mod span;
mod spec;
mod stats;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    repeat: usize,
    out: PathBuf,
    emit_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: None,
        trace: false,
        repeat: 1,
        out: PathBuf::from("benchmark/out"),
        emit_spec: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--emit-spec" {
            args.emit_spec = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Some(number()?),
            "--repeat" => args.repeat = number()? as usize,
            "--trace" => args.trace = number()? != 0,
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_some_and(|s| !(1..=60).contains(&s)) {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    if !(1..=100).contains(&args.repeat) {
        return Err("--repeat must be between 1 and 100".to_string());
    }
    Ok(args)
}

fn single_run(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = spec::workload(name) else {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name:?}; the workloads are {known:?}");
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("creating {} failed: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS);
    let result = if args.trace {
        run::traced(workload, args.seed, seconds, &args.out)
    } else {
        run::timed(workload, args.seed, seconds, &args.out)
    };
    eprintln!(
        "{name} seed {} {} s {}: attempted {} failed {}",
        args.seed,
        seconds,
        if args.trace { "traced" } else { "timed" },
        result.attempted,
        result.failed
    );
    for (metric, value, unit) in &result.metrics {
        // A per-layer metric comes with the end-to-end cell it should move.
        let moves = spec::PER_LAYER
            .iter()
            .find(|m| m.name == *metric)
            .map_or("", |m| m.moves);
        eprintln!("  {metric:<34} {value:>18.6} {unit:<7} {moves}");
    }
    for note in &result.notes {
        eprintln!("  note: {note}");
    }
    for violation in &result.violations {
        eprintln!("  VIOLATION: {violation}");
    }
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_spec {
        print!("{}", spec::benchmark_json().to_pretty());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => single_run(name, &args),
        None => {
            // The bounds hold for the gated window length, so that is what
            // the noise table is made with; one round is a quick look.
            let default_seconds = if args.repeat > 1 {
                spec::RUN_SECONDS
            } else {
                spec::SET_SECONDS
            };
            set::run(
                args.seed,
                args.seconds.unwrap_or(default_seconds),
                args.repeat,
                &args.out,
            )
        }
    }
}
