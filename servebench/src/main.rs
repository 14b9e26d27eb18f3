//! Serving benchmark of the SESR defense.
//!
//! ```text
//! servebench --workload camera|burst|front --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` it holds the per-layer metrics
//! and the run's spans are written to `.bench_out/`. See `README.md` for
//! the workloads and metrics.

#![forbid(unsafe_code)]

mod front;
mod inproc;
mod layers;
mod measure;

use measure::{Metrics, SpanLog, Window};

pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!("usage: servebench --workload camera|burst|front --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() != 8 {
        usage();
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let value = pair[1].as_str();
        match pair[0].as_str() {
            "--workload" if matches!(value, "camera" | "burst" | "front") => {
                workload = Some(value.to_string())
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s| s >= 2),
            "--trace" if matches!(value, "0" | "1") => trace = Some(value == "1"),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// The run's verdict: correct when no reply was misshapen or wrong and the
/// traced run's own checks held.
pub fn finish(window: &Window, metrics: Metrics, checks_ok: bool) -> Outcome {
    Outcome {
        correct: window.wrong == 0 && checks_ok,
        attempted: window.sent,
        failed: window.failed + window.wrong,
        metrics,
    }
}

pub fn write_spans(log: &SpanLog, args: &Args) {
    let path = std::path::PathBuf::from(format!(
        ".bench_out/spans-{}-{}.jsonl",
        args.workload, args.seed
    ));
    match log.write(&path) {
        Ok(()) => eprintln!("{} spans written to {}", log.spans.len(), path.display()),
        Err(err) => eprintln!("cannot write spans to {}: {err}", path.display()),
    }
}

fn main() {
    let args = parse_args();
    let outcome = match args.workload.as_str() {
        "camera" => inproc::run(&inproc::camera(), &args),
        "burst" => inproc::run(&inproc::burst(), &args),
        _ => front::run(&args),
    };
    let mut fields = Vec::new();
    for (name, value, unit) in &outcome.metrics.0 {
        assert!(value.is_finite(), "metric {name} is not a number");
        eprintln!("{name:<32} {value:>14.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if !outcome.correct {
        eprintln!("servebench: wrong output");
        std::process::exit(1);
    }
}
