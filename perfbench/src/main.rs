//! `perfbench --workload <browse|dispatch|edit> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's figures for people, then, as the last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero when a correctness check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run, Budget, Sizes, Spec, Workload};

const USAGE: &str =
    "usage: perfbench --workload <browse|dispatch|edit> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Spec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace = trace.unwrap_or(false);
    // One client per core, at most two: the edit workload's writer and
    // reader, or two browsing/dispatching users.
    let clients = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2);
    Ok(Spec {
        workload,
        seed: seed.ok_or("--seed is required")?,
        budget: Budget::Seconds(seconds.ok_or("--seconds is required")?),
        trace,
        sizes: Sizes::standard(),
        clients,
        spans_out: trace.then(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}.jsonl", workload.name()))
        }),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {} seed {} trace {}",
        spec.workload.name(),
        spec.seed,
        spec.trace as u8
    );
    for n in &out.notes {
        println!("{n}");
    }
    for e in &out.errors {
        println!("ERROR {e}");
    }
    if out.error_count > out.errors.len() as u64 {
        println!("ERROR ... {} errors in all", out.error_count);
    }
    let mut metrics = Vec::new();
    for (name, value, unit) in &out.metrics {
        println!("metric {name} = {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A finite JSON number with every digit `f64` holds.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
