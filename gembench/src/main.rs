//! `gembench --workload <oltp|analytics|cold> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes, then one JSON line: `correct`, `attempted`, `failed` and
//! the metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Exits 1 when an oracle, size check or ledger check fails, 2 on bad
//! arguments or a run that could not complete.

use gembench::bench::{self, Config, Report};
use gembench::gen::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Config::new(workload, seed, seconds, trace, PathBuf::from(".gembench")))
}

fn json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("gembench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench::run(&cfg) {
        Ok(report) => {
            for n in &report.notes {
                println!("{n}");
            }
            println!("{}", json(&report));
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gembench: {} run failed: {e}", cfg.workload.name());
            ExitCode::from(2)
        }
    }
}
