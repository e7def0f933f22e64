//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable table per workload, then one JSON result line:
//! the gated end-to-end metrics with `--trace 0`, the per-layer table
//! with `--trace 1`. Exits 2 on bad arguments.

use std::process::ExitCode;

use perfbench::out::{peak_rss_mb, result_json, Metrics};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(names) = perfbench::select(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {:?}, native-sort or all)",
            args.workload,
            perfbench::WORKLOADS
        );
        return ExitCode::from(2);
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Metrics::default();
    for name in &names {
        let o = perfbench::run(name, args.seed, args.seconds, args.trace).expect("known workload");
        for line in &o.table {
            println!("{line}");
        }
        let chosen = if args.trace { &o.layers } else { &o.e2e };
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        for (k, (v, u)) in chosen.iter() {
            println!("  {k:<34} {v:>16.6} {u}");
            metrics.set(format!("{prefix}{k}"), *v, u);
        }
        correct &= o.correct;
        attempted += o.attempted;
        failed += o.failed;
    }
    if !args.trace {
        let rss = peak_rss_mb();
        println!("  {:<34} {rss:>16.6} MiB", "peak_rss_mb");
        metrics.set("peak_rss_mb", rss, "MiB");
    }
    println!(
        "fail_frac {:.6} ({failed} of {attempted} submitted: rejected, cancelled, failed or wrong output)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}
