//! CLI regression tests for the `repro` binary.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A unique, initially-absent scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn out_flag_creates_missing_directories() {
    let base = scratch("out");
    let dir = base.join("nested").join("deeper");
    let output = repro()
        .args(["table1", "--out", dir.to_str().unwrap()])
        .output()
        .expect("run repro");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("table1.csv"))
        .expect("CSV written into a directory repro created itself");
    assert!(csv.starts_with("platform,"));
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn plan_rejects_model_only_experiments_by_name() {
    let output = repro()
        .args(["plan", "table2"])
        .output()
        .expect("run repro");
    assert_eq!(
        output.status.code(),
        Some(2),
        "plan on a model-only experiment must fail"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("table2"),
        "stderr must name the experiment: {stderr}"
    );
    assert!(stderr.contains("no execution plan"), "stderr: {stderr}");
}

#[test]
fn plan_passes_prints_the_optimizer_pipeline() {
    let base = scratch("plan-passes");
    let output = repro()
        .args(["plan", "fig9", "--passes", "--out", base.to_str().unwrap()])
        .output()
        .expect("run repro plan --passes");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("platform,algorithm,schedule,pass,stage,"),
        "pass-dump header missing: {stdout}"
    );
    for needle in [
        ",dead-level-prune,before,",
        ",dead-level-prune,after,",
        ",transfer-elision,after,",
        ",segment-fusion,after,",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
    let csv =
        std::fs::read_to_string(base.join("fig9.passes.csv")).expect("pass dump written to --out");
    assert!(csv.starts_with("platform,"));
    // Model-only experiments are rejected with the same error as plain plan.
    let output = repro()
        .args(["plan", "fig4", "--passes"])
        .output()
        .expect("run repro");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("no execution plan"));
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn serve_emits_both_backends_at_every_rate() {
    let base = scratch("serve");
    let output = repro()
        .args([
            "serve",
            "--jobs",
            "6",
            "--rates",
            "0.5,2",
            "--backend",
            "both",
            "--out",
            base.to_str().unwrap(),
        ])
        .output()
        .expect("run repro serve");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let csv = std::fs::read_to_string(base.join("serve.csv")).expect("serve.csv written");
    let lines: Vec<&str> = csv.lines().collect();
    assert!(lines[0].starts_with("backend,rate,"));
    for prefix in ["sim,0.5,", "sim,2,", "native,0.5,", "native,2,"] {
        assert!(
            lines[1..].iter().any(|l| l.starts_with(prefix)),
            "missing row {prefix} in:\n{csv}"
        );
    }
    // stdout carries the same table.
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("throughput"));
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn calibrate_writes_a_convergence_curve() {
    let base = scratch("calibrate");
    let output = repro()
        .args([
            "calibrate",
            "--jobs",
            "16",
            "--gamma-skew",
            "2",
            "--seed",
            "42",
            "--out",
            base.to_str().unwrap(),
        ])
        .output()
        .expect("run repro calibrate");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let csv = std::fs::read_to_string(base.join("calibrate.csv")).expect("calibrate.csv written");
    let lines: Vec<&str> = csv.lines().collect();
    assert!(lines[0].starts_with("seq,job,name,generation,predicted,service,abs_drift"));
    assert!(lines.len() > 4, "rows per completed job:\n{csv}");
    // The sweep replans at least once, so some job is priced under a
    // recalibrated generation.
    assert!(
        lines[1..]
            .iter()
            .any(|l| l.split(',').nth(3).is_some_and(|g| g != "0")),
        "no recalibrated generation in:\n{csv}"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn calibrate_rejects_a_nonsense_skew() {
    let output = repro()
        .args(["calibrate", "--gamma-skew", "0"])
        .output()
        .expect("run repro calibrate");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--gamma-skew"), "stderr: {stderr}");
}

#[test]
fn recover_rejects_rates_outside_unit_interval() {
    let output = repro()
        .args(["recover", "--jobs", "4", "--rates", "0,1.5"])
        .output()
        .expect("run repro recover");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("crash probabilities"));
}

#[test]
fn every_mode_answers_help_with_exit_zero() {
    for (args, needle) in [
        (vec!["--help"], "usage: repro"),
        (vec!["plan", "--help"], "usage: repro plan"),
        (vec!["serve", "--help"], "usage: repro serve"),
        (vec!["chaos", "--help"], "usage: repro chaos"),
        (vec!["calibrate", "--help"], "usage: repro calibrate"),
        (vec!["fleet", "--help"], "usage: repro fleet"),
        (vec!["batch", "--help"], "usage: repro batch"),
        (vec!["recover", "--help"], "usage: repro recover"),
        (vec!["batch", "-h"], "usage: repro batch"),
    ] {
        let output = repro().args(&args).output().expect("run repro");
        assert!(
            output.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains(needle),
            "{args:?} help missing {needle:?}: {stdout}"
        );
    }
}

#[test]
fn help_lists_seed_and_out_flags() {
    for mode in ["serve", "chaos", "calibrate", "fleet", "batch", "recover"] {
        let output = repro().args([mode, "--help"]).output().expect("run repro");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains("--seed"),
            "{mode} help misses --seed: {stdout}"
        );
        assert!(
            stdout.contains("--out"),
            "{mode} help misses --out: {stdout}"
        );
    }
}

#[test]
fn unknown_flags_exit_two_with_usage() {
    for args in [
        vec!["plan", "fig9", "--bogus"],
        vec!["serve", "--bogus"],
        vec!["chaos", "--nope", "3"],
        vec!["calibrate", "--jbos", "4"],
        vec!["fleet", "--ndoes", "1,2"],
        vec!["recover", "--rtaes", "0.3"],
        vec!["batch", "--natve"],
        vec!["--frobnicate"],
    ] {
        let output = repro().args(&args).output().expect("run repro");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?} must exit 2: {}",
            String::from_utf8_lossy(&output.stdout)
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("unknown argument"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage:"),
            "{args:?} must echo usage: {stderr}"
        );
    }
}

#[test]
fn valued_flag_without_value_exits_two() {
    let output = repro()
        .args(["serve", "--jobs"])
        .output()
        .expect("run repro");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("expects"));
}

#[test]
fn fleet_writes_the_scaling_matrix() {
    let base = scratch("fleet");
    let output = repro()
        .args([
            "fleet",
            "--jobs",
            "8",
            "--nodes",
            "1,2",
            "--rates",
            "1,6",
            "--seed",
            "42",
            "--out",
            base.to_str().unwrap(),
        ])
        .output()
        .expect("run repro fleet");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let csv = std::fs::read_to_string(base.join("fleet.csv")).expect("fleet.csv written");
    let lines: Vec<&str> = csv.lines().collect();
    assert!(lines[0].starts_with("nodes,rate,submitted,completed,rejected,goodput,"));
    for prefix in ["1,1,8,", "1,6,8,", "2,1,8,", "2,6,8,"] {
        assert!(
            lines[1..].iter().any(|l| l.starts_with(prefix)),
            "missing row {prefix} in:\n{csv}"
        );
    }
    // stdout carries the same table.
    assert!(String::from_utf8_lossy(&output.stdout).contains("routing_quality"));
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn fleet_rejects_a_zero_node_count() {
    let output = repro()
        .args(["fleet", "--nodes", "0,2"])
        .output()
        .expect("run repro fleet");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--nodes"));
}

#[test]
fn malformed_values_exit_two_with_usage() {
    for args in [
        vec!["serve", "--jobs", "x"],
        vec!["serve", "--backend", "sim", "--rates", "0"],
        vec!["serve", "--backend", "sim", "--rates", "-1"],
        vec!["serve", "--backend", "gpu"],
        vec!["chaos", "--rates", "a"],
        vec!["chaos", "--rates", "0,1.5"],
        vec!["chaos", "--jobs", "1.5"],
        vec!["calibrate", "--gamma-skew", "x"],
        vec!["calibrate", "--seed", "1,2"],
        vec!["fleet", "--nodes", "1,,2"],
        vec!["fleet", "--rates", "nan"],
        vec!["fleet", "--rates", "inf"],
        vec!["batch", "--rates", "0"],
        vec!["batch", "--seed", "s"],
        vec!["recover", "--seed", "-1"],
        vec!["recover", "--rates", "0,x"],
    ] {
        let output = repro().args(&args).output().expect("run repro");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} must print no rows");
        let usage = format!("usage: repro {}", args[0]);
        assert!(
            stderr.contains(&usage),
            "{args:?} must echo usage: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
