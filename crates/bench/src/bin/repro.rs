//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT ...] [--full] [--out DIR] [--trace DIR]
//! repro plan EXPERIMENT [...] [--passes] [--full] [--out DIR]
//! repro serve [--jobs N] [--rates R,R,...] [--backend sim|native|both]
//!             [--seed S] [--out DIR]
//! repro calibrate [--jobs N] [--gamma-skew K] [--seed S] [--out DIR]
//! repro chaos [--jobs N] [--rates R,R,...] [--backend sim|native|both]
//!             [--seed S] [--out DIR]
//! repro fleet [--jobs N] [--nodes N,N,...] [--rates R,R,...]
//!             [--seed S] [--out DIR]
//! repro batch [--jobs N] [--rates R,R,...] [--native] [--seed S]
//!             [--out DIR]
//! repro recover [--jobs N] [--rates P,P,...] [--seed S] [--out DIR]
//!
//! EXPERIMENT: table1 table2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10
//!             ablation-coalescing ablation-schedule extension-workloads
//!             all   (default: all)
//! plan        instead of running, print the compiled execution plans
//!             behind the experiment's strategies (one CSV row per plan
//!             segment); model-only experiments are rejected; --passes
//!             prints the optimizer pipeline instead — the plan IR before
//!             and after each pass, with its predicted cost
//! --full      paper-scale sizes (n = 2^24; takes much longer)
//! --out DIR   also write each experiment to DIR/<name>.csv
//!             (plans land in DIR/<name>.plan.csv)
//! --trace DIR also run every strategy (simulated and native) with
//!             structured tracing and write DIR/<name>.trace.json (Chrome
//!             trace event format, one process per strategy) plus
//!             DIR/<name>.levels.csv (per-level metrics and model drift)
//!             for each selected experiment
//! serve       drive the hpu-serve scheduler with an open-loop fleet of
//!             mixed mergesort/sum jobs and print one throughput/latency
//!             CSV row per (backend, arrival rate); defaults: 32 jobs,
//!             rates 0.5 and 2, both backends (CSV lands in
//!             DIR/serve.csv with --out)
//! chaos       serve the same fleet under seeded device-fault injection,
//!             sweeping the fault rate over --rates (here rates are fault
//!             probabilities, not offered load); prints one goodput /
//!             latency-degradation CSV row per (backend, fault rate) —
//!             with a fixed seed the goodput column is non-increasing in
//!             the rate (CSV lands in DIR/chaos.csv with --out);
//!             defaults: 16 jobs, rates 0,0.05,0.2,0.5, both backends
//! calibrate   serve a fleet on a machine whose γ the scheduler believes
//!             is --gamma-skew× its true value (default 2), with the
//!             closed calibration loop on; prints one CSV row per
//!             completed job in completion order — the abs_drift column is
//!             the convergence curve (CSV lands in DIR/calibrate.csv with
//!             --out); defaults: 24 jobs, seed 42
//! fleet       offer the identical open-loop job stream to 1, 2, ... N
//!             heterogeneous nodes through the hpu-fleet router and print
//!             one goodput/latency/routing-quality CSV row per
//!             (node count, offered rate) — the scaling story of the
//!             multi-node layer (CSV lands in DIR/fleet.csv with --out);
//!             defaults: 32 jobs, nodes 1,2,4, rates 1,6,96, seed 42
//! batch       serve the identical shape-heavy GPU job stream at each
//!             offered-load rate with cross-job kernel batching off and
//!             on (coalescing up to 4 same-shaped jobs per launch) and
//!             print one CSV row per (mode, rate): completions,
//!             rejections, throughput, batches formed and device time
//!             saved — the curve shows coalescing saturating at a higher
//!             offered load than solo launches; --native appends the
//!             unbatched wall-clock reference rows (CSV lands in
//!             DIR/batch.csv with --out); defaults: 24 jobs, rates
//!             1,2,3,4,6,8, seed 42
//! recover     serve a pinned multi-segment job stream on a 4-node fleet
//!             with one seeded mid-run node crash, sweeping the crash
//!             rate over --rates (crash probabilities) under checkpoint
//!             policies off and everylevel; prints one goodput / MTTR /
//!             levels-saved CSV row per (policy, crash rate) — with a
//!             fixed seed the rows are byte-identical across runs (CSV
//!             lands in DIR/recover.csv with --out); defaults: 16 jobs,
//!             rates 0,0.15,0.3,0.6, seed 42
//!
//! Every mode accepts --help; unknown flags and malformed values exit
//! with status 2.
//! ```

use std::io::Write;

use hpu_bench::experiments as exp;
use hpu_bench::experiments::Csv;

struct Scale {
    probe_len: usize,
    fig7_n: usize,
    fig8_sizes: Vec<usize>,
    fig9_sizes: Vec<usize>,
    fig10_sizes: Vec<usize>,
    model_n: u64,
    ablation_n: usize,
    trace_n: usize,
}

impl Scale {
    fn quick() -> Self {
        Scale {
            probe_len: 1 << 16,
            fig7_n: 1 << 16,
            fig8_sizes: (10..=20).step_by(2).map(|k| 1 << k).collect(),
            fig9_sizes: (10..=20).step_by(2).map(|k| 1 << k).collect(),
            fig10_sizes: vec![1 << 12, 1 << 14, 1 << 16],
            model_n: 1 << 24,
            ablation_n: 1 << 14,
            trace_n: 1 << 12,
        }
    }

    fn full() -> Self {
        Scale {
            probe_len: 1 << 22,
            fig7_n: 1 << 24,
            fig8_sizes: (10..=24).map(|k| 1 << k).collect(),
            fig9_sizes: (10..=24).map(|k| 1 << k).collect(),
            fig10_sizes: (12..=24).step_by(2).map(|k| 1 << k).collect(),
            model_n: 1 << 24,
            ablation_n: 1 << 20,
            trace_n: 1 << 18,
        }
    }
}

fn fig7_grid(scale: &Scale, full: bool) -> Csv {
    let alphas: Vec<f64> = (1..=7).map(|k| k as f64 * 0.05).collect();
    let levels: Vec<u32> = if full {
        vec![7, 8, 9, 10, 11, 12]
    } else {
        // Scaled-down input: the interesting levels shift up with
        // log2(n^full / n): keep the same distance from the tree bottom.
        vec![5, 6, 7, 8, 9]
    };
    exp::fig7(scale.fig7_n, &alphas, &levels)
}

/// `repro plan <exp> [...] [--passes]`: print the compiled execution
/// plans (or, with `passes`, the per-pass optimizer pipeline) behind the
/// named experiments instead of running them.
fn run_plan(experiments: &[String], passes: bool, scale: &Scale, out_dir: Option<&str>) {
    if experiments.is_empty() {
        eprintln!("{PLAN_USAGE}");
        std::process::exit(2);
    }
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    for name in experiments {
        let n = match name.as_str() {
            "fig7" => scale.fig7_n,
            "fig8" => *scale.fig8_sizes.last().expect("fig8 sizes"),
            "fig9" => *scale.fig9_sizes.last().expect("fig9 sizes"),
            "fig10" => *scale.fig10_sizes.last().expect("fig10 sizes"),
            _ => scale.ablation_n,
        };
        let (csv, kind, file_suffix) = if passes {
            (exp::plan_passes_csv(name, n), "plan passes", "passes.csv")
        } else {
            (exp::plan_csv(name, n), "plan", "plan.csv")
        };
        let Some(csv) = csv else {
            eprintln!("{name}: no execution plan (model-only or estimation experiment)");
            std::process::exit(2);
        };
        let _ = writeln!(lock, "# === {name} {kind} ===");
        let _ = write!(lock, "{}", csv.render());
        let _ = writeln!(lock);
        if let Some(dir) = out_dir {
            std::fs::create_dir_all(dir).expect("create --out directory");
            std::fs::write(format!("{dir}/{name}.{file_suffix}"), csv.render())
                .expect("write plan CSV");
        }
    }
}

/// `repro plan EXPERIMENT [...] [--passes] [--full] [--out DIR]`.
///
/// Experiments are positionals, so the argument list is split into the
/// positional prefix of each flag group before the flag table validates
/// the rest (same `--help`/unknown-flag convention as the other modes).
fn plan_mode(rest: &[String]) {
    let table: &[(&str, usize)] = &[("--passes", 0), ("--full", 0), ("--out", 1)];
    let mut experiments: Vec<String> = Vec::new();
    let mut flags: Vec<String> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let a = &rest[i];
        if a.starts_with('-') {
            let arity = table
                .iter()
                .find(|(f, _)| f == a)
                .map(|(_, k)| *k)
                .unwrap_or(0);
            flags.push(a.clone());
            flags.extend(rest.iter().skip(i + 1).take(arity).cloned());
            i += 1 + arity;
        } else {
            experiments.push(a.clone());
            i += 1;
        }
    }
    validate_flags(&flags, table, PLAN_USAGE);
    let full = flags.iter().any(|a| a == "--full");
    let passes = flags.iter().any(|a| a == "--passes");
    let scale = if full { Scale::full() } else { Scale::quick() };
    run_plan(&experiments, passes, &scale, flag_value(&flags, "--out"));
}

fn flag_value<'a>(rest: &'a [String], flag: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == flag)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

/// Prints `msg` and the mode's `usage` to stderr and exits 2.
fn reject(msg: &str, usage: &str) -> ! {
    eprintln!("{msg}\n{usage}");
    std::process::exit(2);
}

/// The comma-separated values of `flag` (`default` when the flag is
/// absent), each parsed as `T`. A malformed or empty value rejects the
/// command line. Scalar flags take the one-element form via [`flag_one`].
fn flag_list<T: std::str::FromStr>(
    rest: &[String],
    flag: &str,
    default: &str,
    usage: &str,
) -> Vec<T> {
    let raw = flag_value(rest, flag).unwrap_or(default);
    raw.split(',')
        .map(|v| {
            v.trim()
                .parse()
                .unwrap_or_else(|_| reject(&format!("malformed {flag} value: {raw:?}"), usage))
        })
        .collect()
}

/// The single value of `flag`, parsed like [`flag_list`].
fn flag_one<T: std::str::FromStr>(rest: &[String], flag: &str, default: &str, usage: &str) -> T {
    let mut values = flag_list(rest, flag, default, usage);
    if values.len() != 1 {
        reject(&format!("{flag} takes one value"), usage);
    }
    values.remove(0)
}

/// `--rates` as offered loads: each must be finite and positive.
fn offered_rates(rest: &[String], default: &str, usage: &str) -> Vec<f64> {
    let rates: Vec<f64> = flag_list(rest, "--rates", default, usage);
    if rates.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
        reject(
            "--rates are offered loads and must be finite and > 0",
            usage,
        );
    }
    rates
}

/// `--rates` as `what` probabilities: each must lie in [0, 1].
fn probability_rates(rest: &[String], default: &str, what: &str, usage: &str) -> Vec<f64> {
    let rates: Vec<f64> = flag_list(rest, "--rates", default, usage);
    if rates.iter().any(|r| !(0.0..=1.0).contains(r)) {
        reject(
            &format!("--rates are {what} probabilities and must lie in [0, 1]"),
            usage,
        );
    }
    rates
}

/// `--backend sim|native|both` (default both).
fn backend(rest: &[String], usage: &str) -> hpu_bench::ServeBackend {
    match flag_value(rest, "--backend").unwrap_or("both") {
        "sim" => hpu_bench::ServeBackend::Sim,
        "native" => hpu_bench::ServeBackend::Native,
        "both" => hpu_bench::ServeBackend::Both,
        other => reject(
            &format!("unknown --backend: {other} (expected sim, native or both)"),
            usage,
        ),
    }
}

/// Prints `csv` and, with `--out DIR`, also writes it to `DIR/<name>.csv`.
fn emit(rest: &[String], csv: &Csv, name: &str) {
    print!("{}", csv.render());
    if let Some(dir) = flag_value(rest, "--out") {
        std::fs::create_dir_all(dir).expect("create --out directory");
        std::fs::write(format!("{dir}/{name}.csv"), csv.render()).expect("write CSV file");
    }
}

/// Validates a subcommand's argument list against its flag table:
/// `flags` maps each accepted flag to the number of values it consumes.
/// `--help`/`-h` print `usage` and exit 0; anything not in the table
/// (flag or stray positional) prints `usage` to stderr and exits 2.
fn validate_flags(rest: &[String], flags: &[(&str, usize)], usage: &str) {
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i].as_str();
        if a == "--help" || a == "-h" {
            println!("{usage}");
            std::process::exit(0);
        }
        match flags.iter().find(|(f, _)| *f == a) {
            Some((flag, arity)) => {
                if i + arity >= rest.len() {
                    reject(&format!("{flag} expects {arity} value(s)"), usage);
                }
                i += 1 + arity;
            }
            None => reject(&format!("unknown argument: {a}"), usage),
        }
    }
}

const PLAN_USAGE: &str = "usage: repro plan EXPERIMENT [...] [--passes] [--full] [--out DIR]

Prints the compiled execution plans behind the named experiments (one CSV
row per plan segment) instead of running them; model-only experiments are
rejected. --passes prints the optimizer pipeline instead: the plan IR
before and after each pass, one row per segment, with the plan's
predicted cost (plans land in DIR/<name>.plan.csv, pass dumps in
DIR/<name>.passes.csv).";
const SERVE_USAGE: &str = "usage: repro serve [--jobs N] [--rates R,R,...] \
[--backend sim|native|both] [--seed S] [--out DIR]";
const CHAOS_USAGE: &str = "usage: repro chaos [--jobs N] [--rates P,P,...] \
[--backend sim|native|both] [--seed S] [--out DIR]  (rates are fault probabilities in [0,1])";
const CALIBRATE_USAGE: &str =
    "usage: repro calibrate [--jobs N] [--gamma-skew K] [--seed S] [--out DIR]";
const FLEET_USAGE: &str = "usage: repro fleet [--jobs N] [--nodes N,N,...] \
[--rates R,R,...] [--seed S] [--out DIR]

Offers the identical open-loop job stream to each node count in --nodes
at each offered rate in --rates (multiples of one node's solo completion
rate) and prints one CSV row per (node count, rate): goodput, latency
percentiles, routing quality against the omniscient oracle, steal and
migration counts. Defaults: 32 jobs, nodes 1,2,4, rates 1,6,96, seed 42.";
const BATCH_USAGE: &str = "usage: repro batch [--jobs N] [--rates R,R,...] \
[--native] [--seed S] [--out DIR]

Serves the identical shape-heavy GPU job stream at each offered-load rate
(multiples of the solo reference completion rate) twice — cross-job
kernel batching off, then coalescing up to 4 same-shaped jobs per merged
launch — and prints one CSV row per (mode, rate): completions,
rejections, goodput, throughput, batches formed and device time saved.
--native appends the unbatched native (wall-clock) reference rows.
Defaults: 24 jobs, rates 1,2,3,4,6,8, seed 42.";
const RECOVER_USAGE: &str = "usage: repro recover [--jobs N] [--rates P,P,...] \
[--seed S] [--out DIR]  (rates are node-crash probabilities in [0,1])

Serves a pinned multi-segment job stream on a 4-node fleet with seeded
node crashes at each crash rate, once per checkpoint policy (off,
everylevel), and prints one CSV row per (policy, rate): goodput, MTTR,
jobs recovered vs restarted, and the completed levels the checkpoints
saved from re-execution. Defaults: 16 jobs, rates 0,0.15,0.3,0.6, seed 42.";
const TOP_USAGE: &str = "usage: repro [EXPERIMENT ...] [--full] [--out DIR] [--trace DIR]
       repro plan EXPERIMENT [...] [--passes] [--full] [--out DIR]
       repro plan|serve|chaos|calibrate|fleet|batch|recover [--help]

EXPERIMENT: table1 table2 fig3..fig10 ablation-coalescing
            ablation-schedule extension-workloads all (default: all)";

/// `repro serve [--jobs N] [--rates R,..] [--backend B] [--seed S] [--out DIR]`.
fn serve_mode(rest: &[String]) {
    let u = SERVE_USAGE;
    validate_flags(
        rest,
        &[
            ("--jobs", 1),
            ("--rates", 1),
            ("--backend", 1),
            ("--seed", 1),
            ("--out", 1),
        ],
        u,
    );
    let jobs = flag_one(rest, "--jobs", "32", u);
    let rates = offered_rates(rest, "0.5,2", u);
    let backend = backend(rest, u);
    let seed = flag_one(rest, "--seed", "42", u);
    emit(
        rest,
        &hpu_bench::serve_fleet(jobs, &rates, backend, seed),
        "serve",
    );
}

/// `repro chaos [--jobs N] [--rates R,..] [--backend B] [--seed S] [--out DIR]`.
fn chaos_mode(rest: &[String]) {
    let u = CHAOS_USAGE;
    validate_flags(
        rest,
        &[
            ("--jobs", 1),
            ("--rates", 1),
            ("--backend", 1),
            ("--seed", 1),
            ("--out", 1),
        ],
        u,
    );
    let jobs = flag_one(rest, "--jobs", "16", u);
    let rates = probability_rates(rest, "0,0.05,0.2,0.5", "fault", u);
    let backend = backend(rest, u);
    let seed = flag_one(rest, "--seed", "42", u);
    emit(
        rest,
        &hpu_bench::chaos_sweep(jobs, &rates, backend, seed),
        "chaos",
    );
}

/// `repro calibrate [--jobs N] [--gamma-skew K] [--seed S] [--out DIR]`.
fn calibrate_mode(rest: &[String]) {
    let u = CALIBRATE_USAGE;
    validate_flags(
        rest,
        &[
            ("--jobs", 1),
            ("--gamma-skew", 1),
            ("--seed", 1),
            ("--out", 1),
        ],
        u,
    );
    let jobs = flag_one(rest, "--jobs", "24", u);
    let gamma_skew: f64 = flag_one(rest, "--gamma-skew", "2", u);
    if !(gamma_skew.is_finite() && gamma_skew > 0.0) {
        reject(
            &format!("--gamma-skew must be a positive finite number, got {gamma_skew}"),
            u,
        );
    }
    let seed = flag_one(rest, "--seed", "42", u);
    emit(
        rest,
        &hpu_bench::calibrate_sweep(jobs, gamma_skew, seed),
        "calibrate",
    );
}

/// `repro fleet [--jobs N] [--nodes N,..] [--rates R,..] [--seed S] [--out DIR]`.
fn fleet_mode(rest: &[String]) {
    let u = FLEET_USAGE;
    validate_flags(
        rest,
        &[
            ("--jobs", 1),
            ("--nodes", 1),
            ("--rates", 1),
            ("--seed", 1),
            ("--out", 1),
        ],
        u,
    );
    let jobs = flag_one(rest, "--jobs", "32", u);
    let node_counts: Vec<usize> = flag_list(rest, "--nodes", "1,2,4", u);
    if node_counts.contains(&0) {
        reject("--nodes counts must be at least 1", u);
    }
    let rates = offered_rates(rest, "1,6,96", u);
    let seed = flag_one(rest, "--seed", "42", u);
    emit(
        rest,
        &hpu_bench::fleet_scaling(jobs, &node_counts, &rates, seed),
        "fleet",
    );
}

/// `repro batch [--jobs N] [--rates R,..] [--native] [--seed S] [--out DIR]`.
fn batch_mode(rest: &[String]) {
    let u = BATCH_USAGE;
    validate_flags(
        rest,
        &[
            ("--jobs", 1),
            ("--rates", 1),
            ("--native", 0),
            ("--seed", 1),
            ("--out", 1),
        ],
        u,
    );
    let jobs = flag_one(rest, "--jobs", "24", u);
    let rates = offered_rates(rest, "1,2,3,4,6,8", u);
    let native = rest.iter().any(|a| a == "--native");
    let seed = flag_one(rest, "--seed", "42", u);
    emit(
        rest,
        &hpu_bench::batch_curve(jobs, &rates, native, seed),
        "batch",
    );
}

/// `repro recover [--jobs N] [--rates P,..] [--seed S] [--out DIR]`.
fn recover_mode(rest: &[String]) {
    let u = RECOVER_USAGE;
    validate_flags(
        rest,
        &[("--jobs", 1), ("--rates", 1), ("--seed", 1), ("--out", 1)],
        u,
    );
    let jobs = flag_one(rest, "--jobs", "16", u);
    let rates = probability_rates(rest, "0,0.15,0.3,0.6", "crash", u);
    let seed = flag_one(rest, "--seed", "42", u);
    emit(
        rest,
        &hpu_bench::recover_sweep(jobs, &rates, seed),
        "recover",
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode: Option<fn(&[String])> = match args.first().map(String::as_str) {
        Some("plan") => Some(plan_mode),
        Some("serve") => Some(serve_mode),
        Some("calibrate") => Some(calibrate_mode),
        Some("chaos") => Some(chaos_mode),
        Some("fleet") => Some(fleet_mode),
        Some("batch") => Some(batch_mode),
        Some("recover") => Some(recover_mode),
        _ => None,
    };
    if let Some(mode) = mode {
        mode(&args[1..]);
        return;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{TOP_USAGE}");
        return;
    }
    for a in &args {
        if a.starts_with("--") && !["--full", "--out", "--trace"].contains(&a.as_str()) {
            eprintln!("unknown argument: {a}\n{TOP_USAGE}");
            std::process::exit(2);
        }
    }
    let full = args.iter().any(|a| a == "--full");
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let trace_dir = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let wanted: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| Some(a.as_str()) != out_dir.as_deref())
        .filter(|a| Some(a.as_str()) != trace_dir.as_deref())
        .cloned()
        .collect();
    let scale = if full { Scale::full() } else { Scale::quick() };

    // Legacy spelling with flags before the subcommand, e.g.
    // `repro --out DIR plan fig9`.
    if wanted.first().map(String::as_str) == Some("plan") {
        run_plan(&wanted[1..], false, &scale, out_dir.as_deref());
        return;
    }

    // One traced run of every strategy covers all experiments.
    let bundle = trace_dir.as_ref().map(|_| exp::trace_bundle(scale.trace_n));

    let all = [
        "table1",
        "table2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "ablation-coalescing",
        "ablation-schedule",
        "extension-workloads",
    ];
    let selected: Vec<&str> = if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        all.to_vec()
    } else {
        wanted.iter().map(String::as_str).collect()
    };

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    for name in selected {
        let csv = match name {
            "table1" => exp::table1(),
            "table2" => exp::table2(scale.probe_len),
            "fig3" => exp::fig3(scale.model_n),
            "fig4" => exp::fig4(scale.model_n),
            "fig5" => exp::fig5(scale.probe_len),
            "fig6" => exp::fig6(&[
                scale.probe_len / 8,
                scale.probe_len / 4,
                scale.probe_len / 2,
                scale.probe_len,
            ]),
            "fig7" => fig7_grid(&scale, full),
            "fig8" => exp::fig8(&scale.fig8_sizes),
            "fig9" => exp::fig9(&scale.fig9_sizes),
            "fig10" => exp::fig10(&scale.fig10_sizes),
            "ablation-coalescing" => exp::ablation_coalescing(scale.ablation_n),
            "ablation-schedule" => exp::ablation_schedule(scale.ablation_n),
            "extension-workloads" => exp::extension_workloads(scale.ablation_n),
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        };
        let _ = writeln!(lock, "# === {} ===", csv.name);
        let _ = write!(lock, "{}", csv.render());
        let _ = writeln!(lock);
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).expect("create --out directory");
            std::fs::write(format!("{dir}/{}.csv", csv.name), csv.render())
                .expect("write CSV file");
        }
        if let (Some(dir), Some(bundle)) = (&trace_dir, &bundle) {
            std::fs::create_dir_all(dir).expect("create --trace directory");
            std::fs::write(
                format!("{dir}/{}.trace.json", csv.name),
                bundle.chrome.render(),
            )
            .expect("write trace JSON");
            std::fs::write(
                format!("{dir}/{}.levels.csv", csv.name),
                bundle.levels.render(),
            )
            .expect("write levels CSV");
        }
    }
}
