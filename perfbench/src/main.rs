//! `perfbench` — the whole-study benchmark of the printed-MLP training
//! flow. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload quick_study --seed 0 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer ones; the last line of standard output is always one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod run;
mod trace;
mod traced;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use pe_datasets::Dataset;

use layers::{layer_metrics, span_records, PER_LAYER};
use run::{Run, Workload, MASTER_SEED, THREADS};
use trace::median;

const USAGE: &str =
    "usage: perfbench --workload <full_study|quick_study|quick_durable> --seed <n> --seconds <n> --trace <0|1>";

/// End-to-end metrics: name, unit, which direction is better.
const END_TO_END: [(&str, &str, &str); 6] = [
    ("wall_s", "s", "lower"),
    ("resume_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("area_reduction_geomean", "x", "higher"),
    ("selected_rows", "count", "higher"),
];

/// Below this share of attributed traced time a workload is flagged.
const ATTRIBUTED_FLOOR: f64 = 0.95;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 30.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Environment variables that change what the library or the bench
/// bins run (`PE_THREADS`, `PE_KERNEL`, `PE_CACHE_SHARDS`,
/// `PE_CHECKPOINT_EVERY`, `PE_ISLANDS`, `PE_MIGRATE_EVERY`, `PE_FAULT`,
/// `PE_BUDGET`, `PE_STORE`, `PE_CACHE_DIR`, and any later `PE_` knob).
fn set_knobs() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("PE_"))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = set_knobs();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: they change what the program runs",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let work_dir = target.join("perfbench-work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let mut run = Run::new(args.workload, args.seed, work_dir.clone());
    let measured = measure(&mut run, &args);
    let cleaned = std::fs::remove_dir_all(&work_dir);
    let measured = match (measured, cleaned) {
        (Ok(measured), Ok(())) => measured,
        (Err(e), _) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        (_, Err(e)) => {
            eprintln!("perfbench: cannot remove {}: {e}", work_dir.display());
            return ExitCode::FAILURE;
        }
    };
    report(&run, &args, &measured, &target);
    ExitCode::SUCCESS
}

/// What a run measured.
struct Measured {
    /// Iterations run.
    iterations: usize,
    /// Each metric: the median of its samples.
    metrics: BTreeMap<String, f64>,
    /// Each sampled metric's value per iteration.
    samples: BTreeMap<String, Vec<f64>>,
    /// The spans of every traced iteration, as JSON objects.
    spans: Vec<String>,
}

/// Time a compute workload's set-up, run the seeded check, then run
/// iterations until `--seconds` is spent (the first iteration's time
/// sets how many fit), and take each metric's median.
fn measure(run: &mut Run, args: &Args) -> Result<Measured, String> {
    let mut planned = 1;
    let mut iterations = 0;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut spans = Vec::new();
    let mut push = |name: &str, value: f64| samples.entry(name.into()).or_default().push(value);
    if !args.trace {
        run.setup_moment()
            .into_iter()
            .for_each(|s| push("setup_s", s));
    }
    run.seeded_check().map_err(|e| e.to_string())?;
    while iterations < planned {
        let started = Instant::now();
        let untraced = run.untraced().map_err(|e| e.to_string())?;
        if args.trace {
            if let Some(t) = run.traced().map_err(|e| e.to_string())? {
                spans.extend(span_records(iterations, &t));
                layer_metrics(&t, &untraced)
                    .into_iter()
                    .for_each(|(name, value)| push(&name, value));
            }
        } else {
            push("wall_s", untraced.wall_s);
            push("resume_s", untraced.resume_s);
            untraced
                .setup_s
                .into_iter()
                .flatten()
                .for_each(|s| push("setup_s", s));
        }
        iterations += 1;
        if iterations == 1 {
            let per_iteration = started.elapsed().as_secs_f64();
            planned = ((args.seconds / per_iteration).round() as usize).max(1);
        }
    }
    let mut metrics: BTreeMap<String, f64> = samples
        .iter()
        .filter_map(|(name, values)| Some((name.clone(), median(values)?)))
        .collect();
    if !args.trace {
        metrics.insert("peak_rss_mb".into(), peak_rss_mb().unwrap_or(f64::NAN));
        let quality = run.quality;
        let area = quality.and_then(|q| q.area_reduction_geomean);
        let rows = quality.map_or(0, |q| q.selected_rows);
        metrics.insert("area_reduction_geomean".into(), area.unwrap_or(f64::NAN));
        metrics.insert("selected_rows".into(), rows as f64);
    }
    Ok(Measured {
        iterations,
        metrics,
        samples,
        spans,
    })
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Print the run's facts and metrics, write them to the results
/// directory, and print the result line last.
fn report(run: &Run, args: &Args, measured: &Measured, target: &Path) {
    let (iterations, metrics) = (measured.iterations, &measured.metrics);
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "perfbench {} seed={} seconds={} {mode}: {iterations} iteration(s)",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    let host = host_facts(args);
    println!(
        "host {}",
        host.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let fingerprints = run.reference.clone().unwrap_or_default();
    let fingerprint_list = Dataset::ALL
        .iter()
        .zip(&fingerprints)
        .map(|(d, f)| format!("{}={f:016x}", d.spec().short_name))
        .collect::<Vec<_>>()
        .join(" ");
    println!("fingerprints {fingerprint_list}");

    let mut notes = run.checks.notes.clone();
    let wanted: Vec<(&str, &str, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u)| (n, u, "")).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut result = Vec::new();
    for (name, unit, better) in &wanted {
        // `+ 0.0` turns an empty sum's -0 into 0.
        let value = metrics.get(*name).copied().unwrap_or(f64::NAN) + 0.0;
        if !value.is_finite() {
            notes.push(format!("metric {name} was not measured"));
        }
        let direction = if better.is_empty() {
            String::new()
        } else {
            format!("  ({better} is better)")
        };
        println!("  {name:<26} {value:>22} {unit}{direction}");
        let value = if value.is_finite() { value } else { 0.0 };
        result.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let share = metrics.get("trace.attributed_share").copied();
    if let Some(share) = share.filter(|s| *s < ATTRIBUTED_FLOOR) {
        println!(
            "FLAG {}: named spans cover {:.1}% of the traced wall time (floor {:.0}%)",
            args.workload.name(),
            100.0 * share,
            100.0 * ATTRIBUTED_FLOOR
        );
    }
    let checks = &run.checks;
    println!(
        "failed_share {}/{} = {}",
        checks.failed,
        checks.attempted,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
    for note in &notes {
        eprintln!("check failed: {note}");
    }
    let correct = notes.is_empty() && checks.failed == 0 && checks.attempted > 0;

    let record = record_json(args, measured, &host, &fingerprints, &notes);
    let dir = target.join("perfbench-results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        result.join(", ")
    );
}

/// The settings in effect and the host they ran on.
fn host_facts(args: &Args) -> Vec<(&'static str, String)> {
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let preset = match args.workload.preset() {
        pe_bench::BudgetPreset::Quick => "quick",
        pe_bench::BudgetPreset::Full => "full",
    };
    vec![
        ("cores", cores.to_string()),
        ("avx2", avx2.to_string()),
        ("kernel", pe_mlp::columnar::kernel_mode().name().to_owned()),
        ("threads", THREADS.to_string()),
        ("preset", preset.to_owned()),
        ("master_seed", MASTER_SEED.to_string()),
        ("workload_seed", args.seed.to_string()),
        ("commit", commit()),
    ]
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The record kept for every result: settings, host facts, output
/// fingerprints, failed checks and every metric.
fn record_json(
    args: &Args,
    measured: &Measured,
    host: &[(&str, String)],
    fingerprints: &[u64],
    notes: &[String],
) -> String {
    let quote = |s: &str| serde_json::to_string(s).unwrap_or_default();
    let host = host
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let fingerprints = fingerprints
        .iter()
        .map(|f| format!("\"{f:016x}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let notes = notes
        .iter()
        .map(|n| quote(n))
        .collect::<Vec<_>>()
        .join(", ");
    let number = |v: f64| {
        if v.is_finite() {
            v.to_string()
        } else {
            "null".into()
        }
    };
    let metrics = measured
        .metrics
        .iter()
        .map(|(k, &v)| format!("{}: {}", quote(k), number(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let samples = measured
        .samples
        .iter()
        .map(|(k, vs)| {
            let vs: Vec<String> = vs.iter().map(|&v| number(v)).collect();
            format!("{}: [{}]", quote(k), vs.join(", "))
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"iterations\": {iterations}, \"host\": {{{host}}}, \"fingerprints\": [{fingerprints}], \"failed_checks\": [{notes}], \"metrics\": {{{metrics}}}, \"samples\": {{{samples}}}, \"spans\": [{spans}]}}\n",
        quote(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        iterations = measured.iterations,
        spans = measured.spans.join(",\n  "),
    )
}
