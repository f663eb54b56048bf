//! `nfbench` — the repository benchmark.
//!
//! ```text
//! nfbench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! nfbench compare A.jsonl B.jsonl
//! ```
//!
//! A run measures one workload for about `S` seconds, checks its
//! outputs, appends a record (environment, seed, every metric) to the
//! results file (`.bench_out/results.jsonl` unless `--out` names
//! another), prints a report on stderr, and prints as its last stdout
//! line the JSON object `{"correct", "attempted", "failed", "metrics"}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! the traced run (`--trace 1`). `compare` sets two results files side
//! by side. See `README.md` beside this crate.

mod catalog;
mod env;
mod gitrev;
mod relay;
mod replay;
mod results;
mod service;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use results::Record;

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }
}

/// Where runs write: the results file, spans, and service stores.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: nfbench --workload <{}> --seed N --seconds S --trace 0|1 [--out FILE]\n       \
         nfbench compare A.jsonl B.jsonl",
        catalog::WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = Path::new(OUT_DIR).join("results.jsonl");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad seconds `{value}`"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                });
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let scratch = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let outcome = match (args.workload.as_str(), args.trace) {
        ("fig8-sweep", false) => sweep::run(sweep::Kind::Fig8, args.seconds),
        ("fig8-sweep", true) => sweep::run_traced(sweep::Kind::Fig8),
        ("layer-vdd", false) => sweep::run(sweep::Kind::LayerVdd, args.seconds),
        ("layer-vdd", true) => sweep::run_traced(sweep::Kind::LayerVdd),
        (_, false) => service::run(args.seed, args.seconds, &scratch),
        (_, true) => service::run_traced(args.seed, args.seconds, &scratch),
    };
    // The service's threads may still hold the store open; unlinking is
    // fine, and nothing reads it after this point.
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

/// Builds the run's record: the gated metrics (zero-filled per-layer
/// metrics a workload never reaches), then the extras.
fn record(args: &Args, mut outcome: Outcome) -> (Record, Vec<String>) {
    let gated = if args.trace {
        catalog::PER_LAYER
    } else {
        outcome.set("peak_rss_mb", env::peak_rss_mb());
        outcome.set(
            "error_rate",
            replay::per(outcome.failed as f64, outcome.attempted as f64),
        );
        catalog::END_TO_END
    };
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut metrics = Vec::new();
    for m in gated {
        let value = outcome.metrics.get(m.name).copied();
        if !args.trace && !value.is_some_and(|v| v > 0.0) {
            outcome
                .notes
                .push(format!("FAILED: {} was not measured", m.name));
            correct = false;
        }
        // `+ 0.0` prints an empty sum's -0 as 0.
        metrics.push((
            m.name.to_string(),
            value.unwrap_or(0.0) + 0.0,
            m.unit.to_string(),
        ));
    }
    for m in catalog::EXTRA {
        if let Some(v) = outcome.metrics.get(m.name) {
            metrics.push((m.name.to_string(), *v, m.unit.to_string()));
        }
    }
    let record = Record {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        env: env::capture(args.seed),
        correct,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics,
    };
    (record, outcome.notes)
}

fn report(record: &Record, notes: &[String]) {
    let mut err = std::io::stderr().lock();
    let _ = writeln!(
        err,
        "nfbench {} (seed {}, trace {})",
        record.workload,
        record.seed,
        u8::from(record.trace)
    );
    for (k, v) in &record.env {
        let _ = writeln!(err, "  env {k}: {v}");
    }
    for note in notes.iter().take(20) {
        let _ = writeln!(err, "  {note}");
    }
    for (name, value, unit) in &record.metrics {
        let _ = writeln!(err, "  {name:<28} {value:>16.6} {unit}");
    }
    let _ = writeln!(
        err,
        "  correct {} ({} of {} operations failed)",
        record.correct, record.failed, record.attempted
    );
}

fn append(path: &Path, line: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| e.to_string())?;
    writeln!(file, "{line}").map_err(|e| e.to_string())
}

fn compare_main(a: &str, b: &str) -> Result<(), String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|text| results::parse_file(&text).map_err(|e| format!("{p}: {e}")))
    };
    print!("{}", results::compare(&load(a)?, &load(b)?));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        return match compare_main(a, b) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("nfbench compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let ticks = env::cpu_ticks();
    let mut outcome = match run_workload(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("nfbench {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(steal) = env::steal_fraction(ticks, env::cpu_ticks()) {
        outcome.set("host_steal_fraction", steal);
    }
    let spans = trace::to_jsonl(&outcome.spans);
    let (record, notes) = record(&args, outcome);
    report(&record, &notes);
    let mut written = append(&args.out, &record.to_json().to_line());
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        written = written.and(std::fs::write(&path, spans).map_err(|e| e.to_string()));
    }
    if let Err(e) = written {
        eprintln!("nfbench: writing results: {e}");
        return ExitCode::FAILURE;
    }
    let names: Vec<&str> = if args.trace {
        catalog::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        catalog::END_TO_END.iter().map(|m| m.name).collect()
    };
    println!("{}", record.result_line(&names));
    ExitCode::SUCCESS
}
