//! The HET benchmark: runs one workload through the program's public
//! entry points and prints its metrics.
//!
//! ```text
//! het-perfbench --workload <train-sim|train-threads|serve-tiered>
//!               --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! With `--trace 0` the workload is repeated for `--seconds` and the
//! end-to-end metrics are reported; with `--trace 1` it runs once more
//! with the benchmark's adapters recording spans, and standalone replays
//! of its inputs give the per-layer metrics (`--spans` writes the traced
//! run's spans to a file as JSON lines). Every run's outputs are
//! checked. The last stdout line is the result object; the line before
//! it holds the details (every run's numbers, checks, the per-layer
//! table with what each metric should move).

mod adapters;
mod cpus;
mod layers;
mod replay;
mod serve;
mod spans;
mod train;

use het_json::Json;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainSim,
    TrainThreads,
    ServeTiered,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("train-sim", Workload::TrainSim),
    ("train-threads", Workload::TrainThreads),
    ("serve-tiered", Workload::ServeTiered),
];

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        WORKLOADS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, w)| w)
            .ok_or(format!(
                "unknown workload '{name}' (train-sim, train-threads, serve-tiered)"
            ))
    }

    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|&&(_, w)| w == self)
            .map(|&(n, _)| n)
            .expect("every workload is listed")
    }
}

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a workload run reports.
pub struct Outcome {
    pub correct: bool,
    /// Operations attempted: training batches or serving requests.
    pub attempted: u64,
    /// Operations of runs whose checks failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub detail: Vec<(String, Json)>,
    /// The traced run's spans (empty for a measured run).
    pub spans: Vec<spans::Span>,
}

/// Counts the operations of a workload's runs (training batches or
/// serving requests) and fails every operation of a run whose checks
/// failed.
pub struct Tally {
    ops_per_run: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    pub fn new(ops_per_run: u64) -> Tally {
        Tally {
            ops_per_run,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Records one run and the result of its checks.
    pub fn add(&mut self, run: &str, checks: Result<(), String>) {
        self.attempted += self.ops_per_run;
        if let Err(e) = checks {
            self.failed += self.ops_per_run;
            self.errors.push(format!("{run}: {e}"));
        }
    }

    pub fn finish(
        self,
        metrics: Vec<Metric>,
        mut detail: Vec<(String, Json)>,
        spans: Vec<spans::Span>,
    ) -> Outcome {
        let errors = self.errors.into_iter().map(Json::Str).collect();
        detail.push(("errors".to_string(), Json::Arr(errors)));
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            detail,
            spans,
        }
    }
}

/// True when another run of the mean length so far still ends within
/// `seconds` of `clock`.
pub fn fits_another(clock: Instant, runs: usize, seconds: f64) -> bool {
    let elapsed = clock.elapsed().as_secs_f64();
    elapsed + elapsed / runs as f64 <= seconds
}

pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where the traced run writes its spans (JSON lines), if anywhere.
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            "--spans" => spans_out = Some(value.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans_out,
    })
}

/// Writes spans as JSON lines: name, start and end (ns since the
/// process epoch), thread, batch id.
fn write_spans(path: &str, recorded: &[spans::Span]) -> Result<(), String> {
    use std::io::Write;
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    for s in recorded {
        let line = Json::Obj(vec![
            ("name".to_string(), Json::Str(s.name.to_string())),
            ("start_ns".to_string(), Json::UInt(s.start_ns)),
            ("end_ns".to_string(), Json::UInt(s.end_ns)),
            ("thread".to_string(), Json::UInt(u64::from(s.thread))),
            ("batch".to_string(), Json::UInt(s.batch)),
        ]);
        writeln!(out, "{}", line.encode()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    out.flush().map_err(|e| format!("cannot write {path}: {e}"))
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<(Outcome, Json), String> {
    if !args.trace {
        let mut outcome = match args.workload {
            Workload::ServeTiered => serve::measure(args.seed, args.seconds)?,
            w => train::measure(w, args.seed, args.seconds)?,
        };
        outcome.metrics.push(("peak_rss_mb", peak_rss_mb()?, "MB"));
        return Ok((outcome, Json::Null));
    }
    let (mut outcome, rows) = match args.workload {
        Workload::ServeTiered => serve::traced(args.seed)?,
        w => train::traced(w, args.seed)?,
    };
    let (metrics, table) = layers::assemble(&rows)?;
    outcome.metrics = metrics;
    if let Some(path) = &args.spans_out {
        write_spans(path, &outcome.spans)?;
        let written = Json::Str(path.clone());
        outcome.detail.push(("spans_file".to_string(), written));
    }
    Ok((outcome, table))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("het-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (outcome, layer_table) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("het-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut detail = vec![
        (
            "workload".to_string(),
            Json::Str(args.workload.name().to_string()),
        ),
        ("seed".to_string(), Json::UInt(args.seed)),
        ("trace".to_string(), Json::Bool(args.trace)),
    ];
    detail.extend(outcome.detail);
    if args.trace {
        detail.push(("layers".to_string(), layer_table));
    }
    println!("{}", Json::Obj(detail).encode());
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(outcome.correct)),
        ("attempted".to_string(), Json::UInt(outcome.attempted)),
        ("failed".to_string(), Json::UInt(outcome.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{}", result.encode());
}
