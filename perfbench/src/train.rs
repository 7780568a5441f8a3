//! The `train-sim` and `train-threads` workloads: the Fig. 2 Wide&Deep
//! recipe run through `Trainer::run` and `Trainer::run_threaded`.

use crate::adapters::{Probe, Probed, TracedData, TRAIN_STEP};
use crate::layers::{LayerRow, Source};
use crate::replay::{self, KeyStream, Replays};
use crate::spans::{self, Span};
use crate::{cpus, fits_another, nums, Outcome, Tally, Workload};
use het_cache::PolicyKind;
use het_core::config::{SystemPreset, TrainerConfig};
use het_core::{TrainReport, Trainer};
use het_data::{CtrBatch, CtrConfig, CtrDataset};
use het_json::Json;
use het_models::{Dataset, EmbeddingModel, WideDeep};
use het_simnet::ClusterSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Set-ups timed per CPU in a measured run.
const SETUP_ROUNDS: usize = 20;
/// Training batches per run, summed over both workers (300 BSP rounds).
pub const BATCHES: u64 = 600;
const WORKERS: usize = 2;
const BATCH_SIZE: usize = 128;
const DIM: usize = 32;
const FIELDS: usize = 26;
/// Total embedding keys of the bench-scale Criteo-like stream.
const KEY_BUDGET: usize = FIELDS * 2_000;
/// Test AUC every run must exceed. Runs on this recipe end at 0.71–0.75
/// depending on the seed; a run below the floor did not learn.
pub const AUC_FLOOR: f64 = 0.66;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Sim,
    Threads,
}

impl Backend {
    fn other(self) -> Backend {
        match self {
            Backend::Sim => Backend::Threads,
            Backend::Threads => Backend::Sim,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Threads => "threads:2",
        }
    }

    fn os_threads(self) -> usize {
        match self {
            Backend::Sim => 1,
            Backend::Threads => WORKERS,
        }
    }
}

/// HET Cache s=100, BSP, LightLFU over 10% of keys, dim 32, 2 workers,
/// 1 PS server on 1 GbE (cluster A), memory store, no prefetch, one
/// evaluation at the end.
pub fn config(seed: u64) -> TrainerConfig {
    let mut c = TrainerConfig::cluster_a(SystemPreset::HetCache { staleness: 100 })
        .with_cache(0.10, PolicyKind::light_lfu());
    c.cluster = ClusterSpec::cluster_a(WORKERS, 1);
    c.batch_size = BATCH_SIZE;
    c.dim = DIM;
    c.lr = 0.05;
    c.max_iterations = BATCHES;
    c.eval_every = BATCHES;
    c.eval_batches = 8;
    c.lookahead_depth = 0;
    c.seed = seed;
    c
}

pub fn dataset(seed: u64) -> CtrDataset {
    let mut cfg = CtrConfig::criteo_like(seed);
    cfg.vocab_sizes = Some(het_data::ctr::scaled_criteo_vocabs(KEY_BUDGET));
    cfg.n_train = 50_000;
    cfg.n_test = 4_000;
    CtrDataset::new(cfg)
}

/// What one training run leaves behind.
struct Run {
    wall_s: f64,
    auc: f64,
    dense: Vec<f32>,
    iterations: u64,
    /// Spans and step marks recorded during the run.
    recorded: Vec<Span>,
    cache_hit_rate: f64,
    /// The sim report (sim backend only).
    sim: Option<TrainReport>,
}

impl Run {
    fn same_outputs(&self, other: &Run) -> bool {
        self.auc.to_bits() == other.auc.to_bits()
            && self.dense.len() == other.dense.len()
            && self
                .dense
                .iter()
                .zip(&other.dense)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// How a run is observed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Observe {
    /// Step clock only: the measured configuration.
    Plain,
    /// Benchmark adapters record a span around every layer call.
    Spans,
    /// The program's own `het-trace` collector is on.
    HetTrace,
}

fn run_once(seed: u64, backend: Backend, observe: Observe) -> Result<Run, String> {
    if observe == Observe::Spans {
        run_with(seed, backend, observe, |s| TracedData(dataset(s)))
    } else {
        run_with(seed, backend, observe, dataset)
    }
}

fn run_with<D: Dataset<Batch = CtrBatch>>(
    seed: u64,
    backend: Backend,
    observe: Observe,
    make_data: impl Fn(u64) -> D,
) -> Result<Run, String> {
    let probe = if observe == Observe::Spans {
        Probe::Spans
    } else {
        Probe::StepClock
    };
    spans::drain();
    let mut trainer = build(seed, make_data(seed), probe);

    let het_trace = observe == Observe::HetTrace;
    let t1 = Instant::now();
    let run = match backend {
        Backend::Sim => {
            if het_trace {
                het_trace::start(vec![("seed".to_string(), Json::UInt(seed))]);
            }
            let report = trainer.run();
            let wall_s = t1.elapsed().as_secs_f64();
            if het_trace {
                let log = het_trace::finish();
                std::hint::black_box(log);
            }
            Run {
                wall_s,
                auc: report.final_metric,
                dense: trainer.export_dense_params(),
                iterations: report.total_iterations,
                recorded: Vec::new(),
                cache_hit_rate: report.cache.hit_rate(),
                sim: Some(report),
            }
        }
        Backend::Threads => {
            let meta = het_trace.then(|| vec![("seed".to_string(), Json::UInt(seed))]);
            let report = trainer.run_threaded(meta)?;
            let wall_s = t1.elapsed().as_secs_f64();
            std::hint::black_box(&report.trace);
            Run {
                wall_s,
                auc: report.final_metric,
                dense: report.final_dense,
                iterations: report.total_iterations,
                recorded: Vec::new(),
                cache_hit_rate: report.cache.hit_rate(),
                sim: None,
            }
        }
    };
    Ok(Run {
        recorded: spans::drain(),
        ..run
    })
}

/// Set-up: model and PS initialisation (the dataset is built by the
/// caller, inside the timed set-up).
fn build<D: Dataset<Batch = CtrBatch>>(
    seed: u64,
    data: D,
    probe: Probe,
) -> Trainer<Probed<WideDeep>, D> {
    let next_worker = AtomicUsize::new(0);
    Trainer::new(config(seed), data, |rng| {
        let worker = next_worker.fetch_add(1, Ordering::Relaxed);
        Probed::new(WideDeep::new(rng, FIELDS, DIM, &[64, 32]), worker, probe)
    })
}

/// The checks every run must pass on its own.
fn own_check(run: &Run) -> Result<(), String> {
    if run.iterations != BATCHES {
        return Err(format!(
            "ran {} batches, expected {BATCHES}",
            run.iterations
        ));
    }
    if run.auc.is_nan() || run.auc <= AUC_FLOOR {
        return Err(format!(
            "test AUC {} is not above the floor {AUC_FLOOR}",
            run.auc
        ));
    }
    Ok(())
}

fn backend_of(workload: Workload) -> Backend {
    match workload {
        Workload::TrainSim => Backend::Sim,
        _ => Backend::Threads,
    }
}

/// The measured run: repeats the recipe for `seconds`, then checks the
/// results against one run of the other backend.
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let backend = backend_of(workload);
    let (setup_s, setup_per_cpu) = cpus::setup_seconds(SETUP_ROUNDS, || {
        build(seed, dataset(seed), Probe::StepClock)
    });
    // The one-thread backend takes turns on the CPUs; the threaded one
    // is not pinned (its workers would inherit the pin).
    let turns = match backend {
        Backend::Sim => cpus::turns(),
        Backend::Threads => vec![None],
    };
    let mut runs: Vec<Run> = Vec::new();
    let clock = Instant::now();
    while runs.len() < turns.len() || fits_another(clock, runs.len(), seconds) {
        let cpu = turns[runs.len() % turns.len()];
        runs.push(cpus::pinned(cpu, || {
            run_once(seed, backend, Observe::Plain)
        })?);
    }
    let oracle = run_once(seed, backend.other(), Observe::Plain)?;

    let mut tally = Tally::new(BATCHES);
    for (i, run) in runs.iter().enumerate() {
        let check = own_check(run).and_then(|()| {
            if run.same_outputs(&oracle) {
                Ok(())
            } else {
                Err(format!(
                    "dense params or AUC differ from the {} run of the same seed",
                    backend.other().label()
                ))
            }
        });
        tally.add(&format!("run {i}"), check);
    }
    tally.add(
        &format!("{} oracle run", backend.other().label()),
        own_check(&oracle),
    );

    let examples_per_s: Vec<f64> = runs
        .iter()
        .map(|r| (r.iterations * BATCH_SIZE as u64) as f64 / r.wall_s)
        .collect();
    let (examples_per_s_balanced, examples_per_s_per_cpu) =
        cpus::balanced(&examples_per_s, turns.len());
    // Step times pooled per CPU; a quantile is averaged over CPUs like
    // the throughput, since pooling two CPUs' speeds would put it
    // between their modes.
    let steps_us: Vec<Vec<f64>> = (0..turns.len())
        .map(|c| {
            runs.iter()
                .skip(c)
                .step_by(turns.len())
                .flat_map(|r| spans::step_gaps(&r.recorded, TRAIN_STEP))
                .map(|ns| ns as f64 / 1e3)
                .collect()
        })
        .collect();
    let step_q = |q: f64| {
        let per_cpu: Vec<f64> = steps_us.iter().map(|s| spans::quantile(s, q)).collect();
        spans::mean(&per_cpu)
    };
    let step_samples: usize = steps_us.iter().map(Vec::len).sum();
    let sim_epoch_s = runs[0]
        .sim
        .as_ref()
        .or(oracle.sim.as_ref())
        .map(TrainReport::epoch_time)
        .unwrap_or(f64::NAN);

    let detail = vec![
        (
            "backend".to_string(),
            Json::Str(backend.label().to_string()),
        ),
        ("runs".to_string(), Json::UInt(runs.len() as u64)),
        ("batches_per_run".to_string(), Json::UInt(BATCHES)),
        (
            "examples_per_batch".to_string(),
            Json::UInt(BATCH_SIZE as u64),
        ),
        ("examples_per_s_runs".to_string(), nums(&examples_per_s)),
        (
            "examples_per_s_per_cpu".to_string(),
            nums(&examples_per_s_per_cpu),
        ),
        ("setup_s_per_cpu".to_string(), nums(&setup_per_cpu)),
        ("step_samples".to_string(), Json::UInt(step_samples as u64)),
        ("step_p99_us".to_string(), Json::Num(step_q(0.99))),
        ("train_auc".to_string(), Json::Num(runs[0].auc)),
        ("train_auc_floor".to_string(), Json::Num(AUC_FLOOR)),
        ("sim_epoch_s".to_string(), Json::Num(sim_epoch_s)),
        (
            "cache_hit_rate".to_string(),
            Json::Num(runs[0].cache_hit_rate),
        ),
    ];
    Ok(tally.finish(
        vec![
            ("examples_per_s", examples_per_s_balanced, "1/s"),
            ("step_p50_us", step_q(0.50), "us"),
            ("step_p90_us", step_q(0.90), "us"),
            ("setup_s", setup_s, "s"),
        ],
        detail,
        Vec::new(),
    ))
}

/// The traced run: an untraced reference, an adapter-traced run whose
/// outputs must equal it, a run with the program's `het-trace` on, and
/// the standalone layer replays over this workload's key stream.
pub fn traced(workload: Workload, seed: u64) -> Result<(Outcome, Vec<LayerRow>), String> {
    let backend = backend_of(workload);
    let mut tally = Tally::new(BATCHES);
    let plain = run_once(seed, backend, Observe::Plain)?;
    tally.add("untraced run", own_check(&plain));

    let traced = run_once(seed, backend, Observe::Spans)?;
    let recorded = &traced.recorded;
    let equal = if traced.same_outputs(&plain) {
        Ok(())
    } else {
        Err("adapter-traced outputs differ from the untraced run".to_string())
    };
    tally.add("span-traced run", own_check(&traced).and(equal));

    let het_traced = run_once(seed, backend, Observe::HetTrace)?;
    let equal = if het_traced.same_outputs(&plain) {
        Ok(())
    } else {
        Err("het-trace run outputs differ from the untraced run".to_string())
    };
    tally.add("het-trace run", own_check(&het_traced).and(equal));

    // The simulated cluster's numbers (comm fraction, embedding bytes,
    // epoch time) come from a sim run; on train-threads that run is also
    // the cross-backend check.
    let sim_run = match backend {
        Backend::Sim => None,
        Backend::Threads => {
            let sim = run_once(seed, Backend::Sim, Observe::Plain)?;
            let equal = if sim.same_outputs(&plain) {
                Ok(())
            } else {
                Err("dense params or AUC differ from the sim run of the same seed".to_string())
            };
            tally.add("sim oracle run", own_check(&sim).and(equal));
            Some(sim)
        }
    };
    let sim_report = sim_run
        .as_ref()
        .unwrap_or(&plain)
        .sim
        .as_ref()
        .expect("a sim run carries its report");

    let stream = key_stream(seed);
    let replays = Replays::run(&replay::Target::train(seed), &stream, seed);

    let split = SpanSplit::of(recorded);
    let threads = backend.os_threads() as f64;
    let busy_ns = split.data_ns + split.model_ns;
    let wall_ns = traced.wall_s * 1e9;
    let batches = traced.iterations as f64;
    let mut rows = vec![
        LayerRow::new("data.batch_us", split.data_mean_us, Source::Spans),
        LayerRow::new(
            "models.fwd_bwd_ms.p50",
            spans::quantile(&split.fwd_bwd_ms, 0.5),
            Source::Spans,
        ),
        LayerRow::new(
            "models.fwd_bwd_ms.p99",
            spans::quantile(&split.fwd_bwd_ms, 0.99),
            Source::Spans,
        ),
        LayerRow::new("models.eval_us", split.eval_mean_us, Source::Spans),
        LayerRow::new(
            "models.dense_us",
            split.dense_ns / batches / 1e3,
            Source::Spans,
        ),
        LayerRow::new(
            "models.busy_share",
            busy_ns / (threads * wall_ns),
            Source::Spans,
        ),
        LayerRow::new("cache.hit_rate", traced.cache_hit_rate, Source::Report),
        LayerRow::new(
            "runtime.unattributed_us_per_batch",
            (threads * wall_ns - busy_ns) / batches / 1e3,
            Source::Spans,
        ),
        LayerRow::new(
            "simnet.embedding_mb_per_batch",
            sim_report.comm.embedding_bytes() as f64 / 1e6 / sim_report.total_iterations as f64,
            Source::Report,
        ),
        LayerRow::new(
            "simnet.comm_fraction",
            sim_report.breakdown.communication_fraction(),
            Source::Report,
        ),
        LayerRow::new(
            "trace.overhead_share",
            het_traced.wall_s / plain.wall_s - 1.0,
            Source::Runs,
        ),
    ];
    rows.extend(replays.rows());

    let fwd_bwd_share = split.fwd_bwd_ms.iter().sum::<f64>() * 1e6 / (threads * wall_ns);
    // Batch ids join each batch's data span to its forward_backward span;
    // the gap between them is the batch's read phase (cache, PS, and on
    // threads the read turnstile).
    let built: std::collections::HashMap<u64, u64> = recorded
        .iter()
        .filter(|s| s.name == "data.train_batch")
        .map(|s| (s.batch, s.end_ns))
        .collect();
    let read_phase_us: Vec<f64> = recorded
        .iter()
        .filter(|s| s.name == "models.forward_backward")
        .filter_map(|s| {
            built
                .get(&s.batch)
                .map(|&end| s.start_ns.saturating_sub(end) as f64 / 1e3)
        })
        .collect();
    let detail = vec![
        (
            "backend".to_string(),
            Json::Str(backend.label().to_string()),
        ),
        ("untraced_wall_s".to_string(), Json::Num(plain.wall_s)),
        ("span_traced_wall_s".to_string(), Json::Num(traced.wall_s)),
        ("het_trace_wall_s".to_string(), Json::Num(het_traced.wall_s)),
        (
            "adapter_overhead_share".to_string(),
            Json::Num(traced.wall_s / plain.wall_s - 1.0),
        ),
        ("spans".to_string(), Json::UInt(recorded.len() as u64)),
        (
            "fwd_bwd_share_of_thread_time".to_string(),
            Json::Num(fwd_bwd_share),
        ),
        // forward_backward's share of single-thread training wall time in
        // an earlier instrumented profile of this recipe, for comparison.
        ("earlier_profile_compute_share".to_string(), Json::Num(0.85)),
        (
            "read_phase_us_p50".to_string(),
            Json::Num(spans::quantile(&read_phase_us, 0.5)),
        ),
        (
            "read_phase_batches".to_string(),
            Json::UInt(read_phase_us.len() as u64),
        ),
        ("kernels".to_string(), replays.kernels_json()),
        ("train_auc".to_string(), Json::Num(plain.auc)),
        (
            "sim_epoch_s".to_string(),
            Json::Num(sim_report.epoch_time()),
        ),
    ];
    Ok((tally.finish(Vec::new(), detail, traced.recorded), rows))
}

/// Per-batch unique keys in the order the trainer's workers read them.
fn key_stream(seed: u64) -> KeyStream {
    let data = dataset(seed);
    let cfg = config(seed);
    let rounds = BATCHES / WORKERS as u64;
    let mut batches = Vec::with_capacity(BATCHES as usize);
    for round in 0..rounds {
        for worker in 0..WORKERS as u64 {
            // Mirrors `Trainer::data_cursor_of`: workers stride the
            // global example sequence.
            let cursor = (round * WORKERS as u64 + worker) * cfg.batch_size as u64;
            batches.push(data.train_batch(cursor, cfg.batch_size).unique_keys());
        }
    }
    let model = WideDeep::new(
        &mut <het_rng::rngs::StdRng as het_rng::SeedableRng>::seed_from_u64(seed),
        FIELDS,
        DIM,
        &[64, 32],
    );
    KeyStream {
        batches,
        flops_per_batch: model.flops_per_batch(BATCH_SIZE),
    }
}

/// Span durations summed and split by layer.
struct SpanSplit {
    data_ns: f64,
    model_ns: f64,
    dense_ns: f64,
    data_mean_us: f64,
    eval_mean_us: f64,
    fwd_bwd_ms: Vec<f64>,
}

impl SpanSplit {
    fn of(recorded: &[Span]) -> SpanSplit {
        let durs = |name: &str| -> Vec<f64> {
            recorded
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64)
                .collect()
        };
        let data: Vec<f64> = [durs("data.train_batch"), durs("data.test_batch")].concat();
        let fwd_bwd = durs("models.forward_backward");
        let eval = durs("models.evaluate");
        let dense = durs("models.visit_params");
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        SpanSplit {
            data_ns: sum(&data),
            model_ns: sum(&fwd_bwd) + sum(&eval) + sum(&dense),
            dense_ns: sum(&dense),
            data_mean_us: spans::mean(&durs("data.train_batch")) / 1e3,
            eval_mean_us: spans::mean(&eval) / 1e3,
            fwd_bwd_ms: fwd_bwd.iter().map(|ns| ns / 1e6).collect(),
        }
    }
}
