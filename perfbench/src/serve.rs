//! The `serve-tiered` workload: `run_threaded_serve` with two replica
//! threads over a tiered PS store whose working set exceeds its hot tier.

use crate::adapters::{Probe, Probed, SERVE_STEP};
use crate::layers::{LayerRow, Source};
use crate::replay::{KeyStream, Replays, Target};
use crate::spans::{self, Span};
use crate::{cpus, fits_another, nums, Outcome, Tally};
use het_cache::{CacheTable, PolicyKind};
use het_data::{CtrBatch, Key};
use het_json::Json;
use het_models::{EmbeddingModel, EmbeddingStore, WideDeep};
use het_ps::{PsConfig, PsServer, ServerOptimizer, StoreSpec, TieredConfig};
use het_rng::rngs::StdRng;
use het_rng::SeedableRng;
use het_serve::{generate_requests, pretrain, Request, ServeConfig, ServeSim, ThreadedServeReport};
use het_simnet::ClusterSpec;
use het_tensor::HasParams;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Set-ups timed per CPU in a measured run.
const SETUP_ROUNDS: usize = 5;
/// Requests per run.
pub const REQUESTS: usize = 100_000;
/// Hot-tier rows across the PS's four shards.
pub const HOT_ROWS: usize = 8192;
const REPLICAS: usize = 2;
const MAX_BATCH: usize = 8;
const HIDDEN: [usize; 1] = [32];
/// How far a run's mean score may sit from the `threads:1` run's.
const SCORE_TOLERANCE: f64 = 1e-9;

/// Zipf(1.1) requests over 10⁶ keys, 8 fields, dim 16; two replicas with
/// a 10⁴-entry read-only LightLFU cache at staleness 10, micro-batches of
/// 8; four PS shards on a tiered store with 8192 hot rows and in-memory
/// cold segments.
pub fn config(seed: u64) -> ServeConfig {
    let mut c = ServeConfig::new(seed);
    c.n_replicas = REPLICAS;
    c.dim = 16;
    c.n_fields = 8;
    c.n_keys = 1_000_000;
    c.cache_capacity = 10_000;
    c.staleness = 10;
    c.policy = PolicyKind::light_lfu();
    c.zipf_exponent = 1.1;
    c.n_requests = REQUESTS;
    c.max_batch = MAX_BATCH;
    c.n_shards = 4;
    c.store = StoreSpec::Tiered(TieredConfig::new(HOT_ROWS));
    c.cluster = ClusterSpec::cluster_a(REPLICAS, c.n_shards);
    c
}

fn model(cfg: &ServeConfig, rng: &mut StdRng) -> WideDeep {
    WideDeep::new(rng, cfg.n_fields, cfg.dim, &HIDDEN)
}

struct Run {
    setup_s: f64,
    report: ThreadedServeReport,
    recorded: Vec<Span>,
}

/// One fleet run. Its set-up is the part of the call outside the
/// fleet's own wall time (reported beside the stand-alone [`setup`]
/// timings as a cross-check).
fn run_once(seed: u64, threads: usize, probe: Probe) -> Result<Run, String> {
    let cfg = config(seed);
    let next = AtomicUsize::new(0);
    let model_fn = |rng: &mut StdRng| {
        Probed::new(
            model(&cfg, rng),
            next.fetch_add(1, Ordering::Relaxed),
            probe,
        )
    };
    spans::drain();
    let t = Instant::now();
    let report = het_serve::run_threaded_serve(cfg.clone(), threads, model_fn)?;
    let call_s = t.elapsed().as_secs_f64();
    Ok(Run {
        setup_s: call_s - report.wall_ns as f64 / 1e9,
        report,
        recorded: spans::drain(),
    })
}

fn own_check(run: &Run) -> Result<(), String> {
    let r = &run.report;
    let batches = REQUESTS.div_ceil(MAX_BATCH) as u64;
    if r.requests != REQUESTS as u64 || r.batches != batches {
        return Err(format!(
            "served {} requests in {} batches, expected {REQUESTS} in {batches}",
            r.requests, r.batches
        ));
    }
    if !r.score_mean.is_finite() {
        return Err("score mean is not finite".to_string());
    }
    Ok(())
}

fn same_scores(run: &Run, oracle: &Run) -> Result<(), String> {
    let gap = (run.report.score_mean - oracle.report.score_mean).abs();
    if gap <= SCORE_TOLERANCE {
        Ok(())
    } else {
        Err(format!(
            "score mean differs from the threads:1 run by {gap:e}"
        ))
    }
}

/// The fleet's set-up as `run_threaded_serve` performs it before the
/// fleet starts: PS construction, pretraining, and the request schedule.
fn setup(cfg: &ServeConfig) -> (PsServer, Vec<Request>) {
    let server = PsServer::with_store(
        PsConfig {
            dim: cfg.dim,
            n_shards: cfg.n_shards,
            lr: cfg.lr,
            seed: cfg.seed,
            optimizer: ServerOptimizer::Sgd,
            grad_clip: None,
        },
        0,
        &cfg.store,
    );
    pretrain(cfg, &server, cfg.pretrain_updates);
    (server, generate_requests(cfg))
}

pub fn measure(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let cfg = config(seed);
    let (setup_s, setup_per_cpu) = cpus::setup_seconds(SETUP_ROUNDS, || setup(&cfg));
    let mut runs: Vec<Run> = Vec::new();
    let clock = Instant::now();
    while runs.is_empty() || fits_another(clock, runs.len(), seconds) {
        runs.push(run_once(seed, REPLICAS, Probe::StepClock)?);
    }
    let oracle = run_once(seed, 1, Probe::StepClock)?;
    let mut tally = Tally::new(REQUESTS as u64);
    for (i, run) in runs.iter().enumerate() {
        tally.add(
            &format!("run {i}"),
            own_check(run).and_then(|()| same_scores(run, &oracle)),
        );
    }
    tally.add("threads:1 oracle run", own_check(&oracle));

    let rps: Vec<f64> = runs.iter().map(|r| r.report.throughput_rps).collect();
    let run_setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let steps_us: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| {
            spans::step_gaps(&r.recorded, SERVE_STEP)
                .into_iter()
                .map(|ns| ns as f64 / 1e3)
                .collect()
        })
        .collect();
    let p50s: Vec<f64> = steps_us.iter().map(|s| spans::quantile(s, 0.50)).collect();
    let p90s: Vec<f64> = steps_us.iter().map(|s| spans::quantile(s, 0.90)).collect();
    let p99s: Vec<f64> = steps_us.iter().map(|s| spans::quantile(s, 0.99)).collect();
    let report_us = |f: fn(&ThreadedServeReport) -> u64| {
        nums(
            &runs
                .iter()
                .map(|r| f(&r.report) as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let first = &runs[0].report;
    let detail = vec![
        ("backend".to_string(), Json::Str("threads:2".to_string())),
        ("runs".to_string(), Json::UInt(runs.len() as u64)),
        ("requests_per_run".to_string(), Json::UInt(REQUESTS as u64)),
        ("rps_runs".to_string(), nums(&rps)),
        ("setup_s_per_cpu".to_string(), nums(&setup_per_cpu)),
        ("run_setup_s".to_string(), nums(&run_setups)),
        (
            "step_samples_per_run".to_string(),
            Json::UInt(steps_us[0].len() as u64),
        ),
        ("step_p50_us_runs".to_string(), nums(&p50s)),
        ("step_p90_us_runs".to_string(), nums(&p90s)),
        ("step_p99_us_runs".to_string(), nums(&p99s)),
        ("step_p99_us".to_string(), Json::Num(spans::median(&p99s))),
        (
            "report_p50_us_runs".to_string(),
            report_us(|r| r.latency_p50_ns),
        ),
        (
            "report_p99_us_runs".to_string(),
            report_us(|r| r.latency_p99_ns),
        ),
        ("score_mean".to_string(), Json::Num(first.score_mean)),
        (
            "oracle_score_mean".to_string(),
            Json::Num(oracle.report.score_mean),
        ),
        (
            "cache_hit_rate".to_string(),
            Json::Num(first.cache.hit_rate()),
        ),
    ];
    Ok(tally.finish(
        vec![
            ("examples_per_s", spans::median(&rps), "1/s"),
            ("step_p50_us", spans::median(&p50s), "us"),
            ("step_p90_us", spans::median(&p90s), "us"),
            ("setup_s", setup_s, "s"),
        ],
        detail,
        Vec::new(),
    ))
}

pub fn traced(seed: u64) -> Result<(Outcome, Vec<LayerRow>), String> {
    let mut tally = Tally::new(REQUESTS as u64);
    let plain = run_once(seed, REPLICAS, Probe::StepClock)?;
    tally.add("untraced run", own_check(&plain));
    let traced = run_once(seed, REPLICAS, Probe::Spans)?;
    tally.add(
        "span-traced run",
        own_check(&traced).and_then(|()| same_scores(&traced, &plain)),
    );

    // het-trace does not trace threaded serving; its overhead is taken
    // on this workload's discrete-event twin (`ServeSim`, same config).
    let cfg = config(seed);
    let sim = |on: bool| {
        let t = Instant::now();
        if on {
            het_trace::start(vec![("seed".to_string(), Json::UInt(seed))]);
        }
        let report = ServeSim::new(cfg.clone(), |rng: &mut StdRng| model(&cfg, rng)).run();
        if on {
            black_box(het_trace::finish());
        }
        (t.elapsed().as_secs_f64(), report.score_mean)
    };
    let (sim_off_s, sim_score) = sim(false);
    let (sim_on_s, sim_traced_score) = sim(true);
    let twin = if sim_score.to_bits() == sim_traced_score.to_bits() {
        Ok(())
    } else {
        Err("ServeSim outputs differ with het-trace on".to_string())
    };
    tally.add("ServeSim twin", twin);

    let t = Instant::now();
    let requests = generate_requests(&cfg);
    let generate_s = t.elapsed().as_secs_f64();
    let stream = key_stream(&cfg, &requests);
    let replays = Replays::run(&Target::serve(seed), &stream, seed);
    let (fwd_bwd_ms, dense_us) = model_replay(&cfg, &requests);

    let evals: Vec<f64> = traced
        .recorded
        .iter()
        .filter(|s| s.name == "models.evaluate")
        .map(|s| s.dur_ns() as f64)
        .collect();
    let busy_ns: f64 = evals.iter().sum();
    let wall_ns = traced.report.wall_ns as f64;
    let batches = traced.report.batches as f64;
    let threads = REPLICAS as f64;
    let mut rows = vec![
        LayerRow::new("data.batch_us", generate_s * 1e6 / batches, Source::Replay),
        LayerRow::new(
            "models.fwd_bwd_ms.p50",
            spans::quantile(&fwd_bwd_ms, 0.5),
            Source::Replay,
        ),
        LayerRow::new(
            "models.fwd_bwd_ms.p99",
            spans::quantile(&fwd_bwd_ms, 0.99),
            Source::Replay,
        ),
        LayerRow::new("models.eval_us", spans::mean(&evals) / 1e3, Source::Spans),
        LayerRow::new("models.dense_us", dense_us, Source::Replay),
        LayerRow::new(
            "models.busy_share",
            busy_ns / (threads * wall_ns),
            Source::Spans,
        ),
        LayerRow::new(
            "cache.hit_rate",
            traced.report.cache.hit_rate(),
            Source::Report,
        ),
        LayerRow::new(
            "runtime.unattributed_us_per_batch",
            (threads * wall_ns - busy_ns) / batches / 1e3,
            Source::Spans,
        ),
        LayerRow::new(
            "simnet.embedding_mb_per_batch",
            replays.embedding_mb_per_batch,
            Source::Replay,
        ),
        LayerRow::new(
            "simnet.comm_fraction",
            replays.comm_fraction,
            Source::Replay,
        ),
        LayerRow::new(
            "trace.overhead_share",
            sim_on_s / sim_off_s - 1.0,
            Source::Runs,
        ),
    ];
    rows.extend(replays.rows());

    let untraced_wall_s = plain.report.wall_ns as f64 / 1e9;
    let detail = vec![
        ("backend".to_string(), Json::Str("threads:2".to_string())),
        ("untraced_wall_s".to_string(), Json::Num(untraced_wall_s)),
        ("span_traced_wall_s".to_string(), Json::Num(wall_ns / 1e9)),
        (
            "adapter_overhead_share".to_string(),
            Json::Num(wall_ns / 1e9 / untraced_wall_s - 1.0),
        ),
        ("servesim_wall_s".to_string(), Json::Num(sim_off_s)),
        ("servesim_het_trace_wall_s".to_string(), Json::Num(sim_on_s)),
        ("score_mean".to_string(), Json::Num(plain.report.score_mean)),
        ("kernels".to_string(), replays.kernels_json()),
    ];
    Ok((tally.finish(Vec::new(), detail, traced.recorded), rows))
}

fn micro_batches(requests: &[Request]) -> impl Iterator<Item = &[Request]> {
    requests.chunks(MAX_BATCH)
}

fn key_stream(cfg: &ServeConfig, requests: &[Request]) -> KeyStream {
    let batches = micro_batches(requests)
        .map(|reqs| {
            let mut keys: Vec<Key> = reqs.iter().flat_map(|r| r.keys.iter().copied()).collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        })
        .collect();
    let m = model(cfg, &mut StdRng::seed_from_u64(cfg.seed));
    KeyStream {
        batches,
        flops_per_batch: m.flops_per_batch(MAX_BATCH),
    }
}

/// The store replay's training history: this many epochs over the keys
/// of the first [`HISTORY_REQUESTS`] requests. Later epochs rewrite rows
/// the earlier ones demoted, which is the garbage compaction reclaims.
pub const HISTORY_REQUESTS: usize = 25_000;
pub const HISTORY_EPOCHS: usize = 3;

/// The row-store replay's two streams for `seed`: the training history
/// ([`HISTORY_EPOCHS`] passes over the keys of the first
/// [`HISTORY_REQUESTS`] requests, in order) and
/// serve-tiered's PS pull stream — the cache misses of its replicas,
/// each behind its own read-only cache, taking micro-batches in turn.
/// With no writes every resident entry stays valid, so a miss is
/// exactly a pull.
pub fn store_streams(seed: u64) -> (Vec<Key>, Vec<Key>) {
    let cfg = config(seed);
    let requests = generate_requests(&cfg);
    let epoch: Vec<Key> = requests[..HISTORY_REQUESTS]
        .iter()
        .flat_map(|r| r.keys.iter().copied())
        .collect();
    let history = epoch.repeat(HISTORY_EPOCHS);
    let stream = key_stream(&cfg, &requests);
    let mut caches: Vec<CacheTable> = (0..cfg.n_replicas)
        .map(|_| {
            let mut t = CacheTable::new(cfg.cache_capacity, cfg.policy, cfg.lr);
            t.set_read_only(true);
            t
        })
        .collect();
    let mut pulls = Vec::new();
    for (i, keys) in stream.batches.iter().enumerate() {
        let cache = &mut caches[i % cfg.n_replicas];
        for &k in keys {
            if cache.get(k).is_none() {
                pulls.push(k);
                let _clean = cache.install(k, vec![0.0; cfg.dim], 0);
            }
        }
        cache.evict_overflow();
    }
    (history, pulls)
}

/// The serving model's training-side calls, which serve-tiered never
/// makes: `forward_backward` per micro-batch (ms) and one
/// `visit_params` pass (µs), over the first 2000 micro-batches.
fn model_replay(cfg: &ServeConfig, requests: &[Request]) -> (Vec<f64>, f64) {
    let mut m = model(cfg, &mut StdRng::seed_from_u64(cfg.seed));
    let mut fwd_bwd_ms = Vec::new();
    let mut dense_ns = 0u128;
    for reqs in micro_batches(requests).take(2000) {
        let batch = CtrBatch {
            keys: reqs.iter().flat_map(|r| r.keys.iter().copied()).collect(),
            labels: vec![0.0; reqs.len()],
            n_fields: cfg.n_fields,
        };
        let mut store = EmbeddingStore::new(cfg.dim);
        for &k in &batch.keys {
            if !store.contains(k) {
                store.insert(k, vec![0.01; cfg.dim]);
            }
        }
        let t = Instant::now();
        black_box(m.forward_backward(&batch, &store));
        fwd_bwd_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        m.zero_grads();
        dense_ns += t.elapsed().as_nanos();
    }
    let dense_us = dense_ns as f64 / 1e3 / fwd_bwd_ms.len() as f64;
    (fwd_bwd_ms, dense_us)
}
