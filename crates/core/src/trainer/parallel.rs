//! The threaded execution backend for the trainer.
//!
//! [`Trainer::run`] schedules every worker on the single-threaded
//! discrete-event runtime; this module runs the *same* training job on
//! real OS threads — one thread per worker — behind the
//! `--backend threads:<n>` seam (`het_runtime::ExecutionBackend`). It is
//! a second scheduler around the same worker step, not a second copy of
//! it: the read and write halves, the dense-PS sync, the BSP tail's
//! sparse merge and dense gradient mean, worker 0's evaluation, the
//! end-of-run flush and the stats merge are the functions in
//! `trainer.rs` that the sim calls. This module owns only what differs
//! between the backends: trace scopes at wall stamps, measured instead
//! of modelled compute time, where spans are emitted, the per-worker
//! loss slots, and the turnstiles, barriers and progress lock. The
//! simulator stays the correctness oracle:
//!
//! * **BSP** rounds are replayed with the sim's exact server-visible
//!   operation order: reads pass through an ordered [`Turnstile`],
//!   compute runs genuinely in parallel, writes pass through a second
//!   turnstile, and the round tail (sparse AllGather merge, dense
//!   gradient averaging, evaluation) runs on the deterministic barrier
//!   leader (the thread that owns worker 0). Because every PS-mutating
//!   step happens in worker order and the gradient average accumulates
//!   in worker order, the final dense parameters and the convergence
//!   curve are **bit-identical** to the sim backend's.
//! * **ASP/SSP** workers free-run against the shared PS (per-shard
//!   locks carry the concurrency); an iteration is claimed under a
//!   progress lock before it runs, and the SSP gate blocks a worker
//!   whose completed-iteration count is more than `staleness` ahead of
//!   the slowest — so a merged trace always satisfies the oracle's
//!   spread bound (`s + 1`, counting the in-flight iteration).
//!
//! Tracing: each worker thread runs its own thread-local collector (the
//! existing sink, unchanged); events are stamped from a shared
//! strictly-increasing [`WallClock`] and merged at join time with
//! [`het_trace::merge_threads`], which orders by `(t, tid)`. Callers
//! that want a trace pass `trace_meta` to [`Trainer::run_threaded`] and
//! must **not** have their own collector running on the calling thread
//! — the run starts one for the post-join flush and merges it in as the
//! last part.
//!
//! Locking order (DESIGN.md §3.13): progress/phase locks → PS shard
//! locks → trace scope. Nothing in this module takes a shard lock while
//! holding another shard's lock, and no PS call is made while holding
//! the progress lock. The round-tail mutex is only ever taken by the
//! barrier leader, so the evaluation it runs under it blocks nobody.
//!
//! Not supported (rejected up front): fault injection and lookahead
//! prefetch, both of which are defined in terms of the simulated clock.
//! Mid-run evaluation is BSP-only; ASP/SSP threaded runs evaluate once
//! at the end (the sim backend remains the tool for async convergence
//! curves).

use super::{apply_gathered, data_cursor, dense_mean, Trainer, Worker};
use crate::config::{SyncMode, TrainerConfig};
use crate::report::ConvergencePoint;
use het_cache::CacheStats;
use het_json::{Json, ToJson};
use het_models::{Dataset, EmbeddingModel, ModelBatch, SparseGrads};
use het_ps::{DenseStore, PsServer};
use het_runtime::{Barrier, Turnstile, WallClock};
use het_simnet::{Collectives, CommStats, SimTime};
use het_tensor::{FlatGrads, FlatParams, Sgd};
use het_trace::TraceLog;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// The result of one threaded training run.
///
/// Times are wall-clock nanoseconds (`curve[i].sim_time` holds the wall
/// stamp of the evaluation), unlike [`crate::report::TrainReport`]'s
/// simulated times — the two are not comparable on the time axis, only
/// on iterations, metrics, and (for BSP) the parameters themselves.
#[derive(Clone, Debug)]
pub struct ParallelReport {
    /// The system's display name.
    pub system: String,
    /// Backend label, `"threads:<n>"`.
    pub backend: String,
    /// Worker-thread count.
    pub n_threads: usize,
    /// Total iterations summed over workers.
    pub total_iterations: u64,
    /// Wall-clock run time in nanoseconds (training only; the final
    /// flush and evaluation are excluded).
    pub wall_ns: u64,
    /// Iterations per wall-clock second.
    pub ops_per_sec: f64,
    /// Metric at the final evaluation (after the end-of-run flush).
    pub final_metric: f64,
    /// Wall stamp at which the target metric was reached, if it was.
    pub converged_at_ns: Option<u64>,
    /// Convergence curve; `sim_time` carries the wall stamp. BSP curves
    /// are metric- and loss-identical to the sim backend's.
    pub curve: Vec<ConvergencePoint>,
    /// Per-category communication bytes/messages (merged over workers).
    pub comm: CommStats,
    /// Cache statistics (zeroed for cache-less systems).
    pub cache: CacheStats,
    /// Worker 0's flat dense parameters at the end of the run — the
    /// cross-backend bit-identity probe (compare against
    /// [`Trainer::export_dense_params`] on a sim run).
    pub final_dense: Vec<f32>,
    /// The merged per-thread trace, when `trace_meta` was passed.
    pub trace: Option<TraceLog>,
}

impl ToJson for ParallelReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("system".to_string(), self.system.to_json()),
            ("backend".to_string(), self.backend.to_json()),
            ("n_threads".to_string(), Json::UInt(self.n_threads as u64)),
            (
                "total_iterations".to_string(),
                Json::UInt(self.total_iterations),
            ),
            ("wall_ns".to_string(), Json::UInt(self.wall_ns)),
            ("ops_per_sec".to_string(), Json::Num(self.ops_per_sec)),
            ("final_metric".to_string(), Json::Num(self.final_metric)),
            (
                "converged_at_ns".to_string(),
                self.converged_at_ns.map(Json::UInt).unwrap_or(Json::Null),
            ),
            ("curve".to_string(), self.curve.to_json()),
            ("comm".to_string(), self.comm.to_json()),
        ])
    }
}

/// Immutable per-run state shared by every worker thread.
struct ThreadCtx<'a, D> {
    config: &'a TrainerConfig,
    dataset: &'a D,
    server: &'a PsServer,
    /// The dense PS; `None` under AllReduce dense sync.
    dense_store: Option<&'a DenseStore>,
    net: Collectives,
    sgd: Sgd,
    clock: &'a WallClock,
    n: usize,
    tracing: bool,
}

impl<D> ThreadCtx<'_, D> {
    /// Scopes this thread's trace to worker `w` at a fresh wall stamp.
    fn scope(&self, w: usize) {
        if self.tracing {
            het_trace::set_scope(self.clock.stamp(), Some(w as u64));
        }
    }
}

/// What a run hands to the post-join tail: iterations run, and (BSP
/// only) the mid-run convergence curve and target stamp.
#[derive(Default)]
struct Progress {
    iterations: u64,
    curve: Vec<ConvergencePoint>,
    converged_at_ns: Option<u64>,
}

/// Everything the BSP threads rendezvous on.
struct BspShared {
    read_ts: Turnstile,
    write_ts: Turnstile,
    /// All reads + computes done; no write may precede a later worker's
    /// read (the sim runs the whole read phase before the write phase).
    computed: Barrier,
    /// All writes done; the leader tail may merge.
    written: Barrier,
    /// Leader tail done; followers may apply the averaged gradient.
    applied: Barrier,
    stop: AtomicBool,
    /// Per-worker exported dense gradients, filled in the write phase.
    dense_slots: Mutex<Vec<Option<FlatGrads>>>,
    /// Per-worker sparse gradient blocks (HET AR only).
    gathered: Mutex<Vec<Option<SparseGrads>>>,
    /// The round's averaged dense gradient, published by the leader.
    avg: Mutex<FlatGrads>,
    /// Per-worker `(loss_sum, loss_count)` slots; summed in worker
    /// order at evaluation so the reported train loss is bit-identical
    /// to the sim's (float addition order matters).
    loss: Mutex<Vec<(f64, u64)>>,
    /// Round accounting, touched only by the barrier leader.
    tail: Mutex<Progress>,
}

/// ASP/SSP progress ledger: completed iterations per worker plus the
/// global claim counter. Claim-before-run: a worker increments `global`
/// under this lock before the iteration executes, so exactly
/// `max_iterations` iterations run in total.
struct AsyncProgress {
    iters: Vec<u64>,
    global: u64,
}

struct AsyncShared {
    progress: Mutex<AsyncProgress>,
    cv: Condvar,
}

impl<M: EmbeddingModel, D: Dataset<Batch = M::Batch>> Trainer<M, D> {
    /// Runs the training job on real threads (one per configured
    /// worker) and returns the [`ParallelReport`]. Pass `trace_meta` to
    /// collect a merged wall-clock trace (see the module docs for the
    /// collector contract).
    ///
    /// Errors if the configuration requires the simulated clock: a
    /// non-empty fault plan or lookahead prefetching.
    pub fn run_threaded(
        &mut self,
        trace_meta: Option<Vec<(String, Json)>>,
    ) -> Result<ParallelReport, String> {
        if !self.plan.is_empty() {
            return Err(
                "the threaded backend does not support fault injection; use --backend sim"
                    .to_string(),
            );
        }
        if self.config.lookahead_depth > 0 {
            return Err(
                "the threaded backend does not support lookahead prefetch; use --backend sim"
                    .to_string(),
            );
        }
        let n = self.workers.len();
        let tracing = trace_meta.is_some();
        let clock = WallClock::new();
        let (logs, progress) = match self.config.system.sync {
            SyncMode::Bsp => {
                let shared = BspShared {
                    read_ts: Turnstile::new(n),
                    write_ts: Turnstile::new(n),
                    computed: Barrier::new(n),
                    written: Barrier::new(n),
                    applied: Barrier::new(n),
                    stop: AtomicBool::new(false),
                    dense_slots: Mutex::new((0..n).map(|_| None).collect()),
                    gathered: Mutex::new((0..n).map(|_| None).collect()),
                    avg: Mutex::new(FlatGrads::new()),
                    loss: Mutex::new(vec![(0.0, 0u64); n]),
                    tail: Mutex::new(Progress::default()),
                };
                let logs = self.spawn_workers(&clock, tracing, |w, worker, ctx| {
                    bsp_worker_loop(w, worker, &shared, ctx)
                });
                let progress = shared.tail.into_inner();
                (logs, progress.expect("workers joined cleanly"))
            }
            SyncMode::Asp | SyncMode::Ssp { .. } => {
                let staleness = match self.config.system.sync {
                    SyncMode::Ssp { staleness } => Some(staleness),
                    _ => None,
                };
                let shared = AsyncShared {
                    progress: Mutex::new(AsyncProgress {
                        iters: vec![0; n],
                        global: 0,
                    }),
                    cv: Condvar::new(),
                };
                let logs = self.spawn_workers(&clock, tracing, |w, worker, ctx| {
                    async_worker_loop(w, worker, &shared, ctx, staleness)
                });
                let progress = shared.progress.into_inner();
                let iterations = progress.expect("workers joined cleanly").global;
                let progress = Progress {
                    iterations,
                    ..Progress::default()
                };
                (logs, progress)
            }
        };
        Ok(self.finish_threaded(&clock, logs, trace_meta, progress))
    }

    /// Worker 0's flat dense parameters, for cross-backend bit-identity
    /// probes against [`ParallelReport::final_dense`].
    pub fn export_dense_params(&mut self) -> Vec<f32> {
        let mut flat = FlatParams::new();
        flat.export_from(&mut self.workers[0].model);
        flat.into_vec()
    }

    /// Runs `body` for every worker on its own scoped OS thread, each
    /// with its own trace collector when `tracing`; returns the
    /// per-thread logs in worker order.
    fn spawn_workers(
        &mut self,
        clock: &WallClock,
        tracing: bool,
        body: impl Fn(usize, &mut Worker<M>, &ThreadCtx<'_, D>) + Sync,
    ) -> Vec<TraceLog> {
        let n = self.workers.len();
        let Trainer {
            config,
            dataset,
            server,
            dense_store,
            workers,
            net,
            sgd,
            ..
        } = self;
        let ctx = ThreadCtx {
            config,
            dataset,
            server,
            dense_store: dense_store.as_ref(),
            net: *net,
            sgd: *sgd,
            clock,
            n,
            tracing,
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .iter_mut()
                .enumerate()
                .map(|(w, worker)| {
                    let (ctx, body) = (&ctx, &body);
                    s.spawn(move || {
                        if tracing {
                            het_trace::start(Vec::new());
                        }
                        body(w, worker, ctx);
                        het_trace::finish()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        })
    }

    /// Post-join tail shared by both modes: flush every cache (wall
    /// stamps, on the main thread's own collector), evaluate, merge the
    /// per-thread traces, and assemble the report.
    fn finish_threaded(
        &mut self,
        clock: &WallClock,
        logs: Vec<TraceLog>,
        trace_meta: Option<Vec<(String, Json)>>,
        progress: Progress,
    ) -> ParallelReport {
        let Progress {
            iterations: total,
            mut curve,
            converged_at_ns,
        } = progress;
        let n = self.workers.len();
        let wall_ns = clock.elapsed_ns();
        if trace_meta.is_some() {
            het_trace::start(Vec::new());
        }
        self.flush_caches(|_| clock.stamp());
        let final_metric = self.evaluate_now();
        let trace = trace_meta.map(|meta| {
            let mut parts = logs;
            parts.push(het_trace::finish());
            het_trace::merge_threads(meta, parts)
        });
        // BSP curves carry their mid-run evaluations; ASP/SSP runs
        // evaluate once, here.
        if !matches!(self.config.system.sync, SyncMode::Bsp) {
            let train_loss = self.take_train_loss();
            curve.push(ConvergencePoint {
                sim_time: SimTime::from_nanos(wall_ns),
                iteration: total,
                metric: final_metric,
                train_loss,
            });
        }
        let (comm, cache, _) = self.merged_stats();
        self.global_iterations = total;
        self.curve = curve.clone();
        let wall_s = wall_ns as f64 / 1e9;
        ParallelReport {
            system: self.config.system.name.to_string(),
            backend: format!("threads:{n}"),
            n_threads: n,
            total_iterations: total,
            wall_ns,
            ops_per_sec: if wall_s > 0.0 {
                total as f64 / wall_s
            } else {
                0.0
            },
            final_metric,
            converged_at_ns,
            curve,
            comm,
            cache,
            final_dense: self.export_dense_params(),
            trace,
        }
    }
}

/// One worker thread's BSP loop. Per round: ordered read, parallel
/// compute, barrier, ordered write (+ dense export or ordered dense PS
/// sync), barrier, leader tail, barrier, apply averaged gradient.
fn bsp_worker_loop<M: EmbeddingModel, D: Dataset<Batch = M::Batch>>(
    w: usize,
    worker: &mut Worker<M>,
    shared: &BspShared,
    ctx: &ThreadCtx<'_, D>,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        let cursor = data_cursor(ctx.config, w, worker.iterations);
        let batch = ctx.dataset.train_batch(cursor, ctx.config.batch_size);
        let keys = batch.unique_keys();
        let (store, _) = shared.read_ts.pass(w, || {
            ctx.scope(w);
            worker.read(w, &keys, ctx.server, &ctx.net, None, None)
        });
        let c0 = ctx.clock.elapsed_ns();
        let (loss, grads) = worker.model.forward_backward(&batch, &store);
        let compute_ns = ctx.clock.elapsed_ns().saturating_sub(c0);
        shared.computed.wait(w);
        shared.write_ts.pass(w, || {
            ctx.scope(w);
            let (t_write, gathered) = worker.write(grads, ctx.server, &ctx.net, None);
            het_trace::span!("trainer", "write", t_write.as_nanos());
            if let Some(g) = gathered {
                worker.record_allgather(&g, ctx.config.dim, &ctx.net);
                shared.gathered.lock().unwrap()[w] = Some(g);
            }
            match ctx.dense_store {
                None => {
                    let mut g = FlatGrads::new();
                    g.export_from(&mut worker.model);
                    shared.dense_slots.lock().unwrap()[w] = Some(g);
                }
                Some(store) => {
                    worker.dense_ps_sync(store, &ctx.net);
                }
            }
            worker.iterations += 1;
            {
                let mut slots = shared.loss.lock().unwrap();
                slots[w].0 += loss as f64;
                slots[w].1 += 1;
            }
            het_trace::span!("trainer", "compute", compute_ns, "loss" => loss as f64);
        });
        if shared.written.wait(w) {
            bsp_leader_tail(worker, shared, ctx);
        }
        shared.applied.wait(w);
        // The leader already applied the mean to worker 0's replica
        // (before evaluating, mirroring the sim's apply-then-eval order).
        if ctx.dense_store.is_none() && w != 0 {
            worker.apply_dense_mean(&shared.avg.lock().unwrap(), &ctx.sgd, &ctx.net);
        }
    }
}

/// The single-threaded tail of a BSP round, run by the barrier leader
/// (worker 0's thread): sparse AllGather merge, dense gradient
/// averaging, round accounting, and evaluation at the sim's cadence.
fn bsp_leader_tail<M: EmbeddingModel, D: Dataset<Batch = M::Batch>>(
    worker: &mut Worker<M>,
    shared: &BspShared,
    ctx: &ThreadCtx<'_, D>,
) {
    let n = ctx.n;
    let gathered: Vec<SparseGrads> = {
        let mut g = shared.gathered.lock().unwrap();
        g.iter_mut().filter_map(Option::take).collect()
    };
    if !gathered.is_empty() {
        apply_gathered(&gathered, ctx.config.dim, ctx.server);
    }
    if ctx.dense_store.is_none() {
        let slots: Vec<FlatGrads> = {
            let mut s = shared.dense_slots.lock().unwrap();
            s.iter_mut()
                .map(|g| g.take().expect("dense slot filled in write phase"))
                .collect()
        };
        let mean = dense_mean(&slots, n);
        worker.apply_dense_mean(&mean, &ctx.sgd, &ctx.net);
        *shared.avg.lock().unwrap() = mean;
    }
    let mut tail = shared.tail.lock().unwrap();
    tail.iterations += n as u64;
    let global = tail.iterations;
    let t_ns = ctx.clock.stamp();
    if ctx.tracing {
        het_trace::set_scope(t_ns, None);
        het_trace::span!("trainer", "barrier", 0u64,
            "round_iters" => n, "round_end_ns" => t_ns);
    }
    if global % ctx.config.eval_every < n as u64 {
        let metric = worker.evaluate(ctx.dataset, ctx.config, ctx.server);
        let (mut loss_sum, mut loss_count) = (0.0f64, 0u64);
        {
            let mut slots = shared.loss.lock().unwrap();
            for s in slots.iter_mut() {
                loss_sum += s.0;
                loss_count += s.1;
                *s = (0.0, 0);
            }
        }
        let train_loss = if loss_count > 0 {
            loss_sum / loss_count as f64
        } else {
            0.0
        };
        if ctx.tracing {
            het_trace::event!("trainer", "eval",
                "iteration" => global, "metric" => metric, "train_loss" => train_loss);
        }
        tail.curve.push(ConvergencePoint {
            sim_time: SimTime::from_nanos(t_ns),
            iteration: global,
            metric,
            train_loss,
        });
        if let Some(target) = ctx.config.target_metric {
            if metric >= target && tail.converged_at_ns.is_none() {
                tail.converged_at_ns = Some(t_ns);
                shared.stop.store(true, Ordering::SeqCst);
            }
        }
    }
    if global >= ctx.config.max_iterations {
        shared.stop.store(true, Ordering::SeqCst);
    }
}

/// One worker thread's ASP/SSP loop: claim an iteration under the
/// progress lock (blocking at the SSP gate), run it against the shared
/// PS, then publish completion — stamping and emitting the compute
/// event *inside* the lock, so the merged `(t, tid)` order equals the
/// completion order and the oracle's spread bound holds at every event.
fn async_worker_loop<M: EmbeddingModel, D: Dataset<Batch = M::Batch>>(
    w: usize,
    worker: &mut Worker<M>,
    shared: &AsyncShared,
    ctx: &ThreadCtx<'_, D>,
    staleness: Option<u64>,
) {
    let max = ctx.config.max_iterations;
    loop {
        {
            let mut p = shared.progress.lock().unwrap();
            loop {
                if p.global >= max {
                    shared.cv.notify_all();
                    return;
                }
                if let Some(s) = staleness {
                    let min = p.iters.iter().copied().min().unwrap_or(0);
                    if p.iters[w] > min + s {
                        p = shared.cv.wait(p).unwrap();
                        continue;
                    }
                }
                break;
            }
            p.global += 1;
        }
        let cursor = data_cursor(ctx.config, w, worker.iterations);
        let batch = ctx.dataset.train_batch(cursor, ctx.config.batch_size);
        let keys = batch.unique_keys();
        ctx.scope(w);
        let (store, _) = worker.read(w, &keys, ctx.server, &ctx.net, None, None);
        let c0 = ctx.clock.elapsed_ns();
        let (loss, grads) = worker.model.forward_backward(&batch, &store);
        let compute_ns = ctx.clock.elapsed_ns().saturating_sub(c0);
        worker.loss_sum += loss as f64;
        worker.loss_count += 1;
        let (t_write, _) = worker.write(grads, ctx.server, &ctx.net, None);
        het_trace::span!("trainer", "write", t_write.as_nanos());
        if let Some(store) = ctx.dense_store {
            worker.dense_ps_sync(store, &ctx.net);
        }
        {
            let mut p = shared.progress.lock().unwrap();
            ctx.scope(w);
            het_trace::span!("trainer", "compute", compute_ns, "loss" => loss as f64);
            p.iters[w] += 1;
            worker.iterations += 1;
            shared.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemPreset;
    use het_data::{CtrConfig, CtrDataset};
    use het_models::WideDeep;

    fn ctr_trainer(preset: SystemPreset) -> Trainer<WideDeep, CtrDataset> {
        let dataset = CtrDataset::new(CtrConfig::tiny(7));
        let config = TrainerConfig::tiny(preset);
        Trainer::new(config, dataset, |rng| WideDeep::new(rng, 4, 8, &[16]))
    }

    /// Every BSP sparse engine on both PS stores: the threaded backend
    /// must end at the sim's exact state — dense parameters, metric,
    /// curve, comm accounting, every server row (vector and clock) and
    /// the store's tier counters.
    #[test]
    fn threaded_bsp_cached_matches_sim_bit_for_bit() {
        use het_ps::{StoreSpec, TieredConfig};
        let presets = [
            SystemPreset::HetCache { staleness: 10 },
            SystemPreset::HetAr,
            SystemPreset::HetHybrid,
            SystemPreset::TfParallax,
        ];
        for preset in presets {
            for store in [StoreSpec::Mem, StoreSpec::Tiered(TieredConfig::new(16))] {
                let build = || {
                    let mut config = TrainerConfig::tiny(preset);
                    config.cluster = het_simnet::ClusterSpec::cluster_a(3, 1);
                    config.store = store.clone();
                    Trainer::new(config, CtrDataset::new(CtrConfig::tiny(7)), |rng| {
                        WideDeep::new(rng, 4, 8, &[16])
                    })
                };
                let cell = format!("{preset:?} on {store:?}");
                let mut sim = build();
                let sim_report = sim.run();
                let sim_dense = sim.export_dense_params();
                let mut thr = build();
                let report = thr.run_threaded(None).unwrap();

                assert_eq!(
                    report.total_iterations, sim_report.total_iterations,
                    "{cell}"
                );
                assert_eq!(report.final_dense, sim_dense, "{cell}: dense params");
                assert_eq!(report.final_metric, sim_report.final_metric, "{cell}");
                assert_eq!(report.curve.len(), sim_report.curve.len(), "{cell}");
                for (a, b) in report.curve.iter().zip(&sim_report.curve) {
                    assert_eq!(a.iteration, b.iteration, "{cell}");
                    assert_eq!(a.metric, b.metric, "{cell}: metric at {}", a.iteration);
                    assert_eq!(
                        a.train_loss, b.train_loss,
                        "{cell}: loss at {}",
                        a.iteration
                    );
                }
                assert_eq!(report.comm, sim_report.comm, "{cell}: comm accounting");
                assert_eq!(
                    thr.server().store_stats(),
                    sim.server().store_stats(),
                    "{cell}: store stats"
                );
                let rows = |t: &Trainer<WideDeep, CtrDataset>| {
                    let mut rows = t.server().export_rows();
                    rows.sort_by_key(|r| r.key);
                    rows
                };
                let (sim_rows, thr_rows) = (rows(&sim), rows(&thr));
                assert_eq!(sim_rows.len(), thr_rows.len(), "{cell}");
                for (a, b) in sim_rows.iter().zip(&thr_rows) {
                    assert_eq!(a.key, b.key, "{cell}");
                    assert_eq!(a.clock, b.clock, "{cell}: clock of key {}", a.key);
                    assert_eq!(a.vector, b.vector, "{cell}: row {}", a.key);
                }
            }
        }
    }

    #[test]
    fn threaded_asp_runs_every_iteration() {
        let mut thr = ctr_trainer(SystemPreset::HetPs);
        let report = thr.run_threaded(None).unwrap();
        assert_eq!(report.total_iterations, 200);
        assert!(report.final_metric.is_finite());
        let per_worker: u64 = (0..thr.n_workers()).map(|w| thr.worker_iterations(w)).sum();
        assert_eq!(per_worker, 200);
    }

    #[test]
    fn threaded_ssp_bounds_completed_spread() {
        let mut thr = ctr_trainer(SystemPreset::Ssp { staleness: 2 });
        let report = thr.run_threaded(None).unwrap();
        assert_eq!(report.total_iterations, 200);
        let iters: Vec<u64> = (0..thr.n_workers())
            .map(|w| thr.worker_iterations(w))
            .collect();
        let min = *iters.iter().min().unwrap();
        let max = *iters.iter().max().unwrap();
        assert!(max - min <= 3, "SSP spread {min}..{max} exceeds s + 1");
    }

    #[test]
    fn threaded_trace_merges_and_orders() {
        let mut thr = ctr_trainer(SystemPreset::HetCache { staleness: 10 });
        let report = thr
            .run_threaded(Some(vec![(
                "run".to_string(),
                Json::Str("threaded-test".to_string()),
            )]))
            .unwrap();
        let trace = report.trace.expect("trace requested");
        assert!(trace
            .meta
            .iter()
            .any(|(k, v)| k == het_trace::CLOCK_META_KEY && *v == Json::Str("wall".into())));
        // Every event is tid-tagged and the stream is (t, tid)-sorted.
        let mut last = (0u64, 0u64);
        for e in &trace.events {
            let tid = e.tid.expect("merged events carry a tid");
            assert!((e.t_ns, tid) >= last, "merge order violated");
            last = (e.t_ns, tid);
        }
        let computes = trace
            .events
            .iter()
            .filter(|e| e.comp == "trainer" && e.name == "compute")
            .count() as u64;
        assert_eq!(computes, report.total_iterations);
        het_trace::schema::validate_jsonl(&trace.to_jsonl()).expect("schema-valid");
    }
}
