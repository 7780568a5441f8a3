//! Standalone replays of a workload's own key stream into the public
//! functions of `CacheTable`, `HetClient`, `PsServer` and `RowStore`,
//! plus the tensor-kernel rows at the WDL first-layer shapes.
//!
//! Calls are timed in per-batch loops (one clock read per batch, not per
//! call), so the clock's own cost stays out of nanosecond-scale numbers.

use crate::layers::{LayerRow, Source};
use het_cache::{CacheTable, PolicyKind};
use het_core::HetClient;
use het_data::Key;
use het_json::Json;
use het_models::SparseGrads;
use het_ps::{PsConfig, PsServer, RowStore, ServerOptimizer, StoreSpec, StoredRow, TieredConfig};
use het_simnet::{ClusterSpec, CommStats, SimDuration};
use het_tensor::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// A workload's input as the sparse layers see it: the sorted unique
/// keys of each batch, in the order the program reads them.
pub struct KeyStream {
    pub batches: Vec<Vec<Key>>,
    /// Forward+backward FLOPs of one batch of the workload's model
    /// (prices simulated compute against simulated communication).
    pub flops_per_batch: f64,
}

impl KeyStream {
    fn ops(&self) -> u64 {
        self.batches.iter().map(|b| b.len() as u64).sum()
    }
}

/// The sparse-layer configuration a workload runs with.
pub struct Target {
    pub capacity: usize,
    pub staleness: u64,
    pub policy: PolicyKind,
    pub dim: usize,
    pub lr: f32,
    pub store: StoreSpec,
    pub n_shards: usize,
    pub cluster: ClusterSpec,
    pub seed: u64,
    /// Whether the workload writes gradients back (training) or only
    /// reads through a read-only cache (serving).
    pub writes: bool,
}

impl Target {
    pub fn train(seed: u64) -> Target {
        let cfg = crate::train::config(seed);
        let n_keys = het_models::Dataset::n_keys(&crate::train::dataset(seed));
        Target {
            capacity: ((n_keys as f64 * 0.10).ceil() as usize).max(1),
            staleness: 100,
            policy: PolicyKind::light_lfu(),
            dim: cfg.dim,
            lr: cfg.lr,
            store: cfg.store.clone(),
            n_shards: cfg.cluster.n_servers.max(1) * 4,
            cluster: cfg.cluster,
            // The trainer seeds its PS with this, so rows start equal.
            seed: cfg.seed ^ 0x5EED_5EED,
            writes: true,
        }
    }

    pub fn serve(seed: u64) -> Target {
        let cfg = crate::serve::config(seed);
        Target {
            capacity: cfg.cache_capacity,
            staleness: cfg.staleness,
            policy: cfg.policy,
            dim: cfg.dim,
            lr: cfg.lr,
            store: cfg.store.clone(),
            n_shards: cfg.n_shards,
            cluster: cfg.cluster,
            seed: cfg.seed,
            writes: false,
        }
    }

    fn server(&self) -> PsServer {
        PsServer::with_store(
            PsConfig {
                dim: self.dim,
                n_shards: self.n_shards,
                lr: self.lr,
                seed: self.seed,
                optimizer: ServerOptimizer::Sgd,
                grad_clip: None,
            },
            0,
            &self.store,
        )
    }

    fn client(&self, read_only: bool) -> HetClient {
        let mut client = HetClient::new(
            self.capacity,
            self.staleness,
            self.policy,
            self.dim,
            self.lr,
        );
        client.cache_mut().set_read_only(read_only);
        client
    }
}

/// The replay results shared by every workload.
pub struct Replays {
    pub cache_get_ns: f64,
    pub cache_update_ns: f64,
    pub core_read_us: f64,
    pub core_write_us: f64,
    /// Embedding bytes per batch the replayed reads (and, for training,
    /// writes) moved, and the share of simulated batch time they took.
    pub embedding_mb_per_batch: f64,
    pub comm_fraction: f64,
    pub ps_pull_ns: f64,
    pub ps_push_ns: f64,
    pub ps_pull_contended_ns: f64,
    pub store: StoreReplay,
    pub kernels: [Kernel; 3],
}

impl Replays {
    /// Runs every replay: the sparse layers over `stream` at `target`'s
    /// configuration, the row store over serve-tiered's streams for
    /// `seed`, and the kernels.
    pub fn run(target: &Target, stream: &KeyStream, seed: u64) -> Replays {
        let (cache_get_ns, cache_update_ns) = cache(target, stream);
        let core = core(target, stream);
        let (ps_pull_ns, ps_push_ns) = ps(target, stream);
        Replays {
            cache_get_ns,
            cache_update_ns,
            core_read_us: core.read_us,
            core_write_us: core.write_us,
            embedding_mb_per_batch: core.embedding_mb_per_batch,
            comm_fraction: core.comm_fraction,
            ps_pull_ns,
            ps_push_ns,
            ps_pull_contended_ns: ps_contended(target, stream),
            store: {
                let (history, pulls) = crate::serve::store_streams(seed);
                store(&history, &pulls)
            },
            kernels: kernels(),
        }
    }

    /// The kernel rows with their shapes and operand bytes.
    pub fn kernels_json(&self) -> Json {
        Json::Arr(
            self.kernels
                .iter()
                .map(|k| {
                    Json::Obj(vec![
                        ("kernel".to_string(), Json::Str(k.name.to_string())),
                        ("m".to_string(), Json::UInt(k.m as u64)),
                        ("k".to_string(), Json::UInt(k.k as u64)),
                        ("n".to_string(), Json::UInt(k.n as u64)),
                        (
                            "flops".to_string(),
                            Json::Num(Matrix::matmul_flops(k.m, k.k, k.n)),
                        ),
                        ("bytes".to_string(), Json::UInt(k.bytes)),
                        ("gflops".to_string(), Json::Num(k.gflops)),
                    ])
                })
                .collect(),
        )
    }

    /// The rows every workload reports from replays (simnet rows are
    /// taken from reports where the workload has one).
    pub fn rows(&self) -> Vec<LayerRow> {
        let r = Source::Replay;
        vec![
            LayerRow::new("tensor.matmul_gflops", self.kernels[0].gflops, r),
            LayerRow::new("tensor.matmul_tn_gflops", self.kernels[1].gflops, r),
            LayerRow::new("tensor.matmul_nt_gflops", self.kernels[2].gflops, r),
            LayerRow::new("cache.get_ns", self.cache_get_ns, r),
            LayerRow::new("cache.update_ns", self.cache_update_ns, r),
            LayerRow::new("core.read_us", self.core_read_us, r),
            LayerRow::new("core.write_us", self.core_write_us, r),
            LayerRow::new("ps.pull_ns", self.ps_pull_ns, r),
            LayerRow::new("ps.push_ns", self.ps_push_ns, r),
            LayerRow::new("ps.pull_ns.contended", self.ps_pull_contended_ns, r),
            LayerRow::new("store.get_ns", self.store.get_ns, r),
            LayerRow::new("store.apply_ns", self.store.apply_ns, r),
            LayerRow::new("store.hot_hit_rate", self.store.hot_hit_rate, r),
            LayerRow::new("store.cold_read_mb", self.store.cold_read_mb, r),
            LayerRow::new("store.cold_write_mb", self.store.cold_write_mb, r),
            LayerRow::new("store.compactions", self.store.compactions, r),
            LayerRow::new("store.io_ms", self.store.io_ms, r),
        ]
    }
}

fn grad(dim: usize) -> Vec<f32> {
    (0..dim).map(|i| 1e-3 * (i as f32 + 1.0)).collect()
}

/// `CacheTable::get` over every key, then (protocol order) install the
/// misses and `update` + `bump_clock` every key, trimming overflow as
/// `Het.Write` does. Returns ns per get and per update.
fn cache(target: &Target, stream: &KeyStream) -> (f64, f64) {
    let mut table = CacheTable::new(target.capacity, target.policy, target.lr);
    let g = grad(target.dim);
    let (mut get_ns, mut update_ns) = (0u128, 0u128);
    let mut misses = Vec::new();
    for keys in &stream.batches {
        misses.clear();
        let t = Instant::now();
        for &k in keys {
            if black_box(table.get(k)).is_none() {
                misses.push(k);
            }
        }
        get_ns += t.elapsed().as_nanos();
        for &k in &misses {
            let _displaced = table.install(k, vec![0.0; target.dim], 0);
        }
        let t = Instant::now();
        for &k in keys {
            table.update(k, &g);
            table.bump_clock(k);
        }
        update_ns += t.elapsed().as_nanos();
        black_box(table.evict_overflow());
    }
    let ops = stream.ops() as f64;
    (get_ns as f64 / ops, update_ns as f64 / ops)
}

struct CoreReplay {
    read_us: f64,
    write_us: f64,
    embedding_mb_per_batch: f64,
    comm_fraction: f64,
}

/// `HetClient::read` (and, for training, `HetClient::write`) per batch
/// against a fresh server with the workload's store. A serving workload
/// reads through a read-only cache, as its replicas do; its write cost
/// is measured on a second, writable client over the same stream.
fn core(target: &Target, stream: &KeyStream) -> CoreReplay {
    let net = target.cluster.collectives();
    let g = grad(target.dim);
    let grads_of = |keys: &[Key]| {
        let mut grads = SparseGrads::new(target.dim);
        for &k in keys {
            grads.accumulate(k, &g);
        }
        grads
    };
    let batches = stream.batches.len() as f64;
    let server = target.server();
    let mut client = target.client(!target.writes);
    let mut comm = CommStats::new();
    let (mut read_ns, mut write_ns) = (0u128, 0u128);
    let mut modelled = SimDuration::ZERO;
    for keys in &stream.batches {
        let t = Instant::now();
        let (store, dur) = client.read(keys, &server, &net, &mut comm, None);
        read_ns += t.elapsed().as_nanos();
        black_box(store);
        modelled += dur;
        if target.writes {
            let grads = grads_of(keys);
            let t = Instant::now();
            modelled += client.write(&grads, &server, &net, &mut comm, None);
            write_ns += t.elapsed().as_nanos();
        } else {
            black_box(client.cache_mut().evict_overflow());
        }
    }
    if !target.writes {
        let server = target.server();
        let mut writer = target.client(false);
        let mut scratch = CommStats::new();
        for keys in &stream.batches {
            black_box(writer.read(keys, &server, &net, &mut scratch, None));
            let grads = grads_of(keys);
            let t = Instant::now();
            black_box(writer.write(&grads, &server, &net, &mut scratch, None));
            write_ns += t.elapsed().as_nanos();
        }
    }
    let compute = target
        .cluster
        .compute_time(stream.flops_per_batch)
        .as_secs_f64()
        * batches;
    let comm_s = modelled.as_secs_f64();
    CoreReplay {
        read_us: read_ns as f64 / 1e3 / batches,
        write_us: write_ns as f64 / 1e3 / batches,
        embedding_mb_per_batch: comm.embedding_bytes() as f64 / 1e6 / batches,
        comm_fraction: comm_s / (comm_s + compute),
    }
}

/// One thread's `PsServer::pull` then `push_inc` over every key of the
/// stream, on a fresh server. Returns ns per pull and per push.
fn ps(target: &Target, stream: &KeyStream) -> (f64, f64) {
    let server = target.server();
    let g = grad(target.dim);
    let (mut pull_ns, mut push_ns) = (0u128, 0u128);
    for keys in &stream.batches {
        let t = Instant::now();
        for &k in keys {
            black_box(server.pull(k));
        }
        pull_ns += t.elapsed().as_nanos();
    }
    for keys in &stream.batches {
        let t = Instant::now();
        for &k in keys {
            server.push_inc(k, &g);
        }
        push_ns += t.elapsed().as_nanos();
    }
    let ops = stream.ops() as f64;
    (pull_ns as f64 / ops, push_ns as f64 / ops)
}

/// Two threads pulling the whole stream at once through one shared
/// server (the threaded backends' `ServerHandle`). Returns the mean of
/// the two threads' ns per pull.
fn ps_contended(target: &Target, stream: &KeyStream) -> f64 {
    let server = target.server();
    let barrier = std::sync::Barrier::new(2);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (server, barrier) = (&server, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let t = Instant::now();
                    for keys in &stream.batches {
                        for &k in keys {
                            black_box(server.pull(k));
                        }
                    }
                    t.elapsed().as_nanos() as f64 / stream.ops() as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("contended pull thread panicked"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

pub struct StoreReplay {
    pub get_ns: f64,
    pub apply_ns: f64,
    pub hot_hit_rate: f64,
    pub cold_read_mb: f64,
    pub cold_write_mb: f64,
    pub compactions: f64,
    pub io_ms: f64,
}

/// serve-tiered's row store (4 shards, 8192 hot rows in total, in-memory
/// segments): first the training history a served model comes from, one
/// read-modify-write (`apply`) per key (see
/// [`crate::serve::store_streams`]), which dirties rows so demotions
/// rewrite them and compaction has garbage to reclaim; then
/// the serving pull stream (`get`, with the server's insert on first
/// touch).
fn store(history: &[Key], pulls: &[Key]) -> StoreReplay {
    let cfg = crate::serve::config(0);
    let spec = StoreSpec::Tiered(TieredConfig::new(crate::serve::HOT_ROWS));
    let (n_shards, dim) = (cfg.n_shards, cfg.dim);
    let mut shards: Vec<Box<dyn RowStore>> = (0..n_shards)
        .map(|s| spec.build_shard(dim, s, n_shards))
        .collect();
    let router = PsServer::new(PsConfig {
        dim,
        n_shards,
        lr: cfg.lr,
        seed: 0,
        optimizer: ServerOptimizer::Sgd,
        grad_clip: None,
    });
    let route = |keys: &[Key]| -> Vec<(usize, Key)> {
        keys.iter()
            .map(|&k| (router.shard_index_of(k), k))
            .collect()
    };
    let (history, pulls) = (route(history), route(pulls));
    let fresh = || StoredRow {
        vector: vec![0.01; dim],
        clock: 0,
        opt_state: Vec::new(),
    };

    let g = grad(dim);
    let t = Instant::now();
    for &(s, k) in &history {
        shards[s].apply(k, &mut || fresh(), &mut |row: &mut StoredRow| {
            for (v, d) in row.vector.iter_mut().zip(&g) {
                *v -= d;
            }
            row.clock += 1;
        });
    }
    let apply_ns = t.elapsed().as_nanos() as f64 / history.len() as f64;

    let t = Instant::now();
    for &(s, k) in &pulls {
        if black_box(shards[s].get(k)).is_none() {
            shards[s].insert(k, fresh());
        }
    }
    let get_ns = t.elapsed().as_nanos() as f64 / pulls.len() as f64;

    let mut stats = het_ps::StoreStats::default();
    for shard in &shards {
        stats.accumulate(&shard.stats());
    }
    StoreReplay {
        get_ns,
        apply_ns,
        hot_hit_rate: stats.hot_hit_rate(),
        cold_read_mb: stats.cold_read_bytes as f64 / 1e6,
        cold_write_mb: stats.cold_write_bytes as f64 / 1e6,
        compactions: stats.compactions as f64,
        io_ms: stats.io_ns as f64 / 1e6,
    }
}

/// One kernel row: the shape, its rate, and the bytes its operands and
/// result occupy (the minimum it must move).
pub struct Kernel {
    pub name: &'static str,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub gflops: f64,
    pub bytes: u64,
}

/// The three matmuls of WDL's first layer at dim 32 and batch 128:
/// forward `x(128×832) · W(832×64)`, weight gradient `xᵀ · dy` and input
/// gradient `dy · Wᵀ`.
fn kernels() -> [Kernel; 3] {
    let (b, input, out) = (128, 832, 64);
    let fill = |r: usize, c: usize, salt: usize| {
        Matrix::from_fn(r, c, |i, j| {
            (((i * 31 + j * 17 + salt) % 97) as f32 - 48.0) / 97.0
        })
    };
    let x = fill(b, input, 1);
    let w = fill(input, out, 2);
    let dy = fill(b, out, 3);
    let time = |f: &dyn Fn() -> Matrix| {
        black_box(f());
        let t = Instant::now();
        let mut reps = 0u32;
        while reps < 5 || t.elapsed().as_secs_f64() < 0.3 {
            black_box(f());
            reps += 1;
        }
        t.elapsed().as_secs_f64() / reps as f64
    };
    let row = |name, m: usize, k: usize, n: usize, secs: f64| Kernel {
        name,
        m,
        k,
        n,
        gflops: Matrix::matmul_flops(m, k, n) / secs / 1e9,
        bytes: 4 * (m * k + k * n + m * n) as u64,
    };
    [
        row("matmul", b, input, out, time(&|| x.matmul(&w))),
        row("matmul_tn", input, b, out, time(&|| x.matmul_tn(&dy))),
        row("matmul_nt", b, out, input, time(&|| dy.matmul_nt(&w))),
    ]
}
