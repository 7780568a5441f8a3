//! The serving run's output: throughput, the latency distribution, and
//! per-replica cache behaviour.

use het_cache::CacheStats;
use het_core::FaultStats;
use het_json::{Json, ToJson};

/// Per-replica outcome of a serving run.
#[derive(Clone, Debug)]
pub struct ReplicaReport {
    /// Replica index.
    pub replica: usize,
    /// Requests this replica served.
    pub requests: u64,
    /// Micro-batches this replica executed.
    pub batches: u64,
    /// Crash/restart cycles this replica went through.
    pub crashes: u64,
    /// Final cache counters.
    pub cache: CacheStats,
    /// p99 latency of this replica's requests, in nanoseconds.
    pub p99_ns: u64,
}

impl ToJson for ReplicaReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("replica".to_string(), Json::UInt(self.replica as u64)),
            ("requests".to_string(), Json::UInt(self.requests)),
            ("batches".to_string(), Json::UInt(self.batches)),
            ("crashes".to_string(), Json::UInt(self.crashes)),
            ("hits".to_string(), Json::UInt(self.cache.hits)),
            ("misses".to_string(), Json::UInt(self.cache.misses)),
            (
                "invalidations".to_string(),
                Json::UInt(self.cache.invalidations),
            ),
            (
                "capacity_evictions".to_string(),
                Json::UInt(self.cache.capacity_evictions),
            ),
            ("miss_rate".to_string(), Json::Num(self.cache.miss_rate())),
            ("p99_ns".to_string(), Json::UInt(self.p99_ns)),
        ])
    }
}

/// The result of one serving run. Latency percentiles are kept in
/// nanoseconds as exact integers so the JSON encoding is byte-stable.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Run seed (config echo).
    pub seed: u64,
    /// Replica count (config echo).
    pub n_replicas: usize,
    /// Per-replica cache capacity (config echo).
    pub cache_capacity: usize,
    /// Staleness window `s` (config echo).
    pub staleness: u64,
    /// Eviction policy name (config echo).
    pub policy: String,
    /// Requests served (all of them — the run drains the schedule).
    pub requests: u64,
    /// Micro-batches executed across replicas.
    pub batches: u64,
    /// Instant the last batch completed.
    pub sim_time_ns: u64,
    /// Served requests per second of simulated time.
    pub throughput_rps: f64,
    /// Mean requests per micro-batch.
    pub mean_batch_size: f64,
    /// End-to-end latency percentiles (arrival → batch completion).
    pub latency_p50_ns: u64,
    /// 95th percentile latency.
    pub latency_p95_ns: u64,
    /// 99th percentile latency.
    pub latency_p99_ns: u64,
    /// Worst-case latency.
    pub latency_max_ns: u64,
    /// Mean latency.
    pub latency_mean_ns: f64,
    /// Total time requests spent queued before their batch started.
    pub queue_wait_ns: u64,
    /// Total time spent in cache/PS embedding resolution.
    pub lookup_ns: u64,
    /// Total time spent in model forward passes.
    pub infer_ns: u64,
    /// Cache counters merged across replicas.
    pub cache: CacheStats,
    /// Keys pre-installed per replica by SpaceSaving warmup.
    pub warmed_keys: u64,
    /// PS updates applied before serving started.
    pub pretrain_updates: u64,
    /// Mean model score over all served examples (a cheap fingerprint
    /// that the forward pass actually consumed the embeddings).
    pub score_mean: f64,
    /// Fault accounting (replica crashes, degraded reads, …).
    pub faults: FaultStats,
    /// Supervisor crash detections (0 when supervision is off).
    pub detections: u64,
    /// Supervised replica respawns applied by the fleet.
    pub respawns: u64,
    /// Batches deferred by the outage-retry schedule.
    pub retry_waits: u64,
    /// Autoscaler scale-up actions (0 when autoscaling is off).
    pub scale_ups: u64,
    /// Autoscaler scale-down actions.
    pub scale_downs: u64,
    /// Keys moved by a supervisor-driven live shard split.
    pub migrated_keys: u64,
    /// True once a planned live split fully completed during the run.
    pub split_done: bool,
    /// Worst detection→respawn gap, in nanoseconds (recovery-time
    /// objective).
    pub max_recovery_ns: u64,
    /// Per-replica breakdown.
    pub replicas: Vec<ReplicaReport>,
}

impl ToJson for ServeReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".to_string(), Json::UInt(self.seed)),
            ("n_replicas".to_string(), Json::UInt(self.n_replicas as u64)),
            (
                "cache_capacity".to_string(),
                Json::UInt(self.cache_capacity as u64),
            ),
            ("staleness".to_string(), Json::UInt(self.staleness)),
            ("policy".to_string(), Json::Str(self.policy.clone())),
            ("requests".to_string(), Json::UInt(self.requests)),
            ("batches".to_string(), Json::UInt(self.batches)),
            ("sim_time_ns".to_string(), Json::UInt(self.sim_time_ns)),
            ("throughput_rps".to_string(), Json::Num(self.throughput_rps)),
            (
                "mean_batch_size".to_string(),
                Json::Num(self.mean_batch_size),
            ),
            (
                "latency_p50_ns".to_string(),
                Json::UInt(self.latency_p50_ns),
            ),
            (
                "latency_p95_ns".to_string(),
                Json::UInt(self.latency_p95_ns),
            ),
            (
                "latency_p99_ns".to_string(),
                Json::UInt(self.latency_p99_ns),
            ),
            (
                "latency_max_ns".to_string(),
                Json::UInt(self.latency_max_ns),
            ),
            (
                "latency_mean_ns".to_string(),
                Json::Num(self.latency_mean_ns),
            ),
            ("queue_wait_ns".to_string(), Json::UInt(self.queue_wait_ns)),
            ("lookup_ns".to_string(), Json::UInt(self.lookup_ns)),
            ("infer_ns".to_string(), Json::UInt(self.infer_ns)),
            ("hits".to_string(), Json::UInt(self.cache.hits)),
            ("misses".to_string(), Json::UInt(self.cache.misses)),
            (
                "invalidations".to_string(),
                Json::UInt(self.cache.invalidations),
            ),
            (
                "capacity_evictions".to_string(),
                Json::UInt(self.cache.capacity_evictions),
            ),
            ("miss_rate".to_string(), Json::Num(self.cache.miss_rate())),
            ("warmed_keys".to_string(), Json::UInt(self.warmed_keys)),
            (
                "pretrain_updates".to_string(),
                Json::UInt(self.pretrain_updates),
            ),
            ("score_mean".to_string(), Json::Num(self.score_mean)),
            ("faults".to_string(), self.faults.to_json()),
            ("detections".to_string(), Json::UInt(self.detections)),
            ("respawns".to_string(), Json::UInt(self.respawns)),
            ("retry_waits".to_string(), Json::UInt(self.retry_waits)),
            ("scale_ups".to_string(), Json::UInt(self.scale_ups)),
            ("scale_downs".to_string(), Json::UInt(self.scale_downs)),
            ("migrated_keys".to_string(), Json::UInt(self.migrated_keys)),
            ("split_done".to_string(), Json::Bool(self.split_done)),
            (
                "max_recovery_ns".to_string(),
                Json::UInt(self.max_recovery_ns),
            ),
            (
                "replicas".to_string(),
                Json::Arr(self.replicas.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }
}
