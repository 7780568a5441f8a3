//! The per-layer metrics of the traced run. Each names the end-to-end
//! metric it should move and on which workload, so an optimisation can
//! state its prediction before it is written.

use crate::Metric;
use het_json::Json;

/// Where a layer number was measured.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// Spans the benchmark's adapters recorded around layer calls in the
    /// traced run of the workload itself.
    Spans,
    /// A counter from the program's own report of the workload run.
    Report,
    /// A standalone replay of the workload's own inputs into the layer's
    /// public functions.
    Replay,
    /// Two whole runs of the workload compared.
    Runs,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Spans => "spans",
            Source::Report => "report",
            Source::Replay => "replay",
            Source::Runs => "runs",
        }
    }
}

/// One per-layer metric: name, unit, which direction is better, and the
/// end-to-end metric and workloads it should move.
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const TRAIN: &str = "examples_per_s on train-sim and train-threads";

/// Every per-layer metric, grouped by crate; `BENCHMARK.json` lists the
/// same names in the same order.
pub const LAYERS: &[LayerSpec] = &[
    // het-data
    LayerSpec { name: "data.batch_us", unit: "us", better: "lower", moves: TRAIN },
    // het-models
    LayerSpec { name: "models.fwd_bwd_ms.p50", unit: "ms", better: "lower", moves: "examples_per_s on train-sim and train-threads; near zero and no change on serve-tiered" },
    LayerSpec { name: "models.fwd_bwd_ms.p99", unit: "ms", better: "lower", moves: "step_p90_us on train-sim and train-threads" },
    LayerSpec { name: "models.eval_us", unit: "us", better: "lower", moves: "step_p50_us on serve-tiered" },
    LayerSpec { name: "models.dense_us", unit: "us", better: "lower", moves: TRAIN },
    LayerSpec { name: "models.busy_share", unit: "share", better: "higher", moves: "examples_per_s on train-threads (its complement is the serial share)" },
    // het-tensor
    LayerSpec { name: "tensor.matmul_gflops", unit: "GF/s", better: "higher", moves: "models.fwd_bwd_ms, then examples_per_s on train-sim and train-threads; no change on serve-tiered" },
    LayerSpec { name: "tensor.matmul_tn_gflops", unit: "GF/s", better: "higher", moves: "models.fwd_bwd_ms, then examples_per_s on train-sim and train-threads; no change on serve-tiered" },
    LayerSpec { name: "tensor.matmul_nt_gflops", unit: "GF/s", better: "higher", moves: "models.fwd_bwd_ms, then examples_per_s on train-sim and train-threads; no change on serve-tiered" },
    // het-cache
    LayerSpec { name: "cache.hit_rate", unit: "share", better: "higher", moves: "examples_per_s on all three workloads" },
    LayerSpec { name: "cache.get_ns", unit: "ns", better: "lower", moves: "step_p50_us on serve-tiered" },
    LayerSpec { name: "cache.update_ns", unit: "ns", better: "lower", moves: "step_p50_us on serve-tiered" },
    // het-core
    LayerSpec { name: "core.read_us", unit: "us", better: "lower", moves: "step_p50_us on serve-tiered; examples_per_s on train-sim and train-threads" },
    LayerSpec { name: "core.write_us", unit: "us", better: "lower", moves: "examples_per_s on train-sim and train-threads; serve-tiered makes no writes" },
    // het-ps
    LayerSpec { name: "ps.pull_ns", unit: "ns", better: "lower", moves: "step_p50_us on serve-tiered; examples_per_s on train-sim" },
    LayerSpec { name: "ps.push_ns", unit: "ns", better: "lower", moves: TRAIN },
    LayerSpec { name: "ps.pull_ns.contended", unit: "ns", better: "lower", moves: "examples_per_s on serve-tiered and train-threads" },
    // het-store (replays serve-tiered's pull stream on every workload)
    LayerSpec { name: "store.get_ns", unit: "ns", better: "lower", moves: "examples_per_s and step_p90_us on serve-tiered; no change on train-* (memory store)" },
    LayerSpec { name: "store.apply_ns", unit: "ns", better: "lower", moves: "examples_per_s and step_p90_us on serve-tiered; no change on train-* (memory store)" },
    LayerSpec { name: "store.hot_hit_rate", unit: "share", better: "higher", moves: "examples_per_s and step_p90_us on serve-tiered; no change on train-* (memory store)" },
    LayerSpec { name: "store.cold_read_mb", unit: "MB", better: "lower", moves: "examples_per_s and step_p90_us on serve-tiered; no change on train-* (memory store)" },
    LayerSpec { name: "store.cold_write_mb", unit: "MB", better: "lower", moves: "examples_per_s and step_p90_us on serve-tiered; no change on train-* (memory store)" },
    LayerSpec { name: "store.compactions", unit: "count", better: "lower", moves: "examples_per_s and step_p90_us on serve-tiered; no change on train-* (memory store)" },
    LayerSpec { name: "store.io_ms", unit: "ms", better: "lower", moves: "examples_per_s and step_p90_us on serve-tiered; no change on train-* (memory store)" },
    // het-runtime
    LayerSpec { name: "runtime.unattributed_us_per_batch", unit: "us", better: "lower", moves: "examples_per_s on train-threads" },
    // het-simnet
    LayerSpec { name: "simnet.embedding_mb_per_batch", unit: "MB", better: "lower", moves: "sim_epoch_s (simulated; detail output) on train-sim" },
    LayerSpec { name: "simnet.comm_fraction", unit: "share", better: "lower", moves: "sim_epoch_s (simulated; detail output) on train-sim" },
    // het-trace
    LayerSpec { name: "trace.overhead_share", unit: "share", better: "lower", moves: "none: the cost of the program's own tracing when it is switched on" },
];

/// One measured per-layer value.
pub struct LayerRow {
    pub name: &'static str,
    pub value: f64,
    pub source: Source,
}

impl LayerRow {
    pub fn new(name: &'static str, value: f64, source: Source) -> Self {
        LayerRow {
            name,
            value,
            source,
        }
    }
}

/// Orders `rows` as [`LAYERS`] and checks that every metric is present
/// exactly once and finite. Returns the result-line metrics and the
/// detail table (value, unit, source and what it should move).
pub fn assemble(rows: &[LayerRow]) -> Result<(Vec<Metric>, Json), String> {
    let mut metrics = Vec::with_capacity(LAYERS.len());
    let mut table = Vec::with_capacity(LAYERS.len());
    for spec in LAYERS {
        let found: Vec<&LayerRow> = rows.iter().filter(|r| r.name == spec.name).collect();
        let row = match found.as_slice() {
            [row] => *row,
            [] => return Err(format!("per-layer metric {} was not measured", spec.name)),
            _ => return Err(format!("per-layer metric {} was measured twice", spec.name)),
        };
        if !row.value.is_finite() {
            return Err(format!("per-layer metric {} is not finite", spec.name));
        }
        metrics.push((spec.name, row.value, spec.unit));
        table.push(Json::Obj(vec![
            ("name".to_string(), Json::Str(spec.name.to_string())),
            ("value".to_string(), Json::Num(row.value)),
            ("unit".to_string(), Json::Str(spec.unit.to_string())),
            ("better".to_string(), Json::Str(spec.better.to_string())),
            (
                "source".to_string(),
                Json::Str(row.source.label().to_string()),
            ),
            ("moves".to_string(), Json::Str(spec.moves.to_string())),
        ]));
    }
    if let Some(extra) = rows
        .iter()
        .find(|r| !LAYERS.iter().any(|s| s.name == r.name))
    {
        return Err(format!("unlisted per-layer metric {}", extra.name));
    }
    Ok((metrics, Json::Arr(table)))
}
