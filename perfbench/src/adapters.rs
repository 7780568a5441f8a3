//! Adapters that go into the program through the generic parameters of
//! `Trainer` and `run_threaded_serve`. Each one delegates every call to
//! the real `CtrDataset` / model unchanged, so a run through an adapter
//! computes exactly what a run without it computes; the adapter only
//! reads the clock around the call.

use crate::spans::{now_ns, record};
use het_data::{CtrBatch, CtrDataset};
use het_models::{Dataset, EmbeddingModel, EmbeddingStore, EvalChunk, MetricKind, SparseGrads};
use het_tensor::{HasParams, ParamVisitor};

/// A cheap identity for a batch, shared by the data span that produced
/// it and the model spans that consumed it.
pub fn batch_id(batch: &CtrBatch) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &k in batch.keys.iter().take(32) {
        h = (h ^ k).wrapping_mul(0x0100_0000_01b3);
    }
    (h ^ batch.keys.len() as u64).wrapping_mul(0x0100_0000_01b3)
}

/// `CtrDataset` with a span around every batch it builds.
pub struct TracedData(pub CtrDataset);

impl Dataset for TracedData {
    type Batch = CtrBatch;

    fn train_batch(&self, cursor: u64, batch_size: usize) -> CtrBatch {
        let t0 = now_ns();
        let batch = self.0.train_batch(cursor, batch_size);
        record("data.train_batch", t0, now_ns(), batch_id(&batch));
        batch
    }

    fn test_batch(&self, cursor: u64, batch_size: usize) -> CtrBatch {
        let t0 = now_ns();
        let batch = self.0.test_batch(cursor, batch_size);
        record("data.test_batch", t0, now_ns(), batch_id(&batch));
        batch
    }

    fn epoch_examples(&self) -> u64 {
        Dataset::epoch_examples(&self.0)
    }

    fn test_examples(&self) -> u64 {
        Dataset::test_examples(&self.0)
    }

    fn n_keys(&self) -> usize {
        Dataset::n_keys(&self.0)
    }
}

/// Marks worker 0 starting a training step (one per BSP round).
pub const TRAIN_STEP: &str = "step.train";
/// Marks a serving replica finishing a micro-batch.
pub const SERVE_STEP: &str = "step.serve";

/// How much a [`Probed`] model records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The step clock of an untraced run: one instant per step, at
    /// worker 0's `forward_backward` start ([`TRAIN_STEP`]) and at every
    /// `evaluate` end ([`SERVE_STEP`]). The time between two marks of
    /// one thread is its step time.
    StepClock,
    /// A span around every call on every worker: the traced run.
    Spans,
}

/// A model replica behind the benchmark's clock.
pub struct Probed<M> {
    inner: M,
    worker: usize,
    probe: Probe,
    last_batch: u64,
}

impl<M> Probed<M> {
    pub fn new(inner: M, worker: usize, probe: Probe) -> Self {
        Probed {
            inner,
            worker,
            probe,
            last_batch: 0,
        }
    }
}

impl<M: HasParams> HasParams for Probed<M> {
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        if self.probe == Probe::Spans {
            let t0 = now_ns();
            self.inner.visit_params(visitor);
            record("models.visit_params", t0, now_ns(), self.last_batch);
        } else {
            self.inner.visit_params(visitor);
        }
    }
}

impl<M: EmbeddingModel<Batch = CtrBatch>> EmbeddingModel for Probed<M> {
    type Batch = CtrBatch;

    fn embedding_dim(&self) -> usize {
        self.inner.embedding_dim()
    }

    fn forward_backward(
        &mut self,
        batch: &CtrBatch,
        embeddings: &EmbeddingStore,
    ) -> (f32, SparseGrads) {
        match self.probe {
            Probe::StepClock => {
                if self.worker == 0 {
                    let t = now_ns();
                    record(TRAIN_STEP, t, t, 0);
                }
                self.inner.forward_backward(batch, embeddings)
            }
            Probe::Spans => {
                self.last_batch = batch_id(batch);
                let t0 = now_ns();
                let out = self.inner.forward_backward(batch, embeddings);
                record("models.forward_backward", t0, now_ns(), self.last_batch);
                out
            }
        }
    }

    fn evaluate(&self, batch: &CtrBatch, embeddings: &EmbeddingStore) -> EvalChunk {
        let t0 = now_ns();
        let out = self.inner.evaluate(batch, embeddings);
        let t1 = now_ns();
        match self.probe {
            Probe::StepClock => record(SERVE_STEP, t1, t1, 0),
            Probe::Spans => record("models.evaluate", t0, t1, batch_id(batch)),
        }
        out
    }

    fn metric_kind(&self) -> MetricKind {
        self.inner.metric_kind()
    }

    fn flops_per_batch(&self, n: usize) -> f64 {
        self.inner.flops_per_batch(n)
    }
}
