//! Multi-replica serving: N independent [`BatchScheduler`]s over one model.
//!
//! Each replica owns its own decode workers, bounded queue, prefix KV cache,
//! speculative config, model copy and metric handles — replicas share
//! nothing mutable, so there is no cross-replica locking on the decode
//! path. The replicas divide the cores: each runs `max(1, cores / N)`
//! decode workers, so a two-replica pool on two cores runs one worker per
//! replica. What N replicas buy on top of their decode workers is N× the
//! aggregate prefix-cache capacity: a router that keeps each session's
//! resends on the replica already holding its prefix turns a working set
//! that thrashes one cache into N partitions that each fit
//! (`crates/server/src/router.rs` is that router).
//!
//! Determinism: a request decoded by any replica produces exactly the
//! tokens [`crate::TransformerLm::generate`] would produce for it alone —
//! each replica is a plain [`BatchScheduler`], whose agreement suites pin
//! that property — so *placement never changes bytes*, only latency. That
//! is what makes affinity routing safe to layer on top.

use std::sync::Arc;

use crate::batch::{available_cores, BatchConfig, BatchScheduler, SchedulerStats};
use crate::prefix_cache::PrefixCacheStats;
use crate::telemetry::DecodeTelemetry;
use crate::transformer::TransformerLm;

/// Aggregated load across a pool, plus the per-replica snapshots it was
/// summed from. Served by `GET /v1/stats` on multi-replica servers.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Sum of per-replica queue depths.
    pub queue_depth: usize,
    /// Sum of per-replica in-flight batch sizes.
    pub in_flight: usize,
    /// Sum of per-replica worker wakeups.
    pub wakeups: u64,
    /// Component-wise sum of per-replica prefix-cache counters (`None`
    /// when no replica has a cache). `budget_bytes` sums too: it reports
    /// the pool's total cache capacity.
    pub prefix_cache: Option<PrefixCacheStats>,
    /// The snapshots the sums came from, in replica order.
    pub replicas: Vec<SchedulerStats>,
}

/// N independent continuous-batching schedulers over one model.
///
/// Each replica converts its own copy of the model to
/// [`BatchConfig::precision`], so its projections count into its own
/// [`DecodeTelemetry::quant`].
pub struct ReplicaPool {
    replicas: Vec<BatchScheduler>,
}

impl ReplicaPool {
    /// Spawns `n` (at least 1) replicas, each configured with `cfg` — so
    /// each gets its *own* prefix cache of `cfg.prefix_cache_bytes` bytes,
    /// its own queue of `cfg.queue_depth` slots, and its own share of the
    /// cores in decode workers (`max(1, cores / n)`) — and recording into
    /// `telemetry[i]` (a missing entry records into a private
    /// [`DecodeTelemetry::default`] bundle).
    pub fn spawn(
        model: Arc<TransformerLm>,
        cfg: BatchConfig,
        n: usize,
        telemetry: &[DecodeTelemetry],
    ) -> Self {
        let n = n.max(1);
        let workers = (available_cores() / n).max(1);
        let replicas = (0..n)
            .map(|i| {
                let t = telemetry.get(i).cloned().unwrap_or_default();
                BatchScheduler::spawn_workers(Arc::clone(&model), cfg, t, workers)
            })
            .collect();
        Self { replicas }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the pool has no replicas (never true — `spawn` clamps to 1;
    /// provided for the `len`/`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Replica `i`'s scheduler.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn replica(&self, i: usize) -> &BatchScheduler {
        &self.replicas[i]
    }

    /// All replicas, in index order.
    pub fn replicas(&self) -> &[BatchScheduler] {
        &self.replicas
    }

    /// Per-replica load snapshots, in replica order.
    pub fn stats(&self) -> Vec<SchedulerStats> {
        self.replicas.iter().map(BatchScheduler::stats).collect()
    }

    /// Pool-wide load: per-replica snapshots plus their sums.
    pub fn aggregate(&self) -> PoolStats {
        let replicas = self.stats();
        let mut agg = PoolStats::default();
        for s in &replicas {
            agg.queue_depth += s.queue_depth;
            agg.in_flight += s.in_flight;
            agg.wakeups += s.wakeups;
            if let Some(pc) = &s.prefix_cache {
                let total = agg
                    .prefix_cache
                    .get_or_insert_with(PrefixCacheStats::default);
                total.hits += pc.hits;
                total.misses += pc.misses;
                total.hit_tokens += pc.hit_tokens;
                total.evicted_segments += pc.evicted_segments;
                total.bytes += pc.bytes;
                total.segments += pc.segments;
                total.budget_bytes += pc.budget_bytes;
            }
        }
        agg.replicas = replicas;
        agg
    }

    /// Whether every replica's decode worker is up and serving (readiness).
    pub fn worker_ready(&self) -> bool {
        self.replicas.iter().all(BatchScheduler::worker_ready)
    }

    /// Test hook: pauses/resumes admission on every replica at once.
    #[doc(hidden)]
    pub fn set_admission_paused(&self, paused: bool) {
        for r in &self.replicas {
            r.set_admission_paused(paused);
        }
    }

    /// Shuts every replica down; queued and in-flight requests resolve to
    /// empty outputs.
    pub fn shutdown(&self) {
        for r in &self.replicas {
            r.shutdown();
        }
    }
}

impl std::fmt::Debug for ReplicaPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaPool")
            .field("replicas", &self.replicas.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::DecodeRequest;
    use crate::config::ModelConfig;
    use crate::decode::GenerationOptions;
    use wisdom_prng::Prng;

    fn tiny_model() -> TransformerLm {
        let cfg = ModelConfig {
            vocab_size: 20,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            context_window: 16,
        };
        let mut rng = Prng::seed_from_u64(7);
        TransformerLm::new(cfg, &mut rng)
    }

    fn greedy(max_new: usize) -> GenerationOptions {
        GenerationOptions {
            max_new_tokens: max_new,
            ..Default::default()
        }
    }

    fn request(prompt: &[u32], max_new: usize) -> DecodeRequest {
        DecodeRequest {
            prompt: prompt.to_vec(),
            stops: vec![0],
            opts: greedy(max_new),
            grammar: None,
        }
    }

    #[test]
    fn every_replica_matches_solo_generate() {
        let model = Arc::new(tiny_model());
        let pool = ReplicaPool::spawn(Arc::clone(&model), BatchConfig::default(), 3, &[]);
        assert_eq!(pool.len(), 3);
        let solo = model.generate(&[1, 2, 3, 4], &[0], &greedy(5));
        for i in 0..pool.len() {
            assert_eq!(
                pool.replica(i)
                    .submit(request(&[1, 2, 3, 4], 5))
                    .expect("queued")
                    .wait(),
                solo,
                "replica {i}"
            );
        }
    }

    #[test]
    fn replicas_have_independent_caches_and_queues() {
        let model = Arc::new(tiny_model());
        let pool = ReplicaPool::spawn(Arc::clone(&model), BatchConfig::default(), 2, &[]);
        // Warm replica 0 only; replica 1's cache must stay untouched.
        for _ in 0..2 {
            let warm = pool.replica(0).submit(request(&[1, 2, 3, 4, 5], 3));
            warm.expect("queued").wait();
        }
        let stats = pool.stats();
        let c0 = stats[0].prefix_cache.expect("cache on");
        let c1 = stats[1].prefix_cache.expect("cache on");
        assert!(c0.hits >= 1, "{c0:?}");
        assert_eq!(c1.hits + c1.misses, 0, "{c1:?}");
        // The probe side: replica 0 now holds the prompt's prefix,
        // replica 1 holds nothing.
        assert!(pool.replica(0).cached_prefix_tokens(&[1, 2, 3, 4, 5], 3).0 > 0);
        assert_eq!(
            pool.replica(1).cached_prefix_tokens(&[1, 2, 3, 4, 5], 3),
            (0, 5)
        );

        let agg = pool.aggregate();
        assert_eq!(agg.replicas.len(), 2);
        let pc = agg.prefix_cache.expect("cache on");
        assert_eq!(pc.hits, c0.hits + c1.hits);
        assert_eq!(pc.budget_bytes, c0.budget_bytes + c1.budget_bytes);
    }

    #[test]
    fn pool_streaming_matches_result() {
        let model = Arc::new(tiny_model());
        let pool = ReplicaPool::spawn(Arc::clone(&model), BatchConfig::default(), 2, &[]);
        let req = DecodeRequest {
            prompt: vec![1, 2, 3],
            stops: vec![0],
            opts: greedy(6),
            grammar: None,
        };
        let streamed = pool
            .replica(1)
            .submit_streaming(req.clone())
            .expect("submit");
        let collected: Vec<u32> = streamed.tokens.iter().collect();
        let result = streamed.result.wait();
        assert_eq!(collected, result);
        assert_eq!(result, model.generate(&[1, 2, 3], &[0], &greedy(6)));
    }

    #[test]
    fn pool_shutdown_and_readiness() {
        let model = Arc::new(tiny_model());
        let pool = ReplicaPool::spawn(model, BatchConfig::default(), 2, &[]);
        while !pool.worker_ready() {
            std::thread::yield_now();
        }
        pool.shutdown();
        let err = pool
            .replica(0)
            .submit(DecodeRequest {
                prompt: vec![1],
                stops: vec![],
                opts: greedy(2),
                grammar: None,
            })
            .unwrap_err();
        assert_eq!(err, crate::batch::SubmitError::ShutDown);
    }
}
