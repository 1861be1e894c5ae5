//! Cache-aware request router over a [`ReplicaPool`].
//!
//! Each replica owns a private prefix KV cache, so *where* a request runs
//! decides whether its prompt prefill is warm or cold. The router probes
//! every replica's radix cache for the resident prefix of the incoming
//! prompt and follows it when it pays: when a replica already holds at
//! least half of the request's generation window. Editor sessions that
//! keep resending a growing buffer stick to one replica and keep hitting
//! its cache, instead of spraying their working set across all caches and
//! thrashing every one of them.
//!
//! A shorter match is not worth a queue: every prompt shares the few
//! tokens of `- name: ` with whichever replica served the first request,
//! and following that would put all cold traffic on one decode worker.
//! Such a request goes to the least-loaded replica (requests queued plus
//! sequences in flight), ties broken by rendezvous hashing over the prompt
//! head: deterministic, evenly spread, stable under replica churn (adding
//! a replica only moves the keys the new replica wins; removing the last
//! one moves only its keys), and on an idle pool the same for every resend
//! of a session. A full replica spills to the next candidate, and only
//! when *every* queue is full does the router shed with
//! [`SubmitError::QueueFull`].

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use wisdom_core::{DecodeRequest, Pending, ReplicaPool, StreamingPending, SubmitError};
use wisdom_telemetry::{Counter, Registry};

/// How the router picks a replica for a fresh request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// The replica holding at least half the window (the longest such
    /// match) wins; otherwise the least-loaded replica, ties by rendezvous
    /// hash. The default, and the point of this module.
    PrefixAffinity,
    /// Cycle through replicas regardless of cache state. The baseline the
    /// serving benchmark compares affinity against.
    RoundRobin,
    /// Always rendezvous-hash the prompt head, never probe caches.
    Rendezvous,
}

/// Router tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Placement policy.
    pub policy: RoutePolicy,
    /// How many leading prompt tokens feed the rendezvous hash. A short
    /// head keeps hashing cheap and makes resends of a growing buffer
    /// hash identically (the head is the stable part of the prompt).
    pub hash_head: usize,
    /// Upper clamp for [`Router::retry_after_secs`] estimates.
    pub retry_after_max_secs: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            policy: RoutePolicy::PrefixAffinity,
            hash_head: 16,
            retry_after_max_secs: 30,
        }
    }
}

/// Where [`Router::decide`] wants a request to run, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Chosen replica index.
    pub replica: usize,
    /// Prompt tokens already resident in that replica's prefix cache
    /// (0 for hash/round-robin placements).
    pub matched_tokens: usize,
}

/// Why a request ran where it did: the `reason` label of
/// `wisdom_router_placements_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// The replica holds at least half the window.
    Affinity,
    /// No replica does, and this one had the least queued and in flight.
    LeastLoaded,
    /// Neither cache nor load decided: hash order (the rendezvous policy,
    /// or equal loads) or, under `policy="round_robin"`, the rotation.
    Rendezvous,
    /// A later candidate, after the first choice's queue was full.
    Spill,
}

impl Reason {
    const ALL: [Reason; 4] = [
        Reason::Affinity,
        Reason::LeastLoaded,
        Reason::Rendezvous,
        Reason::Spill,
    ];

    fn as_str(self) -> &'static str {
        match self {
            Reason::Affinity => "affinity",
            Reason::LeastLoaded => "least_loaded",
            Reason::Rendezvous => "rendezvous",
            Reason::Spill => "spill",
        }
    }
}

/// Router-level counters, one set per policy label.
#[derive(Debug, Clone)]
pub struct RouterTelemetry {
    /// Requests routed (successfully placed on some replica).
    pub requests: Arc<Counter>,
    /// The same requests by why they ran where they did, indexed like
    /// `Reason::ALL`.
    placements: [Arc<Counter>; Reason::ALL.len()],
    /// Sum of cached prompt tokens found at the chosen replica — divide by
    /// `requests` for mean warm-prefix length.
    pub prefix_matched_tokens: Arc<Counter>,
    /// Placements that spilled past the first-choice replica because its
    /// queue was full.
    pub overflow_reroutes: Arc<Counter>,
    /// Requests shed because every replica's queue was full.
    pub shed: Arc<Counter>,
}

impl RouterTelemetry {
    /// Registers the router families in `registry` under a `policy` label.
    pub fn register(registry: &Registry, policy: &str) -> RouterTelemetry {
        let labels: &[(&str, &str)] = &[("policy", policy)];
        RouterTelemetry {
            requests: registry.counter_with(
                "wisdom_router_requests_total",
                "Requests placed on a replica by the router.",
                labels,
            ),
            placements: Reason::ALL.map(|reason| {
                registry.counter_with(
                    "wisdom_router_placements_total",
                    "Requests placed, by why they ran where they did.",
                    &[("policy", policy), ("reason", reason.as_str())],
                )
            }),
            prefix_matched_tokens: registry.counter_with(
                "wisdom_router_prefix_matched_tokens_total",
                "Prompt tokens found warm in the chosen replica's prefix cache.",
                labels,
            ),
            overflow_reroutes: registry.counter_with(
                "wisdom_router_overflow_reroutes_total",
                "Placements that spilled past a full first-choice replica.",
                labels,
            ),
            shed: registry.counter_with(
                "wisdom_router_shed_total",
                "Requests shed because every replica queue was full.",
                labels,
            ),
        }
    }
}

/// Routes requests across the replicas of a [`ReplicaPool`].
#[derive(Debug)]
pub struct Router {
    pool: Arc<ReplicaPool>,
    cfg: RouterConfig,
    rr: AtomicUsize,
    telemetry: Option<RouterTelemetry>,
}

impl Router {
    /// Wraps `pool` with routing `cfg`; pass telemetry to count decisions.
    pub fn new(
        pool: Arc<ReplicaPool>,
        cfg: RouterConfig,
        telemetry: Option<RouterTelemetry>,
    ) -> Router {
        Router {
            pool,
            cfg,
            rr: AtomicUsize::new(0),
            telemetry,
        }
    }

    /// The pool this router places requests on.
    pub fn pool(&self) -> &Arc<ReplicaPool> {
        &self.pool
    }

    /// The active routing policy.
    pub fn policy(&self) -> RoutePolicy {
        self.cfg.policy
    }

    /// Picks a replica for `prompt` without submitting anything. The
    /// returned placement is the *first choice*; submission may still
    /// spill to another replica if its queue is full.
    pub fn decide(&self, prompt: &[u32], max_new: usize) -> Placement {
        self.candidates(prompt, max_new).0[0]
    }

    /// All replicas in preference order (best first) for `prompt`, and why
    /// the first one leads.
    fn candidates(&self, prompt: &[u32], max_new: usize) -> (Vec<Placement>, Reason) {
        let n = self.pool.len();
        let unmatched = |replica: usize| Placement {
            replica,
            matched_tokens: 0,
        };
        match self.cfg.policy {
            RoutePolicy::RoundRobin => {
                let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
                let order = (0..n).map(|i| unmatched((start + i) % n)).collect();
                (order, Reason::Rendezvous)
            }
            RoutePolicy::Rendezvous => {
                let order = self.hashed_order(prompt, n);
                (
                    order.into_iter().map(unmatched).collect(),
                    Reason::Rendezvous,
                )
            }
            RoutePolicy::PrefixAffinity => {
                let replica = |i: usize| self.pool.replica(i);
                // Every replica runs the same model: one window length.
                let (matches, windows): (Vec<usize>, Vec<usize>) = (0..n)
                    .map(|i| replica(i).cached_prefix_tokens(prompt, max_new))
                    .unzip();
                let window = windows[0];
                let load: Vec<usize> = (0..n).map(|i| replica(i).load()).collect();
                // A resident prefix is followed only when it saves at least
                // half the prefill; anything shorter competes on load alone.
                let paying = |i: usize| {
                    if matches[i] > 0 && 2 * matches[i] >= window {
                        matches[i]
                    } else {
                        0
                    }
                };
                // Stable, so equals keep their rendezvous order.
                let mut order = self.hashed_order(prompt, n);
                order.sort_by_key(|&i| (Reverse(paying(i)), load[i]));
                let first = order[0];
                let reason = if paying(first) > 0 {
                    Reason::Affinity
                } else if load.iter().any(|&l| l > load[first]) {
                    Reason::LeastLoaded
                } else {
                    Reason::Rendezvous
                };
                let order = order
                    .into_iter()
                    .map(|i| Placement {
                        replica: i,
                        matched_tokens: matches[i],
                    })
                    .collect();
                (order, reason)
            }
        }
    }

    /// Replica indices by descending rendezvous score of the prompt head.
    fn hashed_order(&self, prompt: &[u32], n: usize) -> Vec<usize> {
        let head = &prompt[..prompt.len().min(self.cfg.hash_head)];
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (Reverse(rendezvous_score(head, i)), i));
        order
    }

    /// Places and submits `req`, spilling to later candidates when a queue
    /// is full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when every replica shed the request;
    /// [`SubmitError::ShutDown`] as soon as any replica reports it.
    pub fn submit(&self, req: DecodeRequest) -> Result<Pending, SubmitError> {
        let (candidates, reason) = self.candidates(&req.prompt, req.opts.max_new_tokens);
        self.place(&candidates, reason, |replica| {
            self.pool.replica(replica).submit(req.clone())
        })
    }

    /// Like [`Router::submit`] but returns a token stream alongside the
    /// final result.
    ///
    /// # Errors
    ///
    /// Same as [`Router::submit`].
    pub fn submit_streaming(&self, req: DecodeRequest) -> Result<StreamingPending, SubmitError> {
        let (candidates, reason) = self.candidates(&req.prompt, req.opts.max_new_tokens);
        self.place(&candidates, reason, |replica| {
            self.pool.replica(replica).submit_streaming(req.clone())
        })
    }

    /// Shared placement loop: walk candidates best-first, stop on the
    /// first replica that accepts. `first_choice` is why the first
    /// candidate leads.
    fn place<T>(
        &self,
        candidates: &[Placement],
        first_choice: Reason,
        mut submit: impl FnMut(usize) -> Result<T, SubmitError>,
    ) -> Result<T, SubmitError> {
        for (attempt, placement) in candidates.iter().enumerate() {
            match submit(placement.replica) {
                Ok(accepted) => {
                    if let Some(t) = &self.telemetry {
                        t.requests.inc();
                        t.prefix_matched_tokens.add(placement.matched_tokens as u64);
                        let reason = if attempt > 0 {
                            t.overflow_reroutes.inc();
                            Reason::Spill
                        } else {
                            first_choice
                        };
                        t.placements[reason as usize].inc();
                    }
                    return Ok(accepted);
                }
                Err(SubmitError::QueueFull) => continue,
                Err(SubmitError::ShutDown) => return Err(SubmitError::ShutDown),
            }
        }
        if let Some(t) = &self.telemetry {
            t.shed.inc();
        }
        Err(SubmitError::QueueFull)
    }

    /// Suggested client back-off when shedding: the smallest per-replica
    /// estimate of how long its current queue takes to drain, from queue
    /// depth × recent decode-token p50. Falls back to `fallback` seconds
    /// on a cold (never-decoded or uninstrumented) pool.
    pub fn retry_after_secs(&self, fallback: u64) -> u64 {
        self.pool
            .replicas()
            .iter()
            .map(|r| {
                estimate_retry_after(
                    r.stats().queue_depth,
                    r.decode_token_p50(),
                    fallback,
                    self.cfg.retry_after_max_secs,
                )
            })
            .min()
            .unwrap_or(fallback)
    }
}

/// FNV-1a 64 over the replica index then the head tokens — each replica
/// gets an independent score per key, the heart of rendezvous (HRW)
/// hashing.
fn rendezvous_score(head: &[u32], replica: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in (replica as u64).to_le_bytes() {
        eat(b);
    }
    for tok in head {
        for b in tok.to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// Rendezvous pick for `head` among `n` replicas: highest score wins,
/// ties to the lower index. Exposed for the stability proptests — adding
/// replica `n` only claims keys it now scores highest on, and removing
/// the last replica leaves every other key's winner unchanged.
pub fn rendezvous_pick(head: &[u32], n: usize) -> usize {
    (0..n)
        .max_by(|&a, &b| {
            rendezvous_score(head, a)
                .cmp(&rendezvous_score(head, b))
                .then(b.cmp(&a))
        })
        .unwrap_or(0)
}

/// Estimates how many seconds a shed client should wait before retrying:
/// the queued work ahead of it (`queue_depth` requests) times the recent
/// per-token decode p50, rounded up and clamped to `[1, max]`. With no
/// decode history yet (`p50` is `None`), returns `fallback` — a guess is
/// better than pretending an empty histogram means "instantly".
pub fn estimate_retry_after(queue_depth: usize, p50: Option<f64>, fallback: u64, max: u64) -> u64 {
    let Some(p50) = p50 else {
        return fallback.clamp(1, max);
    };
    let secs = (queue_depth as f64 * p50).ceil() as u64;
    secs.clamp(1, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use wisdom_core::{BatchConfig, Wisdom, WisdomConfig};

    fn wisdom() -> &'static Wisdom {
        static WISDOM: OnceLock<Wisdom> = OnceLock::new();
        WISDOM.get_or_init(|| Wisdom::train(&WisdomConfig::tiny(), None))
    }

    fn pool(n: usize) -> Arc<ReplicaPool> {
        pool_with_queue(n, 4)
    }

    fn pool_with_queue(n: usize, queue_depth: usize) -> Arc<ReplicaPool> {
        let cfg = BatchConfig {
            max_batch_size: 2,
            queue_depth,
            prefix_cache_bytes: 1 << 20,
            ..BatchConfig::default()
        };
        Arc::new(wisdom().replica_pool(cfg, n, &[]))
    }

    fn request(prompt: &str) -> DecodeRequest {
        wisdom().decode_request(&wisdom_core::CompletionRequest {
            context: String::new(),
            prompt: prompt.to_string(),
        })
    }

    #[test]
    fn estimator_falls_back_scales_and_clamps() {
        assert_eq!(estimate_retry_after(5, None, 3, 30), 3);
        assert_eq!(estimate_retry_after(0, None, 0, 30), 1);
        assert_eq!(estimate_retry_after(4, Some(0.5), 3, 30), 2);
        assert_eq!(estimate_retry_after(10, Some(0.01), 3, 30), 1);
        assert_eq!(estimate_retry_after(1000, Some(0.5), 3, 30), 30);
    }

    #[test]
    fn rendezvous_is_deterministic_and_in_range() {
        for n in 1..6 {
            for key in 0u32..40 {
                let head = [key, key + 1];
                let pick = rendezvous_pick(&head, n);
                assert!(pick < n);
                assert_eq!(pick, rendezvous_pick(&head, n));
            }
        }
    }

    #[test]
    fn affinity_routes_a_resend_to_the_warm_replica() {
        let pool = pool(2);
        let router = Router::new(Arc::clone(&pool), RouterConfig::default(), None);
        let req = request("install nginx and enable the service");
        // Warm exactly one replica, picked by the hash fallback.
        let first = router.decide(&req.prompt, req.opts.max_new_tokens);
        assert_eq!(first.matched_tokens, 0);
        let pending = router.submit(req.clone()).expect("submit");
        let _ = pending.wait();
        let second = router.decide(&req.prompt, req.opts.max_new_tokens);
        assert_eq!(second.replica, first.replica);
        assert!(
            second.matched_tokens > 0,
            "resend should find a warm prefix"
        );
        // A window at least half resident is worth a queue: the resend
        // stays even with work parked on its replica and the other idle.
        let warm = pool.replica(first.replica);
        warm.set_admission_paused(true);
        let parked = warm.submit(req.clone()).expect("queue has room");
        assert_eq!(
            (warm.load(), pool.replica(1 - first.replica).load()),
            (1, 0)
        );
        let (order, reason) = router.candidates(&req.prompt, req.opts.max_new_tokens);
        assert_eq!(
            (order[0].replica, reason),
            (first.replica, Reason::Affinity)
        );
        // A prompt sharing only the `- name: ` head with it is not: it
        // takes the idle replica, and says what it found there.
        let cold = request("create user deploy");
        let (order, reason) = router.candidates(&cold.prompt, cold.opts.max_new_tokens);
        let (head, _) = warm.cached_prefix_tokens(&cold.prompt, cold.opts.max_new_tokens);
        assert!(head > 0, "the common head is resident on the warm replica");
        assert_eq!(
            (order[0], reason),
            (
                Placement {
                    replica: 1 - first.replica,
                    matched_tokens: 0
                },
                Reason::LeastLoaded
            )
        );
        assert_eq!(order[1].matched_tokens, head);
        warm.set_admission_paused(false);
        let _ = parked.wait();
        pool.shutdown();
    }

    #[test]
    fn cold_prompts_sharing_only_the_head_land_on_both_replicas() {
        let pool = pool_with_queue(2, 64);
        let registry = Registry::new();
        let telemetry = RouterTelemetry::register(&registry, "prefix_affinity");
        let router = Router::new(
            Arc::clone(&pool),
            RouterConfig::default(),
            Some(telemetry.clone()),
        );
        // One replica holds the common head, the other nothing.
        let first = request("install nginx and enable the service");
        let warm = router
            .decide(&first.prompt, first.opts.max_new_tokens)
            .replica;
        let _ = router.submit(first).expect("submit").wait();
        // 64 distinct prompts in flight at once: admission is paused while
        // they are placed, so every decision sees the queues before it.
        pool.set_admission_paused(true);
        let pending: Vec<Pending> = (0..64u8)
            .map(|i| {
                // Two letters of its own first: no pair shares more than
                // the head and a letter.
                let (a, b) = ((b'a' + i % 26) as char, (b'a' + i / 26) as char);
                router
                    .submit(request(&format!("{a}{b} package install and start")))
                    .expect("queues have room")
            })
            .collect();
        let queued = [0, 1].map(|i| pool.replica(i).load());
        assert_eq!(queued[0] + queued[1], 64);
        assert!(
            queued.iter().all(|q| (26..=38).contains(q)),
            "cold prompts split {queued:?}; replica {warm} holds the common head"
        );
        pool.set_admission_paused(false);
        for p in pending {
            let _ = p.wait();
        }
        // Both decode workers admitted their share.
        for (i, stats) in pool.stats().iter().enumerate() {
            let cache = stats.prefix_cache.expect("cache on");
            let admitted = cache.hits + cache.misses - u64::from(i == warm);
            assert_eq!(admitted, queued[i] as u64, "replica {i}");
        }
        let placed = |reason: Reason| telemetry.placements[reason as usize].get();
        assert_eq!(placed(Reason::Affinity) + placed(Reason::Spill), 0);
        assert_eq!(placed(Reason::LeastLoaded) + placed(Reason::Rendezvous), 65);
        assert!(
            placed(Reason::LeastLoaded) >= 26,
            "load decided when it differed"
        );
        pool.shutdown();
    }

    #[test]
    fn round_robin_cycles_over_replicas() {
        let pool = pool(3);
        let cfg = RouterConfig {
            policy: RoutePolicy::RoundRobin,
            ..RouterConfig::default()
        };
        let router = Router::new(Arc::clone(&pool), cfg, None);
        let picks: Vec<usize> = (0..6)
            .map(|_| router.decide(&[1, 2, 3], 4).replica)
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        pool.shutdown();
    }

    #[test]
    fn full_first_choice_spills_and_total_outage_sheds() {
        let pool = pool(2);
        let registry = Registry::new();
        let telemetry = RouterTelemetry::register(&registry, "rendezvous");
        let cfg = RouterConfig {
            policy: RoutePolicy::Rendezvous,
            ..RouterConfig::default()
        };
        let router = Router::new(Arc::clone(&pool), cfg, Some(telemetry.clone()));
        let req = request("restart the docker daemon");
        // Saturate the hash-preferred replica: admission paused so the
        // worker cannot drain mid-test, then fill its bounded queue. The
        // parked jobs resolve to empty outputs at shutdown.
        let first = router.decide(&req.prompt, req.opts.max_new_tokens).replica;
        let mut parked = Vec::new();
        let fill = |replica: usize, parked: &mut Vec<wisdom_core::Pending>| {
            pool.replica(replica).set_admission_paused(true);
            loop {
                match pool.replica(replica).submit(req.clone()) {
                    Ok(p) => parked.push(p),
                    Err(SubmitError::QueueFull) => break,
                    Err(e) => panic!("unexpected submit error: {e:?}"),
                }
            }
        };
        fill(first, &mut parked);
        let pending = router.submit(req.clone()).expect("other replica accepts");
        let _ = pending.wait();
        assert_eq!(telemetry.overflow_reroutes.get(), 1);
        assert_eq!(telemetry.placements[Reason::Spill as usize].get(), 1);
        // Saturate the survivor too: now every candidate sheds.
        fill(1 - first, &mut parked);
        assert!(matches!(router.submit(req), Err(SubmitError::QueueFull)));
        assert_eq!(telemetry.shed.get(), 1);
        pool.shutdown();
        for p in parked {
            assert!(p.wait().is_empty(), "parked jobs resolve empty at shutdown");
        }
    }

    #[test]
    fn retry_after_uses_fallback_on_a_cold_pool() {
        let pool = pool(1);
        let router = Router::new(Arc::clone(&pool), RouterConfig::default(), None);
        assert_eq!(router.retry_after_secs(3), 3);
        pool.shutdown();
    }
}
