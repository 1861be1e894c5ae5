//! Scalar metric primitives: atomic counters, gauges, and the scoped
//! latency [`Timer`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::histogram::Histogram;

/// A monotonically non-decreasing event count. All operations are single
/// relaxed atomics; cross-thread increments are never lost.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depth, batch occupancy, cache
/// bytes). Stored as `f64` bits in one atomic word.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative). Lock-free via compare-and-swap, so
    /// concurrent adds are never lost.
    pub fn add(&self, delta: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Subtracts `delta`.
    pub fn sub(&self, delta: f64) {
        self.add(-delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A span guard: measures from construction to [`Timer::stop`] (or drop)
/// and records the elapsed seconds into a [`Histogram`].
///
/// # Examples
///
/// ```
/// use wisdom_telemetry::{Histogram, Timer};
/// use std::sync::Arc;
///
/// let h = Arc::new(Histogram::latency());
/// {
///     let _span = Timer::start(Arc::clone(&h));
///     // ... timed work ...
/// }
/// assert_eq!(h.snapshot().count(), 1);
/// ```
#[derive(Debug)]
pub struct Timer {
    histogram: Arc<Histogram>,
    started: Instant,
    armed: bool,
}

impl Timer {
    /// Starts timing into `histogram`.
    pub fn start(histogram: Arc<Histogram>) -> Timer {
        Timer {
            histogram,
            started: Instant::now(),
            armed: true,
        }
    }

    /// Stops the span now, records it, and returns the elapsed time.
    pub fn stop(mut self) -> Duration {
        let elapsed = self.started.elapsed();
        self.histogram.observe(elapsed.as_secs_f64());
        self.armed = false;
        elapsed
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if self.armed {
            self.histogram.observe(self.started.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn counter_concurrent_increments_are_exact() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_set_add_sub() {
        let g = Gauge::new();
        g.set(2.5);
        g.add(1.0);
        g.sub(0.5);
        assert!((g.get() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn gauge_concurrent_adds_are_exact() {
        let g = Arc::new(Gauge::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        g.add(1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!((g.get() - 80_000.0).abs() < 1e-9);
    }

    #[test]
    fn timer_records_on_drop_and_stop() {
        let h = Arc::new(Histogram::latency());
        drop(Timer::start(Arc::clone(&h)));
        let d = Timer::start(Arc::clone(&h)).stop();
        assert!(d.as_secs_f64() >= 0.0);
        assert_eq!(h.snapshot().count(), 2);
    }
}
