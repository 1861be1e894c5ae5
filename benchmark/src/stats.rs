//! Order statistics over raw samples, and the process's memory high-water
//! mark. Percentiles are nearest-rank on the sorted samples, so every
//! reported value is one that was actually measured.

/// Nearest-rank `q`-quantile (`0.0..=1.0`) of `samples`; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `samples` (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak memory read at a pinned amount of work.
///
/// A run measures for a fixed time, and the serving caches grow with every
/// request served, so the high-water mark at the *end* of a run rises with
/// the program's speed. Reading it when the `at`-th operation completes
/// compares memory at equal work; a run that never gets that far reports
/// its final high-water mark.
pub struct RssAt {
    at: usize,
    seen: std::sync::atomic::AtomicUsize,
    bits: std::sync::atomic::AtomicU64,
}

impl RssAt {
    pub fn new(at: usize) -> RssAt {
        RssAt {
            at,
            seen: std::sync::atomic::AtomicUsize::new(0),
            bits: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Counts one completed operation (from any thread).
    pub fn tick(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        // Relaxed: the counter and the reading publish no other data.
        if self.seen.fetch_add(1, Relaxed) + 1 == self.at {
            self.bits.store(peak_rss_mb().to_bits(), Relaxed);
        }
    }

    pub fn mb(&self) -> f64 {
        match self.bits.load(std::sync::atomic::Ordering::Relaxed) {
            0 => peak_rss_mb(),
            bits => f64::from_bits(bits),
        }
    }
}

/// FNV-1a 64 over `bytes`, continuing from `state`.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// The FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_measured_values() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.95), 5.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
