//! Shared helpers for the benchmark harness.
//!
//! Each bench measures the representative hot operations of one paper
//! table or serving layer with Criterion; the `experiments` example prints
//! the tables themselves. See `benches/` for the per-table targets.

use wisdom_eval::Profile;

/// The profile used by benches: small enough to iterate, large enough to be
/// representative.
pub fn bench_profile() -> Profile {
    Profile::test()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_profile_is_small() {
        let p = bench_profile();
        assert!(p.eval_max_samples <= 32);
    }
}
