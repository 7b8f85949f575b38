//! Hypercube bounds: Propositions 1, 2 and Theorem 4 (§3).

/// Predictions of Proposition 1 for `N = 2^k − 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prop1 {
    /// Playback begins after slot `k + 1`.
    pub playback_delay: u64,
    /// Two packets resident between slots.
    pub resident_buffer: usize,
    /// Each node communicates with its `k` cube neighbors only.
    pub neighbors: usize,
}

/// Proposition 1 for a `k`-cube.
pub fn prop1(k: usize) -> Prop1 {
    Prop1 {
        playback_delay: k as u64 + 1,
        resident_buffer: 2,
        neighbors: k,
    }
}

/// The §3.2 greedy cube decomposition `k_m = ⌊log₂(rem + 1)⌋`.
pub fn decompose(n: usize) -> Vec<usize> {
    assert!(n >= 1);
    let mut ks = Vec::new();
    let mut rem = n;
    while rem > 0 {
        let k = usize::BITS as usize - 1 - (rem + 1).leading_zeros() as usize;
        ks.push(k);
        rem -= (1 << k) - 1;
    }
    ks
}

/// Proposition 2: worst-case playback delay of the chained-hypercube
/// scheme — the last cube's `Σ_{i≤m}(k_i + 1)`, which is `O(log² N)`.
pub fn chained_worst_delay(n: usize) -> u64 {
    decompose(n).iter().map(|&k| k as u64 + 1).sum()
}

/// Exact predicted average delay of the chained scheme:
/// `Σ_m size_m · delay_m / N`.
pub fn chained_avg_delay(n: usize) -> f64 {
    let mut start = 0u64;
    let mut total = 0f64;
    for k in decompose(n) {
        let delay = start + k as u64 + 1;
        total += delay as f64 * ((1u64 << k) - 1) as f64;
        start += k as u64 + 1;
    }
    total / n as f64
}

/// Theorem 4: the average delay is at most `2 log₂ N` (stated for large
/// `N`; tiny populations carry a `+1` constant).
pub fn thm4_avg_bound(n: usize) -> f64 {
    2.0 * (n.max(2) as f64).log2()
}

/// §3.2 end: with a `d`-capable source and `d` balanced groups, the worst
/// delay is the slower of the chains over `⌈N/d⌉` and `⌊N/d⌋` nodes (a
/// smaller chain can decompose into more cubes: 6 = 3 + 3 against 7).
pub fn grouped_worst_delay(n: usize, d: usize) -> u64 {
    assert!(d >= 1 && d <= n);
    chained_worst_delay(n / d).max(chained_worst_delay(n.div_ceil(d)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prop1_predictions() {
        let p = prop1(3);
        assert_eq!(p.playback_delay, 4);
        assert_eq!(p.resident_buffer, 2);
        assert_eq!(p.neighbors, 3);
    }

    #[test]
    fn decompose_covers_population() {
        for n in 1..2000 {
            let ks = decompose(n);
            let total: usize = ks.iter().map(|&k| (1usize << k) - 1).sum();
            assert_eq!(total, n);
            // Strictly non-increasing cube sizes.
            for w in ks.windows(2) {
                assert!(w[0] >= w[1], "N={n}: {ks:?}");
            }
        }
    }

    #[test]
    fn special_n_is_one_cube() {
        for k in 1..16 {
            assert_eq!(decompose((1 << k) - 1), vec![k]);
            assert_eq!(chained_worst_delay((1 << k) - 1), k as u64 + 1);
        }
    }

    #[test]
    fn worst_delay_is_order_log_squared() {
        // Σ(k_i + 1) ≤ (log₂(N+1) + 1)² since k's strictly decrease… the
        // paper's O(log²N); check the concrete quadratic envelope.
        for n in [10usize, 100, 1000, 10_000, 100_000] {
            let lg = ((n + 1) as f64).log2();
            let bound = (lg + 1.0) * (lg + 1.0);
            assert!(
                (chained_worst_delay(n) as f64) <= bound,
                "N={n}: {} > {bound}",
                chained_worst_delay(n)
            );
        }
    }

    #[test]
    fn theorem4_holds_across_populations() {
        for n in 2..=4096usize {
            let avg = chained_avg_delay(n);
            assert!(
                avg <= thm4_avg_bound(n) + 1.0,
                "N={n}: avg {avg:.3} > 2log₂N = {:.3}",
                thm4_avg_bound(n)
            );
        }
    }

    #[test]
    fn grouping_reduces_worst_delay() {
        assert!(grouped_worst_delay(1000, 4) <= chained_worst_delay(1000));
        assert_eq!(grouped_worst_delay(28, 4), chained_worst_delay(7));
        // 13 = 7 + 6 receivers: the 6-chain's two 2-cubes are slower.
        assert_eq!((chained_worst_delay(7), chained_worst_delay(6)), (4, 6));
        assert_eq!(grouped_worst_delay(13, 2), 6);
    }

    #[test]
    fn matches_hypercube_crate_predictions() {
        for n in [1usize, 5, 7, 10, 33, 100, 500] {
            let s = clustream_hypercube::HypercubeStream::new(n).unwrap();
            let worst = s.cubes().map(|c| c.predicted_delay()).max().unwrap();
            assert_eq!(worst, chained_worst_delay(n), "N={n}");
            assert!((s.predicted_avg_delay() - chained_avg_delay(n)).abs() < 1e-9);
        }
    }
}
