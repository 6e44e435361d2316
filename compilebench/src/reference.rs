//! Reference work: a fixed piece of benchmark-owned computation, timed
//! throughout every run, that puts the run's wall-clock figures on the scale
//! of one machine speed.
//!
//! On a shared host the speed of the same code drifts by 20 to 30% over
//! minutes, so whole runs are fast or slow throughout, and no statistic
//! over a run's own samples can remove that. The reference work runs
//! between the ops, sees the same drift, and uses none of the program's
//! code, so a change to the program moves the scaled figures as much as the
//! raw ones.
//!
//! How much a drift slows code depends on where its data lives, so each
//! workload is scaled by the reference work that moves with it:
//!
//! - [`Kind::InCache`] for `paper-map8` (8 MiB peak RSS). In 5-second
//!   windows of eight 40 s runs, the ops' speed correlated 0.89 with
//!   sorted lookups in L1, 0.87 with small allocations, 0.73 with the
//!   in-memory mix below and 0.61 with a small dense elimination. Scaling
//!   by the first two cut the spread of five runs' compile times from
//!   0.12 (in-memory mix) to 0.03.
//! - [`Kind::InMemory`] for `synth-scale` (36 MiB) and `dse-sweep`
//!   (33 MiB). The in-cache mix moved about twice as much as
//!   `synth-scale` did and raised its spread from 0.04 to 0.14.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Which reference work a workload is scaled by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Sorted lookups in L1 and small allocations: [`in_cache`].
    InCache,
    /// A sort, hash-map updates, a pointer chase through 1 MiB and a dense
    /// matrix-vector loop: [`in_memory`].
    InMemory,
}

impl Kind {
    /// The median time of one run of this reference work on the machine
    /// the benchmark was tuned on (a 2-vCPU Xeon VM), in milliseconds.
    /// Scaled figures read as wall time on a machine whose median run of
    /// the reference work takes this long.
    pub fn reference_ms(self) -> f64 {
        match self {
            Kind::InCache => 6.5,
            Kind::InMemory => 6.1,
        }
    }

    /// Runs the reference work once and returns its wall time, milliseconds.
    pub fn time_once(self) -> f64 {
        let start = Instant::now();
        std::hint::black_box(match self {
            Kind::InCache => in_cache(),
            Kind::InMemory => in_memory(),
        });
        start.elapsed().as_secs_f64() * 1000.0
    }
}

/// About equal parts of [`sorted_lookups`] and [`small_allocations`]. Its
/// result depends on every step, so none of it can be optimized away.
pub fn in_cache() -> u64 {
    sorted_lookups(150) ^ small_allocations(14_000)
}

/// A sort of 64 Ki keys, hash-map updates, a pointer chase through a 1 MiB
/// permutation and a 160 × 160 matrix-vector loop.
pub fn in_memory() -> u64 {
    let mut state = 0x1234_5678_u64;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut keys: Vec<u64> = (0..1 << 16).map(|_| next()).collect();
    keys.sort_unstable();
    let mut buckets: HashMap<u64, u64> = HashMap::with_capacity(8192);
    for key in keys.iter().step_by(2) {
        *buckets.entry(key % 8191).or_insert(0) += key >> 7;
    }
    let mut perm: Vec<u32> = (0..1u32 << 18).collect();
    for i in (1..perm.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let mut at = 0u32;
    for _ in 0..1 << 17 {
        at = perm[at as usize];
    }
    let m = 160;
    let a: Vec<f64> = (0..m * m)
        .map(|k| ((k * 7919) % 1000) as f64 / 1000.0)
        .collect();
    let mut v = vec![1.0f64; m];
    for _ in 0..40 {
        let w: Vec<f64> = a
            .chunks_exact(m)
            .map(|row| row.iter().zip(&v).map(|(x, y)| x * y).sum())
            .collect();
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        v = w.into_iter().map(|x| x / norm).collect();
    }
    buckets.values().fold(0, |acc, &b| acc ^ b) ^ u64::from(at) ^ v[0].to_bits()
}

/// Sorts 1024 pseudo-random keys and binary-searches them 512 times, for
/// `rounds` rounds: branchy integer work that stays in L1, like the inner
/// loops of the partitioner and the simplex.
fn sorted_lookups(rounds: u64) -> u64 {
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let mut keys = [0u32; 1024];
    let mut acc = 0u64;
    for round in 0..rounds {
        for key in keys.iter_mut() {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *key = (state >> 40) as u32;
        }
        keys.sort_unstable();
        for q in 0..512u32 {
            let probe = q.wrapping_mul(2_654_435_761) >> 8;
            acc += match keys.binary_search(&probe) {
                Ok(i) => i as u64,
                Err(i) => i as u64 ^ round,
            };
        }
    }
    acc
}

/// Fills and drains an ordered map of small vectors: many small allocations
/// and pointer-linked nodes, like the graph and model building in every
/// layer.
fn small_allocations(n: u64) -> u64 {
    let mut map = BTreeMap::new();
    let mut lists: Vec<Vec<u32>> = Vec::new();
    let mut acc = 0u64;
    for i in 0..n {
        let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        map.insert(key, vec![i as u32; (i % 7 + 1) as usize]);
        if i % 3 == 0 {
            lists.push((0..(i % 13) as u32).collect());
        }
        if i % 5 == 0 {
            if let Some((_, v)) = map.pop_first() {
                acc += v.len() as u64;
            }
        }
    }
    acc + lists.iter().map(|l| l.len() as u64).sum::<u64>() + map.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic_and_timed() {
        assert_eq!(in_cache(), in_cache());
        assert_eq!(in_memory(), in_memory());
        for kind in [Kind::InCache, Kind::InMemory] {
            assert!(kind.time_once() > 0.0);
            assert!(kind.reference_ms() > 0.0);
        }
    }
}
