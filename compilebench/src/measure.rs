//! The timing loop: passes over a workload's items until the run's time is
//! spent.

use std::time::{Duration, Instant};

use crate::reference::Kind;
use crate::stats::{median, pass_order};

/// Within one pass, an item whose op is shorter than this is repeated back
/// to back until its repeats cover this much time, so short items get
/// enough samples.
const MIN_ITEM_MS: f64 = 5.0;
/// Upper limit on back-to-back repeats of one item within a pass.
const MAX_REPEATS: usize = 40;
/// Set-up slots per pass. Set-up is timed in windows spread through the run
/// like the items, so `setup_s` sees the same machine load as the ops. On a
/// shared 2-vCPU VM whose speed drifts over seconds, timing set-up in one
/// burst at the start of each run gave a run-to-run IQR/median of 0.30
/// (paper-map8) and 0.33 (synth-scale) over ten runs.
const SETUP_SLOTS: usize = 4;
/// A set-up slot first runs set-up once untimed, then repeats it timed until
/// the timed repeats cover this much time (at most [`MAX_REPEATS`] times).
/// The first set-up after a large compile pays for page faults and cold
/// caches the later ones do not, so it is left out. `setup_s` is the median
/// of every timed repeat.
const MIN_SETUP_SLOT_MS: f64 = 100.0;

/// Milliseconds since `since`.
pub fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1000.0
}

pub struct Measured<T> {
    /// Every result per item, in the order they ran.
    pub results: Vec<Vec<T>>,
    /// Every timed (warm) set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Every timed run of the reference work, milliseconds: one at the
    /// start of every slot, item or set-up, so they spread through the run
    /// like the ops.
    pub reference_ms: Vec<f64>,
    pub reference: Kind,
    pub passes: u64,
}

impl<T> Measured<T> {
    /// The factor that puts this run's wall times on the scale of the
    /// reference machine: the reference work's time there over its median
    /// in this run. The ops' times are medians too, so both sides see the
    /// same mix of fast and slow moments.
    pub fn speed_scale(&self) -> f64 {
        self.reference.reference_ms()
            / median(&self.reference_ms).expect("every slot runs the reference work")
    }
}

/// Runs passes over items `0..n` and [`SETUP_SLOTS`] set-up slots, each
/// pass in the seeded order of [`pass_order`] and each slot after one run of
/// the `reference` work, and starts another pass only
/// if it is expected to end within `budget` (the first pass always runs).
/// `op(i)` runs item `i` once and returns its wall time in milliseconds with
/// its result; `setup()` repeats the workload's set-up. The run's cold first
/// set-up is the caller's, and is not timed here.
pub fn measure<T>(
    n: usize,
    seed: u64,
    budget: Duration,
    reference: Kind,
    mut setup: impl FnMut(),
    mut op: impl FnMut(usize) -> (f64, T),
) -> Measured<T> {
    let start = Instant::now();
    let mut measured = Measured {
        results: (0..n).map(|_| Vec::new()).collect(),
        setup_s: Vec::new(),
        reference_ms: Vec::new(),
        reference,
        passes: 0,
    };
    loop {
        let pass_start = Instant::now();
        for slot in pass_order(n + SETUP_SLOTS, seed, measured.passes) {
            measured.reference_ms.push(reference.time_once());
            if slot < n {
                let mut spent = 0.0;
                for _ in 0..MAX_REPEATS {
                    let (ms, result) = op(slot);
                    measured.results[slot].push(result);
                    spent += ms;
                    if spent >= MIN_ITEM_MS {
                        break;
                    }
                }
            } else {
                setup();
                let mut spent_s = 0.0;
                for _ in 0..MAX_REPEATS {
                    let t = Instant::now();
                    setup();
                    let s = t.elapsed().as_secs_f64();
                    measured.setup_s.push(s);
                    spent_s += s;
                    if spent_s * 1000.0 >= MIN_SETUP_SLOT_MS {
                        break;
                    }
                }
            }
        }
        measured.passes += 1;
        if start.elapsed() + pass_start.elapsed() > budget {
            return measured;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pass_when_there_is_no_budget_and_short_items_repeat() {
        let mut calls = vec![0usize; 3];
        let mut setups = 0;
        let measured = measure(
            3,
            1,
            Duration::ZERO,
            Kind::InCache,
            || setups += 1,
            |i| {
                calls[i] += 1;
                // Item 0 is "long", items 1 and 2 are "short".
                (if i == 0 { 100.0 } else { 2.0 }, i)
            },
        );
        assert_eq!(measured.passes, 1);
        assert_eq!(measured.results[0], vec![0]);
        assert_eq!(measured.results[1], vec![1, 1, 1]);
        assert_eq!(calls, vec![1, 3, 3]);
        // Every set-up slot warms up once untimed, then times a fast set-up
        // as often as allowed.
        assert_eq!(measured.setup_s.len(), SETUP_SLOTS * MAX_REPEATS);
        assert_eq!(measured.reference_ms.len(), 3 + SETUP_SLOTS);
        assert_eq!(setups, SETUP_SLOTS * (1 + MAX_REPEATS));
    }
}
