//! The statistics every metric is built from: medians, geometric means
//! over items, shares, a seeded item order and the output digest.

/// Median of `values`; `None` when empty. The mean of the two middle values
/// for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Geometric mean of the positive values; `None` when there are none.
/// Non-positive and non-finite values are skipped, so one degenerate item
/// cannot zero out or poison the mean.
pub fn geomean(values: &[f64]) -> Option<f64> {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| v.is_finite() && **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        None
    } else {
        Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The order in which one pass visits `n` items: a Fisher–Yates shuffle
/// driven by `seed` and the pass number. The same seed always gives the same
/// orders; the items themselves never depend on it.
pub fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut state = seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// A 64-bit FNV-1a digest of a program's outputs. Floats enter by their bit
/// pattern, so two runs digest equal only if every output is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // One slow repeat does not move the median set-up time.
        assert_eq!(median(&[10.0, 10.0, 10.0, 900.0, 10.0]), Some(10.0));
    }

    #[test]
    fn geomean_is_scale_free_and_skips_degenerate_values() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[0.0, f64::NAN]), None);
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12, "{g}");
        // Doubling one item moves the mean by the same factor wherever the
        // item sits on the scale.
        let small = geomean(&[2.0, 100.0]).unwrap() / g;
        let large = geomean(&[1.0, 200.0]).unwrap() / g;
        assert!((small - large).abs() < 1e-12);
        assert!((geomean(&[4.0, 0.0, -1.0, 9.0]).unwrap() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn shares_count_failures_against_attempts() {
        assert_eq!(share(0, 0), 0.0);
        assert_eq!(share(0, 10), 0.0);
        assert_eq!(share(3, 12), 0.25);
        assert_eq!(share(12, 12), 1.0);
    }

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = pass_order(20, 7, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_eq!(a, pass_order(20, 7, 0));
        assert_ne!(a, pass_order(20, 8, 0));
        assert_ne!(a, pass_order(20, 7, 1));
        assert!(pass_order(0, 1, 0).is_empty());
    }

    #[test]
    fn digest_sees_every_bit_and_the_order() {
        let d = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::default();
            f(&mut d);
            d.value()
        };
        let base = d(&|x| {
            x.u64(1).f64(2.5).str("ab");
        });
        assert_eq!(
            base,
            d(&|x| {
                x.u64(1).f64(2.5).str("ab");
            })
        );
        assert_ne!(
            base,
            d(&|x| {
                x.u64(1).f64(2.5 + f64::EPSILON * 2.0).str("ab");
            })
        );
        assert_ne!(
            base,
            d(&|x| {
                x.f64(2.5).u64(1).str("ab");
            })
        );
        // Length prefixes keep ("a","bc") apart from ("ab","c").
        assert_ne!(
            d(&|x| {
                x.str("a").str("bc");
            }),
            d(&|x| {
                x.str("ab").str("c");
            })
        );
    }
}
