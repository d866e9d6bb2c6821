//! Empirical cumulative distribution functions (Figure 4a).

/// An empirical CDF built from a set of samples.
///
/// # Examples
///
/// ```
/// use odr_metrics::Cdf;
///
/// let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
/// assert_eq!(cdf.fraction_at_or_below(10.0), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Default for Cdf {
    /// The empty CDF ([`Cdf::from_samples`] of nothing): zero samples,
    /// every quantile 0.0. The identity of [`Cdf::merge`].
    fn default() -> Self {
        Cdf::from_samples([])
    }
}

impl Cdf {
    /// Builds a CDF from an iterator of samples; non-finite values are
    /// discarded.
    #[must_use]
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        Cdf { sorted }
    }

    /// Wraps samples already finite and sorted by `f64::total_cmp`.
    pub(crate) fn from_sorted(sorted: Vec<f64>) -> Self {
        debug_assert!(sorted.is_sorted_by(|a, b| a.total_cmp(b).is_le()));
        Cdf { sorted }
    }

    /// Returns the number of underlying samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if the CDF was built from no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Returns `P(X <= x)`, or 0.0 for an empty CDF.
    #[must_use]
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Returns the value below which fraction `q` (in `[0, 1]`) of the mass
    /// lies, or 0.0 for an empty CDF.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx =
            ((q * (self.sorted.len() - 1) as f64).round() as usize).min(self.sorted.len() - 1);
        self.sorted[idx]
    }

    /// Returns the underlying samples in sorted (`f64::total_cmp`) order.
    ///
    /// Exposed so tests and aggregation layers can compare CDFs exactly;
    /// the canonical order makes two CDFs over the same multiset of
    /// samples bit-identical.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Merges two CDFs into the CDF of the combined sample multiset.
    ///
    /// The merge is performed as a linear sorted-merge under
    /// [`f64::total_cmp`], so it is **exactly** associative and
    /// commutative (the result is the canonically ordered multiset
    /// union), and agrees bit-for-bit with
    /// [`Cdf::from_samples`] over the concatenated inputs. This is the
    /// property that lets a fleet of simulations build per-session CDFs
    /// independently and reduce them in any grouping without changing
    /// the final report.
    ///
    /// # Examples
    ///
    /// ```
    /// use odr_metrics::Cdf;
    ///
    /// let a = Cdf::from_samples([1.0, 3.0]);
    /// let b = Cdf::from_samples([2.0, 4.0]);
    /// let merged = a.merge(&b);
    /// assert_eq!(merged.len(), 4);
    /// assert_eq!(merged.fraction_at_or_below(2.0), 0.5);
    /// ```
    #[must_use]
    pub fn merge(&self, other: &Cdf) -> Cdf {
        let (a, b) = (&self.sorted, &other.sorted);
        let mut sorted = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].total_cmp(&b[j]).is_le() {
                sorted.push(a[i]);
                i += 1;
            } else {
                sorted.push(b[j]);
                j += 1;
            }
        }
        sorted.extend_from_slice(&a[i..]);
        sorted.extend_from_slice(&b[j..]);
        Cdf { sorted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf() {
        let cdf = Cdf::from_samples([]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
        assert_eq!(cdf.quantile(0.5), 0.0);
    }

    #[test]
    fn fraction_counts_ties() {
        let cdf = Cdf::from_samples([1.0, 1.0, 1.0, 2.0]);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.75);
    }

    #[test]
    fn quantile_endpoints() {
        let cdf = Cdf::from_samples([5.0, 1.0, 3.0]);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 5.0);
    }

    #[test]
    fn drops_non_finite() {
        let cdf = Cdf::from_samples([f64::NAN, 1.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 1);
    }

    fn bits(c: &Cdf) -> Vec<u64> {
        c.samples().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn merge_agrees_with_single_pass() {
        let a = Cdf::from_samples([3.0, 1.0, 2.0]);
        let b = Cdf::from_samples([2.5, 0.5]);
        let merged = a.merge(&b);
        let direct = Cdf::from_samples([3.0, 1.0, 2.0, 2.5, 0.5]);
        assert_eq!(bits(&merged), bits(&direct));
        assert_eq!(merged.quantile(0.0), 0.5);
        assert_eq!(merged.quantile(1.0), 3.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = Cdf::from_samples([1.0, 2.0]);
        let e = Cdf::from_samples([]);
        assert_eq!(bits(&a.merge(&e)), bits(&a));
        assert_eq!(bits(&e.merge(&a)), bits(&a));
        assert!(e.merge(&e).is_empty());
    }

    #[test]
    fn merge_is_commutative_and_associative_with_signed_zeros() {
        // total_cmp puts -0.0 before 0.0, so even signed zeros reduce to
        // one canonical order regardless of grouping.
        let a = Cdf::from_samples([0.0, 1.0]);
        let b = Cdf::from_samples([-0.0, 0.5]);
        let c = Cdf::from_samples([0.0, -0.0]);
        assert_eq!(bits(&a.merge(&b)), bits(&b.merge(&a)));
        assert_eq!(bits(&a.merge(&b).merge(&c)), bits(&a.merge(&b.merge(&c))));
    }
}
