//! Fixed-bin histograms backing the paper's figures: the 1-D similarity
//! distributions (Fig. 2), the 2-D depth×breadth heatmap (Fig. 1), and
//! the per-depth children counts (Fig. 8).

use serde::{Deserialize, Serialize};

/// A 1-D histogram over `[lo, hi)` with `bins` equal-width bins.
/// Values at exactly `hi` land in the last bin; values outside the range
/// are clamped into the boundary bins (measurement data has hard bounds,
/// e.g. similarity ∈ [0, 1]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// A histogram over `[lo, hi)` with `bins` bins. Panics if `bins == 0`
    /// or `hi <= lo` — both are programming errors, not data errors.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// The bin index a value falls into.
    pub fn bin_of(&self, x: f64) -> usize {
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = (t * bins as f64).floor();
        (idx.max(0.0) as usize).min(bins - 1)
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        let b = self.bin_of(x);
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Raw counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Relative frequencies (empty histogram → all zeros).
    pub fn relative(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Midpoint of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// Merge another compatible histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// A 2-D histogram over integer coordinates, used for the depth×breadth
/// distribution (Fig. 1). Coordinates beyond the configured maxima are
/// clamped into the last row/column (the paper similarly caps its axes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram2D {
    max_x: usize,
    max_y: usize,
    counts: Vec<u64>, // row-major: y * (max_x+1) + x
    total: u64,
}

impl Histogram2D {
    /// A grid covering `0..=max_x` × `0..=max_y`.
    pub fn new(max_x: usize, max_y: usize) -> Self {
        Histogram2D {
            max_x,
            max_y,
            counts: vec![0; (max_x + 1) * (max_y + 1)],
            total: 0,
        }
    }

    /// Record one `(x, y)` observation (clamped).
    pub fn push(&mut self, x: usize, y: usize) {
        let x = x.min(self.max_x);
        let y = y.min(self.max_y);
        self.counts[y * (self.max_x + 1) + x] += 1;
        self.total += 1;
    }

    /// Count at `(x, y)`.
    pub fn get(&self, x: usize, y: usize) -> u64 {
        self.counts[y.min(self.max_y) * (self.max_x + 1) + x.min(self.max_x)]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Grid width (x cells).
    pub fn width(&self) -> usize {
        self.max_x + 1
    }

    /// Grid height (y cells).
    pub fn height(&self) -> usize {
        self.max_y + 1
    }

    /// Merge a compatible grid.
    pub fn merge(&mut self, other: &Histogram2D) {
        assert_eq!(self.counts.len(), other.counts.len(), "grid shape mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_range() {
        let h = Histogram::new(0.0, 1.0, 10);
        assert_eq!(h.bin_of(0.0), 0);
        assert_eq!(h.bin_of(0.05), 0);
        assert_eq!(h.bin_of(0.1), 1);
        assert_eq!(h.bin_of(0.95), 9);
        assert_eq!(h.bin_of(1.0), 9); // top edge folds into last bin
    }

    #[test]
    fn out_of_range_clamped() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.bin_of(-3.0), 0);
        assert_eq!(h.bin_of(7.0), 3);
    }

    #[test]
    fn relative_sums_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 5);
        for x in [0.1, 0.3, 0.5, 0.7, 0.9, 0.95] {
            h.push(x);
        }
        let total: f64 = h.relative().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn empty_relative_is_zero() {
        let h = Histogram::new(0.0, 1.0, 3);
        assert_eq!(h.relative(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!((h.bin_center(0) - 0.125).abs() < 1e-12);
        assert!((h.bin_center(3) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn merge_adds() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        a.push(0.1);
        let mut b = Histogram::new(0.0, 1.0, 2);
        b.push(0.9);
        b.push(0.8);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 2]);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn grid_push_get() {
        let mut g = Histogram2D::new(30, 30);
        g.push(3, 5);
        g.push(3, 5);
        g.push(0, 0);
        assert_eq!(g.get(3, 5), 2);
        assert_eq!(g.get(0, 0), 1);
        assert_eq!(g.total(), 3);
    }

    #[test]
    fn grid_clamps() {
        let mut g = Histogram2D::new(4, 4);
        g.push(100, 100);
        assert_eq!(g.get(4, 4), 1);
    }

    #[test]
    fn grid_merge() {
        let mut a = Histogram2D::new(1, 1);
        a.push(0, 0);
        let mut b = Histogram2D::new(1, 1);
        b.push(1, 1);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.get(1, 1), 1);
    }
}
