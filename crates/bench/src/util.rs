//! Shared statistics and clustering helpers for the experiment drivers.
//!
//! Empty-input policy: [`mean`], [`std_dev`], and [`percentile`] all
//! **panic** on an empty slice. An empty aggregate in an experiment
//! driver is always an upstream bug, and a silently returned 0.0 would
//! flow into the Markdown tables unnoticed. Callers that can legitimately
//! see an empty slice (e.g. a degenerate k-means cluster) must guard
//! before calling.

use gdcm_core::CostDataset;
use gdcm_ml::{DenseMatrix, KMeans};

/// Mean of a slice.
///
/// # Panics
///
/// Panics on an empty slice (see the module-level empty-input policy).
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation.
///
/// # Panics
///
/// Panics on an empty slice (see the module-level empty-input policy).
pub fn std_dev(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "std_dev of an empty slice");
    let m = mean(values);
    (values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Linear-interpolated percentile (`q` in 0..=100).
///
/// # Panics
///
/// Panics on an empty slice (see the module-level empty-input policy).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty slice");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }
}

/// `value` as a table prints it, to three decimals, so that a sentence
/// computed from a table's numbers agrees with what the table shows.
pub fn shown(value: f64) -> f64 {
    format!("{value:.3}")
        .parse()
        .expect("a formatted float parses back")
}

/// Breaks `text` at spaces into lines of at most `width` characters (a
/// longer word keeps a line to itself), as the results' hand-wrapped
/// paragraphs are.
pub fn wrap(text: &str, width: usize) -> String {
    let mut out = String::new();
    let mut line = 0;
    for word in text.split_whitespace() {
        let len = word.chars().count();
        if line > 0 && line + 1 + len > width {
            out.push('\n');
            line = 0;
        } else if line > 0 {
            out.push(' ');
            line += 1;
        }
        out.push_str(word);
        line += len;
    }
    out
}

/// A k=3 clustering with clusters ordered by ascending mean latency.
#[derive(Debug, Clone)]
pub struct OrderedClusters {
    /// Cluster label per item, where 0 is the fastest/smallest cluster.
    pub assignment: Vec<usize>,
    /// Item indices per ordered cluster.
    pub members: [Vec<usize>; 3],
    /// Mean latency (ms) per ordered cluster.
    pub mean_ms: [f64; 3],
}

impl OrderedClusters {
    fn from_kmeans(raw_assignment: &[usize], latency_of: impl Fn(usize) -> f64) -> OrderedClusters {
        let mut stats: Vec<(usize, f64)> = (0..3)
            .map(|c| {
                let members: Vec<usize> = raw_assignment
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &a)| (a == c).then_some(i))
                    .collect();
                // A k-means cluster can come back empty on degenerate
                // data; label it fastest (mean 0) instead of panicking.
                let m = if members.is_empty() {
                    0.0
                } else {
                    mean(&members.iter().map(|&i| latency_of(i)).collect::<Vec<_>>())
                };
                (c, m)
            })
            .collect();
        stats.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        let mut relabel = [0usize; 3];
        let mut mean_ms = [0f64; 3];
        for (new, (old, m)) in stats.into_iter().enumerate() {
            relabel[old] = new;
            mean_ms[new] = m;
        }
        let assignment: Vec<usize> = raw_assignment.iter().map(|&a| relabel[a]).collect();
        let mut members: [Vec<usize>; 3] = Default::default();
        for (i, &a) in assignment.iter().enumerate() {
            members[a].push(i);
        }
        OrderedClusters {
            assignment,
            members,
            mean_ms,
        }
    }
}

/// Clusters devices into *fast/medium/slow* (paper Fig. 4): k-means with
/// k=3 on each device's log-latency vector over all networks.
pub fn device_clusters(data: &CostDataset) -> OrderedClusters {
    // Log-latency vectors: raw vectors make k-means distances collapse
    // onto the few largest networks, yielding degenerate cluster sizes on
    // this simulated fleet; log space recovers the paper's balanced
    // fast/medium/slow structure.
    let rows: Vec<Vec<f32>> = (0..data.n_devices())
        .map(|d| {
            data.db
                .device_vector(d)
                .iter()
                .map(|v| v.ln() as f32)
                .collect()
        })
        .collect();
    let result = KMeans::new(3, 0).fit(&DenseMatrix::from_rows(&rows));
    OrderedClusters::from_kmeans(&result.assignment, |d| data.db.device_mean(d))
}

/// Clusters networks into *small/large/giant* (paper Fig. 6): k-means
/// with k=3 on each network's log-latency vector over all devices.
pub fn network_clusters(data: &CostDataset) -> OrderedClusters {
    let rows: Vec<Vec<f32>> = (0..data.n_networks())
        .map(|n| {
            data.db
                .network_vector(n)
                .iter()
                .map(|v| *v as f32)
                .collect()
        })
        .collect();
    let result = KMeans::new(3, 0).fit(&DenseMatrix::from_rows(&rows));
    OrderedClusters::from_kmeans(&result.assignment, |n| mean(&data.db.network_vector(n)))
}

/// Renders an ASCII histogram line of `count` units (capped at 60 chars).
pub fn bar(count: usize) -> String {
    "#".repeat(count.min(60))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_mean() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(mean(&v), 3.0);
        assert!((std_dev(&v) - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mean of an empty slice")]
    fn mean_panics_on_empty() {
        let _ = mean(&[]);
    }

    #[test]
    #[should_panic(expected = "std_dev of an empty slice")]
    fn std_dev_panics_on_empty() {
        let _ = std_dev(&[]);
    }

    #[test]
    #[should_panic(expected = "percentile of an empty slice")]
    fn percentile_panics_on_empty() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn clusters_are_ordered_and_partition() {
        let data = gdcm_core::CostDataset::tiny(3, 10, 12);
        let clusters = device_clusters(&data);
        assert!(clusters.mean_ms[0] <= clusters.mean_ms[1]);
        assert!(clusters.mean_ms[1] <= clusters.mean_ms[2]);
        let total: usize = clusters.members.iter().map(Vec::len).sum();
        assert_eq!(total, 12);
        assert_eq!(clusters.assignment.len(), 12);
        let nets = network_clusters(&data);
        assert_eq!(nets.assignment.len(), data.n_networks());
    }
}
