//! Silhouette scoring — an alternative cluster-quality criterion to the
//! BIC used by the paper, provided for the ablation study.
//!
//! The silhouette of a point is `(b − a) / max(a, b)` where `a` is its
//! mean distance to its own cluster and `b` the smallest mean distance
//! to any other cluster; the score of a clustering is the mean
//! silhouette over all points, in `[-1, 1]` (higher is better).
//!
//! The O(n²·d) distance pass runs on the blocked SoA kernel
//! ([`SoaPoints::dist_block`]): points are processed in fixed-size chunks
//! that fan out on the `megsim-exec` pool with ordered collection, and
//! within a chunk each point accumulates its per-cluster distance sums
//! tile by tile in ascending `j` order — the exact accumulation
//! sequence of the seed implementation
//! (`ReferenceKMeans::silhouette_score`, the
//! proptest oracle), so scores are bit-identical at any thread count.

use crate::kmeans::{KMeansResult, KMeansScratch};
use crate::matrix::{PointMatrix, SoaPoints};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fixed chunk of points per pool task (and tile height of the blocked
/// kernel). Chunk boundaries depend only on `n`, never on the thread
/// count.
const POINT_CHUNK: usize = 128;

/// Tile width of the blocked kernel: how many `j` columns stream per
/// pass. 256 columns × 128 rows of f64 is a 256 KiB tile — resident in
/// L2 while each dimension's column makes one pass over it.
const J_BLOCK: usize = 256;

/// Errors of the ablation-facing silhouette entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SilhouetteError {
    /// The clustering labels a different number of points than the
    /// dataset holds.
    LengthMismatch {
        /// Rows in the dataset.
        points: usize,
        /// Labels in the clustering.
        labels: usize,
    },
    /// The dataset has no points.
    EmptyData,
    /// Silhouette selection needs at least two candidate clusters.
    MaxKTooSmall(usize),
    /// A sampled score was requested with a zero-point sample budget.
    EmptySample,
}

impl std::fmt::Display for SilhouetteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SilhouetteError::LengthMismatch { points, labels } => {
                write!(
                    f,
                    "clustering labels {labels} points but the dataset has {points}"
                )
            }
            SilhouetteError::EmptyData => write!(f, "cannot score an empty dataset"),
            SilhouetteError::MaxKTooSmall(max_k) => {
                write!(f, "silhouette selection needs max_k >= 2, got {max_k}")
            }
            SilhouetteError::EmptySample => {
                write!(f, "sampled silhouette needs a sample budget of at least 1")
            }
        }
    }
}

impl std::error::Error for SilhouetteError {}

/// Mean silhouette coefficient of a clustering.
///
/// Returns `Ok(0.0)` for a single cluster or a single point (the
/// coefficient is undefined) — the conventional "no structure
/// measurable" value. Singleton clusters contribute a silhouette of `0`
/// per the standard definition.
///
/// # Errors
///
/// [`SilhouetteError::LengthMismatch`] if labels and points disagree in
/// length.
pub fn try_silhouette_score(
    data: &PointMatrix,
    result: &KMeansResult,
) -> Result<f64, SilhouetteError> {
    if data.len() != result.labels.len() {
        return Err(SilhouetteError::LengthMismatch {
            points: data.len(),
            labels: result.labels.len(),
        });
    }
    let k = result.k();
    let n = data.len();
    if k < 2 || n < 2 {
        return Ok(0.0);
    }
    let sizes = result.cluster_sizes();
    let soa = SoaPoints::from_matrix(data);
    // Per-point silhouette contributions, chunked on the pool. The
    // chunks come back in index order, so the final reduction below
    // adds them in the same fixed sequence at any thread count (and a
    // skipped point's 0.0 cannot perturb the sum: every partial total
    // is non-negative-zero, and x + 0.0 ≡ x).
    let contributions = megsim_exec::par_map_chunks(n, POINT_CHUNK, |is| {
        silhouette_chunk(&soa, &result.labels, &sizes, k, is)
    });
    let mut total = 0.0;
    for chunk in &contributions {
        for &c in chunk {
            total += c;
        }
    }
    Ok(total / n as f64)
}

/// Panicking convenience wrapper over [`try_silhouette_score`].
///
/// # Panics
///
/// Panics if labels and points disagree in length.
pub fn silhouette_score(data: &PointMatrix, result: &KMeansResult) -> f64 {
    match try_silhouette_score(data, result) {
        Ok(score) => score,
        Err(e) => panic!("labels/points mismatch: {e}"),
    }
}

/// Sampling policy of the silhouette entry points: score every point
/// (the exact O(n²·d) pass) or a seeded reservoir of at most
/// `max_points` of them (O(n·m·d)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SilhouetteSample {
    /// Exact score over every point.
    Full,
    /// Mean over a seeded uniform sample of at most `max_points`
    /// points. Each sampled point's own coefficient is still *exact*
    /// (its distance sums run against the full population), only the
    /// outer mean is subsampled.
    Sampled {
        /// Sample budget `m`. A budget of `n` or more degrades to the
        /// exact score.
        max_points: usize,
        /// Reservoir seed (fixed sample for a fixed `(n, m, seed)`).
        seed: u64,
    },
}

/// Seeded uniform sample of `max_points` distinct indices out of
/// `0..n` (Algorithm R), returned sorted so tile accumulation walks
/// memory forward.
fn sample_indices(n: usize, max_points: usize, seed: u64) -> Vec<usize> {
    debug_assert!(max_points < n);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sample: Vec<usize> = (0..max_points).collect();
    for i in max_points..n {
        let j = rng.gen_range(0..i + 1);
        if j < max_points {
            sample[j] = i;
        }
    }
    sample.sort_unstable();
    sample
}

/// Sampled counterpart of [`try_silhouette_score`]: the mean silhouette
/// of a seeded reservoir of at most `max_points` points, never touching
/// the full O(n²) distance triangle. Each sampled point is scored
/// exactly (distances to *all* `n` points, via the gather-row tile
/// kernel [`SoaPoints::dist_block_rows`], computed and discarded per
/// block), so the estimate is unbiased and the cost is O(n·m·d).
///
/// With `max_points >= n` this is bitwise [`try_silhouette_score`].
///
/// # Errors
///
/// [`SilhouetteError::LengthMismatch`] if labels and points disagree,
/// [`SilhouetteError::EmptySample`] if `max_points == 0`.
pub fn try_sampled_silhouette_score(
    data: &PointMatrix,
    result: &KMeansResult,
    max_points: usize,
    seed: u64,
) -> Result<f64, SilhouetteError> {
    if max_points == 0 {
        return Err(SilhouetteError::EmptySample);
    }
    if data.len() != result.labels.len() {
        return Err(SilhouetteError::LengthMismatch {
            points: data.len(),
            labels: result.labels.len(),
        });
    }
    let n = data.len();
    if max_points >= n {
        return try_silhouette_score(data, result);
    }
    let k = result.k();
    if k < 2 || n < 2 {
        return Ok(0.0);
    }
    let sizes = result.cluster_sizes();
    let soa = SoaPoints::from_matrix(data);
    let sample = sample_indices(n, max_points, seed);
    let m = sample.len();
    let contributions = megsim_exec::par_map_chunks(m, POINT_CHUNK, |is| {
        sampled_chunk(&soa, &result.labels, &sizes, k, &sample[is])
    });
    let mut total = 0.0;
    for chunk in &contributions {
        for &c in chunk {
            total += c;
        }
    }
    Ok(total / m as f64)
}

/// Per-chunk kernel: silhouette contribution of every point in `is`
/// (0.0 for points the definition skips). Distance sums accumulate per
/// cluster over [`J_BLOCK`]-wide tiles in ascending `j` order, matching
/// the seed implementation's op sequence pair for pair.
fn silhouette_chunk(
    soa: &SoaPoints,
    labels: &[usize],
    sizes: &[usize],
    k: usize,
    is: std::ops::Range<usize>,
) -> Vec<f64> {
    let n = soa.len();
    let h = is.len();
    // Per-point per-cluster distance sums for the whole chunk.
    let mut sums = vec![0.0f64; h * k];
    let mut tile = vec![0.0f64; h * J_BLOCK];
    let mut j0 = 0;
    while j0 < n {
        let js = j0..(j0 + J_BLOCK).min(n);
        let w = js.len();
        soa.dist_block(is.clone(), js.clone(), &mut tile);
        let ljs = &labels[js.clone()];
        // The seed implementation skips j == i; including it adds
        // d(i, i) = +0.0 to a sum of non-negative terms, which is a
        // bitwise no-op, so the branch can go. (Sums are accumulated
        // for singleton-own points too — their values go unused.)
        //
        // Four rows interleave per pass: each row's per-cluster sums
        // are an independent serial FP chain, so interleaving keeps
        // four adds in flight without reordering any single sum.
        let mut bi = 0;
        while bi + 4 <= h {
            let (r0, rest) = sums[bi * k..].split_at_mut(k);
            let (r1, rest) = rest.split_at_mut(k);
            let (r2, rest) = rest.split_at_mut(k);
            let r3 = &mut rest[..k];
            let t = &tile[bi * w..(bi + 4) * w];
            for (bj, &l) in ljs.iter().enumerate() {
                r0[l] += t[bj];
                r1[l] += t[w + bj];
                r2[l] += t[2 * w + bj];
                r3[l] += t[3 * w + bj];
            }
            bi += 4;
        }
        for bi in bi..h {
            let row = &tile[bi * w..(bi + 1) * w];
            let srow = &mut sums[bi * k..(bi + 1) * k];
            for (&d, &l) in row.iter().zip(ljs) {
                srow[l] += d;
            }
        }
        j0 = js.end;
    }
    is.clone()
        .enumerate()
        .map(|(bi, i)| {
            let own = labels[i];
            if sizes[own] <= 1 {
                return 0.0; // silhouette of a singleton is 0
            }
            let srow = &sums[bi * k..(bi + 1) * k];
            let a = srow[own] / (sizes[own] - 1) as f64;
            let b = (0..k)
                .filter(|&c| c != own && sizes[c] > 0)
                .map(|c| srow[c] / sizes[c] as f64)
                .fold(f64::INFINITY, f64::min);
            if !b.is_finite() {
                return 0.0;
            }
            let denom = a.max(b);
            if denom > 0.0 {
                (b - a) / denom
            } else {
                0.0
            }
        })
        .collect()
}

/// Gather-index sibling of [`silhouette_chunk`]: exact silhouette
/// contribution of every *global* index in `is`, distance sums
/// accumulated per cluster over [`J_BLOCK`]-wide tiles in ascending `j`
/// order. Cluster sizes are full-population, so each sampled point's
/// coefficient equals what the exact pass computes for it.
fn sampled_chunk(
    soa: &SoaPoints,
    labels: &[usize],
    sizes: &[usize],
    k: usize,
    is: &[usize],
) -> Vec<f64> {
    let n = soa.len();
    let h = is.len();
    let mut sums = vec![0.0f64; h * k];
    let mut tile = vec![0.0f64; h * J_BLOCK];
    let mut j0 = 0;
    while j0 < n {
        let js = j0..(j0 + J_BLOCK).min(n);
        let w = js.len();
        soa.dist_block_rows(is, js.clone(), &mut tile);
        let ljs = &labels[js.clone()];
        for bi in 0..h {
            let row = &tile[bi * w..(bi + 1) * w];
            let srow = &mut sums[bi * k..(bi + 1) * k];
            for (&d, &l) in row.iter().zip(ljs) {
                srow[l] += d;
            }
        }
        j0 = js.end;
    }
    is.iter()
        .enumerate()
        .map(|(bi, &i)| {
            let own = labels[i];
            if sizes[own] <= 1 {
                return 0.0;
            }
            let srow = &sums[bi * k..(bi + 1) * k];
            let a = srow[own] / (sizes[own] - 1) as f64;
            let b = (0..k)
                .filter(|&c| c != own && sizes[c] > 0)
                .map(|c| srow[c] / sizes[c] as f64)
                .fold(f64::INFINITY, f64::min);
            if !b.is_finite() {
                return 0.0;
            }
            let denom = a.max(b);
            if denom > 0.0 {
                (b - a) / denom
            } else {
                0.0
            }
        })
        .collect()
}

/// Picks the `k` in `[2, max_k]` with the best silhouette — the
/// alternative to the §III-F BIC search used in the ablation study.
/// All candidate fits share one k-means scratch (the data never
/// changes), so the loop allocates O(1) in steady state.
///
/// Returns the best clustering and its score.
///
/// # Errors
///
/// [`SilhouetteError::EmptyData`] if `data` is empty,
/// [`SilhouetteError::MaxKTooSmall`] if `max_k < 2`.
pub fn try_best_by_silhouette(
    data: &PointMatrix,
    max_k: usize,
    seed: u64,
) -> Result<(KMeansResult, f64), SilhouetteError> {
    try_best_by_silhouette_with(data, max_k, seed, SilhouetteSample::Full)
}

/// [`try_best_by_silhouette`] with an explicit [`SilhouetteSample`]
/// policy: `Full` is bitwise the original selection; `Sampled` scores
/// every candidate `k` on the same seeded point sample, cutting the
/// per-candidate cost from O(n²·d) to O(n·m·d) so silhouette selection
/// stays usable at streaming scales.
///
/// # Errors
///
/// [`SilhouetteError::EmptyData`] if `data` is empty,
/// [`SilhouetteError::MaxKTooSmall`] if `max_k < 2`,
/// [`SilhouetteError::EmptySample`] if a sampled policy has a zero
/// budget.
pub fn try_best_by_silhouette_with(
    data: &PointMatrix,
    max_k: usize,
    seed: u64,
    sample: SilhouetteSample,
) -> Result<(KMeansResult, f64), SilhouetteError> {
    use crate::kmeans::{kmeans_with_scratch, KMeansConfig};
    if data.is_empty() {
        return Err(SilhouetteError::EmptyData);
    }
    if max_k < 2 {
        return Err(SilhouetteError::MaxKTooSmall(max_k));
    }
    if let SilhouetteSample::Sampled { max_points: 0, .. } = sample {
        return Err(SilhouetteError::EmptySample);
    }
    let mut scratch = KMeansScratch::default();
    let mut best: Option<(KMeansResult, f64)> = None;
    for k in 2..=max_k.min(data.len()) {
        let result = kmeans_with_scratch(
            data,
            &KMeansConfig::new(k).with_seed(seed ^ k as u64),
            &mut scratch,
        );
        let score = match sample {
            SilhouetteSample::Full => try_silhouette_score(data, &result)?,
            SilhouetteSample::Sampled {
                max_points,
                seed: sample_seed,
            } => try_sampled_silhouette_score(data, &result, max_points, sample_seed)?,
        };
        #[allow(clippy::unnecessary_map_or)]
        let better = best.as_ref().map_or(true, |(_, s)| score > *s);
        if better {
            best = Some((result, score));
        }
    }
    // max_k >= 2 but data may hold a single point: no candidate ran.
    best.ok_or(SilhouetteError::MaxKTooSmall(1))
}

/// Panicking convenience wrapper over [`try_best_by_silhouette`].
///
/// # Panics
///
/// Panics if `data` is empty or `max_k < 2`.
pub fn best_by_silhouette(data: &PointMatrix, max_k: usize, seed: u64) -> (KMeansResult, f64) {
    match try_best_by_silhouette(data, max_k, seed) {
        Ok(best) => best,
        Err(SilhouetteError::MaxKTooSmall(m)) => {
            panic!("silhouette selection needs at least k = 2, got {m}")
        }
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{kmeans, KMeansConfig};

    fn blobs() -> PointMatrix {
        let mut pts = Vec::new();
        for i in 0..12 {
            let j = (i as f64 * 0.9).sin() * 0.3;
            pts.push(vec![j, j * 0.5]);
            pts.push(vec![10.0 + j, 10.0 - j]);
        }
        PointMatrix::from_rows(pts)
    }

    #[test]
    fn well_separated_blobs_score_high() {
        let data = blobs();
        let r = kmeans(&data, &KMeansConfig::new(2).with_seed(1));
        let s = silhouette_score(&data, &r);
        assert!(s > 0.9, "silhouette = {s}");
    }

    #[test]
    fn overclustered_fit_scores_lower() {
        let data = blobs();
        let good = kmeans(&data, &KMeansConfig::new(2).with_seed(1));
        let over = kmeans(&data, &KMeansConfig::new(8).with_seed(1));
        assert!(silhouette_score(&data, &good) > silhouette_score(&data, &over));
    }

    #[test]
    fn single_cluster_scores_zero() {
        let data = blobs();
        let r = kmeans(&data, &KMeansConfig::new(1));
        assert_eq!(silhouette_score(&data, &r), 0.0);
    }

    #[test]
    fn score_is_bounded() {
        let data = PointMatrix::from_rows(
            (0..20)
                .map(|i| vec![((i * 13) % 17) as f64, ((i * 7) % 11) as f64])
                .collect(),
        );
        for k in 2..6 {
            let r = kmeans(&data, &KMeansConfig::new(k).with_seed(2));
            let s = silhouette_score(&data, &r);
            assert!((-1.0..=1.0).contains(&s), "k={k}: {s}");
        }
    }

    #[test]
    fn best_by_silhouette_finds_two_blobs() {
        let data = blobs();
        let (result, score) = best_by_silhouette(&data, 6, 3);
        assert_eq!(result.k(), 2, "score = {score}");
        assert!(score > 0.9);
    }

    #[test]
    #[should_panic(expected = "at least k = 2")]
    fn best_by_silhouette_rejects_max_k_one() {
        let data = PointMatrix::from_rows(vec![vec![0.0], vec![1.0]]);
        let _ = best_by_silhouette(&data, 1, 0);
    }

    #[test]
    fn mismatched_lengths_are_an_error_not_a_panic() {
        let data = blobs();
        let mut r = kmeans(&data, &KMeansConfig::new(2).with_seed(1));
        r.labels.pop();
        assert_eq!(
            try_silhouette_score(&data, &r),
            Err(SilhouetteError::LengthMismatch {
                points: 24,
                labels: 23
            })
        );
    }

    #[test]
    #[should_panic(expected = "labels/points mismatch")]
    fn panicking_wrapper_still_panics_on_mismatch() {
        let data = blobs();
        let mut r = kmeans(&data, &KMeansConfig::new(2).with_seed(1));
        r.labels.pop();
        let _ = silhouette_score(&data, &r);
    }

    #[test]
    fn singleton_clusters_contribute_zero() {
        // Two tight pairs plus one isolated point: force a clustering
        // where the isolated point is a singleton cluster. Its own
        // contribution must be exactly 0 and the score stays finite.
        let data = PointMatrix::from_rows(vec![
            vec![0.0],
            vec![0.1],
            vec![10.0],
            vec![10.1],
            vec![100.0],
        ]);
        let result = KMeansResult {
            centroids: vec![vec![0.05], vec![10.05], vec![100.0]],
            labels: vec![0, 0, 1, 1, 2],
            wcss: 0.01,
            iterations: 1,
        };
        let s = try_silhouette_score(&data, &result).expect("valid inputs");
        assert!(s.is_finite() && s > 0.0, "score = {s}");
        // All-singletons degenerate clustering: every point skipped, 0.
        let degenerate = KMeansResult {
            centroids: (0..5).map(|i| vec![i as f64]).collect(),
            labels: (0..5).collect(),
            wcss: 0.0,
            iterations: 1,
        };
        assert_eq!(try_silhouette_score(&data, &degenerate), Ok(0.0));
    }

    #[test]
    fn try_best_by_silhouette_reports_errors() {
        assert_eq!(
            try_best_by_silhouette(&PointMatrix::from_rows(vec![]), 4, 0),
            Err(SilhouetteError::EmptyData)
        );
        let data = PointMatrix::from_rows(vec![vec![0.0], vec![1.0]]);
        assert_eq!(
            try_best_by_silhouette(&data, 1, 0),
            Err(SilhouetteError::MaxKTooSmall(1))
        );
    }

    /// The golden paper-shape suite's cluster geometry: the two-phase
    /// workload of the core pipeline's golden test, post-normalization
    /// shape (two far-apart phases, period-18 jitter sub-structure).
    fn paper_shape() -> PointMatrix {
        PointMatrix::from_rows(
            (0..60)
                .map(|i| {
                    let jitter = (i as f64 * 0.7).sin() * 5.0;
                    if i % 2 == 0 {
                        vec![100.0 + jitter, 0.0, 500.0 + jitter, 0.0, 50.0]
                    } else {
                        vec![0.0, 900.0 + jitter, 0.0, 4000.0 + jitter, 300.0]
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn sampled_with_full_budget_is_bitwise_full() {
        let data = blobs();
        let r = kmeans(&data, &KMeansConfig::new(2).with_seed(1));
        let full = try_silhouette_score(&data, &r).unwrap();
        for budget in [data.len(), data.len() + 5, usize::MAX] {
            let sampled = try_sampled_silhouette_score(&data, &r, budget, 7).unwrap();
            assert_eq!(sampled.to_bits(), full.to_bits());
        }
    }

    #[test]
    fn sampled_score_tracks_full_on_the_paper_shape_suite() {
        // The ISSUE 9 acceptance bar: sampled-silhouette quality within
        // 2 % of the full score on the golden paper-shape suite.
        let data = paper_shape();
        for k in [2usize, 4, 7] {
            let r = kmeans(&data, &KMeansConfig::new(k).with_seed(42));
            let full = try_silhouette_score(&data, &r).unwrap();
            let sampled = try_sampled_silhouette_score(&data, &r, 36, 42).unwrap();
            assert!(
                (sampled - full).abs() <= 0.02 * full.abs().max(1e-9),
                "k={k}: sampled {sampled} vs full {full}"
            );
        }
    }

    #[test]
    fn sampled_selection_matches_full_on_the_paper_shape_suite() {
        // Selection quality, not just the score: the sampled policy
        // must pick a k whose *full* silhouette is within 2 % of the
        // full policy's winner.
        let data = paper_shape();
        let (full_best, full_score) =
            try_best_by_silhouette_with(&data, 8, 42, SilhouetteSample::Full).unwrap();
        let (sampled_best, _) = try_best_by_silhouette_with(
            &data,
            8,
            42,
            SilhouetteSample::Sampled {
                max_points: 24,
                seed: 42,
            },
        )
        .unwrap();
        let sampled_full_score = try_silhouette_score(&data, &sampled_best).unwrap();
        assert!(
            sampled_full_score >= full_score - 0.02 * full_score.abs(),
            "sampled winner k={} scores {} vs full winner k={} at {}",
            sampled_best.k(),
            sampled_full_score,
            full_best.k(),
            full_score
        );
    }

    #[test]
    fn full_policy_is_bitwise_the_original_selection() {
        let data = blobs();
        let (a, sa) = try_best_by_silhouette(&data, 6, 3).unwrap();
        let (b, sb) = try_best_by_silhouette_with(&data, 6, 3, SilhouetteSample::Full).unwrap();
        assert_eq!(a, b);
        assert_eq!(sa.to_bits(), sb.to_bits());
    }

    #[test]
    fn sampled_rejects_zero_budget() {
        let data = blobs();
        let r = kmeans(&data, &KMeansConfig::new(2).with_seed(1));
        assert_eq!(
            try_sampled_silhouette_score(&data, &r, 0, 1),
            Err(SilhouetteError::EmptySample)
        );
        assert_eq!(
            try_best_by_silhouette_with(
                &data,
                4,
                0,
                SilhouetteSample::Sampled {
                    max_points: 0,
                    seed: 0
                }
            ),
            Err(SilhouetteError::EmptySample)
        );
    }

    #[test]
    fn sampled_identical_across_thread_counts() {
        let data = PointMatrix::from_rows(
            (0..500)
                .map(|i| {
                    let c = (i % 3) as f64 * 40.0;
                    vec![c + (i as f64 * 0.37).sin(), c + (i as f64 * 0.11).cos()]
                })
                .collect(),
        );
        let r = kmeans(&data, &KMeansConfig::new(3).with_seed(4));
        let mut scores = Vec::new();
        for threads in [1usize, 2, 8] {
            megsim_exec::set_threads(threads);
            scores.push(
                try_sampled_silhouette_score(&data, &r, 160, 9)
                    .unwrap()
                    .to_bits(),
            );
        }
        megsim_exec::set_threads(0);
        assert_eq!(scores[0], scores[1]);
        assert_eq!(scores[1], scores[2]);
    }

    #[test]
    fn identical_across_thread_counts() {
        // Big enough that several point chunks fan out.
        let data = PointMatrix::from_rows(
            (0..300)
                .map(|i| {
                    let c = (i % 3) as f64 * 40.0;
                    vec![c + (i as f64 * 0.37).sin(), c + (i as f64 * 0.11).cos()]
                })
                .collect(),
        );
        let r = kmeans(&data, &KMeansConfig::new(3).with_seed(4));
        let mut scores = Vec::new();
        for threads in [1usize, 2, 8] {
            megsim_exec::set_threads(threads);
            scores.push(silhouette_score(&data, &r).to_bits());
        }
        megsim_exec::set_threads(0);
        assert_eq!(scores[0], scores[1]);
        assert_eq!(scores[1], scores[2]);
    }
}
