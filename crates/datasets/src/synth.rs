//! Synthetic Gaussian-mixture stand-ins for the UCI datasets.
//!
//! The reproduction environment has no network access to the UCI
//! repository, so each benchmark dataset is replaced by a deterministic
//! synthetic generator matching its dimensionality, class count, sample
//! count and — via per-dataset separability parameters — its approximate
//! difficulty (see DESIGN.md §2 for why this preserves the paper's
//! evaluation). Real UCI CSV files can be dropped in through
//! [`crate::csv::load_csv`] instead.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::TabularData;
use crate::spec::{Dataset, DatasetSpec};

/// Draw one standard-normal sample (Box–Muller; avoids a `rand_distr`
/// dependency).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Generate the synthetic stand-in for `dataset`, normalized to `[0,1]`.
///
/// The generator is fully deterministic in `seed`: identical seeds yield
/// identical datasets across runs, and across hosts whose libm returns
/// the same bits. The Box–Muller draws call the platform's `ln` and
/// `cos`, and the class radius its `powf`; IEEE 754 does not require
/// those to be correctly rounded, so another libm may answer some of
/// the ~300,000 calls an ulp apart and move the data. The workspace's
/// owned ports (`pe_arith::math`) do not yet cover them.
///
/// Class structure follows the spec's [`crate::spec::ClassArrangement`]:
/// centers live in a *low-dimensional* random subspace of feature space
/// (ordinal line for the wine datasets, a few dimensions for the
/// others), because that is what makes the paper's 2–5-hidden-unit MLPs
/// viable on the real datasets. Samples are isotropic Gaussians around
/// their class center; `label_noise` relabels a fraction uniformly,
/// bounding the Bayes accuracy below 1 exactly as the hard (wine)
/// datasets do.
#[must_use]
pub fn generate(dataset: Dataset, seed: u64) -> TabularData {
    let spec = dataset.spec();
    generate_from_spec(&spec, seed)
}

/// Draw an orthonormal basis of `dims` vectors in `features` dimensions
/// (Gram–Schmidt over Gaussian draws).
fn orthonormal_basis(features: usize, dims: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(dims);
    while basis.len() < dims {
        let mut v: Vec<f64> = (0..features).map(|_| normal(rng)).collect();
        for b in &basis {
            let dot: f64 = v.iter().zip(b).map(|(x, y)| x * y).sum();
            for (x, y) in v.iter_mut().zip(b) {
                *x -= dot * y;
            }
        }
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-6 {
            for x in &mut v {
                *x /= norm;
            }
            basis.push(v);
        }
    }
    basis
}

/// Generate a synthetic dataset from an explicit [`DatasetSpec`]
/// (useful for custom-topology experiments in the examples).
///
/// # Panics
///
/// Panics if the spec declares zero classes, features or samples, or
/// requests more intrinsic dimensions than features.
#[must_use]
pub fn generate_from_spec(spec: &DatasetSpec, seed: u64) -> TabularData {
    assert!(
        spec.classes > 0 && spec.features > 0 && spec.samples > 0,
        "degenerate spec"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let p = spec.synth;
    let min_dist = p.separation * p.cluster_std;

    // Class centers in the low-dimensional latent structure, embedded
    // into feature space by an orthonormal basis.
    let centers: Vec<Vec<f64>> = match p.arrangement {
        crate::spec::ClassArrangement::OrdinalLine => {
            let basis = orthonormal_basis(spec.features, 1, &mut rng);
            (0..spec.classes)
                .map(|c| {
                    let t = (c as f64 - (spec.classes as f64 - 1.0) / 2.0) * min_dist;
                    basis[0].iter().map(|&b| b * t).collect()
                })
                .collect()
        }
        crate::spec::ClassArrangement::Subspace { dims } => {
            let dims = (dims as usize).min(spec.features).max(1);
            assert!(dims <= spec.features, "intrinsic dims exceed features");
            let basis = orthonormal_basis(spec.features, dims, &mut rng);
            // Rejection-sample latent centers with the minimum pairwise
            // distance; grow the sampling radius on failure so the loop
            // always terminates.
            let mut latent: Vec<Vec<f64>> = Vec::with_capacity(spec.classes);
            let mut radius = min_dist * (spec.classes as f64).powf(1.0 / dims as f64);
            let mut attempts = 0u32;
            while latent.len() < spec.classes {
                let cand: Vec<f64> = (0..dims).map(|_| rng.gen_range(-radius..radius)).collect();
                let ok = latent.iter().all(|c| {
                    let d2: f64 = c.iter().zip(&cand).map(|(a, b)| (a - b) * (a - b)).sum();
                    d2.sqrt() >= min_dist
                });
                if ok {
                    latent.push(cand);
                } else {
                    attempts += 1;
                    if attempts.is_multiple_of(200) {
                        radius *= 1.2;
                    }
                }
            }
            latent
                .iter()
                .map(|l| {
                    let mut center = vec![0.0f64; spec.features];
                    for (coef, b) in l.iter().zip(&basis) {
                        for (c, &bv) in center.iter_mut().zip(b) {
                            *c += coef * bv;
                        }
                    }
                    center
                })
                .collect()
        }
    };

    // Per-class sample counts follow the real dataset's class priors
    // (uniform when no weights are given); every class keeps at least
    // one sample so stratified splitting stays well-defined.
    let class_of: Vec<usize> = {
        let weights: Vec<f64> = match spec.class_weights {
            Some(w) => {
                assert_eq!(w.len(), spec.classes, "class weight count mismatch");
                w.to_vec()
            }
            None => vec![1.0; spec.classes],
        };
        let total: f64 = weights.iter().sum();
        let mut counts: Vec<usize> = weights
            .iter()
            .map(|w| ((w / total) * spec.samples as f64).round().max(2.0) as usize)
            .collect();
        // Adjust to the exact sample count by trimming/padding the
        // largest class.
        let largest = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let assigned: usize = counts.iter().sum();
        if assigned > spec.samples {
            counts[largest] -= (assigned - spec.samples).min(counts[largest] - 2);
        } else {
            counts[largest] += spec.samples - assigned;
        }
        let mut order = Vec::with_capacity(spec.samples);
        for (c, &n) in counts.iter().enumerate() {
            order.extend(std::iter::repeat_n(c, n));
        }
        order.truncate(spec.samples);
        order
    };

    let mut features = Vec::with_capacity(spec.samples);
    let mut labels = Vec::with_capacity(spec.samples);
    for &class in class_of.iter() {
        let center = &centers[class];
        let row: Vec<f32> = center
            .iter()
            .map(|&c| (c + normal(&mut rng) * p.cluster_std) as f32)
            .collect();
        let label = if rng.gen_bool(p.label_noise.clamp(0.0, 1.0)) {
            rng.gen_range(0..spec.classes)
        } else {
            class
        };
        features.push(row);
        labels.push(label);
    }

    let mut data = TabularData::new(features, labels, spec.classes)
        .expect("generator output is structurally valid");
    data.normalize_unit();
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_specs() {
        for d in Dataset::ALL {
            let spec = d.spec();
            let data = generate(d, 7);
            assert_eq!(data.len(), spec.samples, "{}", spec.name);
            assert_eq!(data.feature_count(), spec.features, "{}", spec.name);
            assert_eq!(data.classes, spec.classes, "{}", spec.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(Dataset::RedWine, 42);
        let b = generate(Dataset::RedWine, 42);
        assert_eq!(a, b);
        let c = generate(Dataset::RedWine, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn features_are_normalized() {
        let data = generate(Dataset::Cardio, 1);
        for row in &data.features {
            for &v in row {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn classes_are_roughly_balanced() {
        let data = generate(Dataset::Pendigits, 3);
        let counts = data.class_counts();
        let expect = data.len() / data.classes;
        for (c, &n) in counts.iter().enumerate() {
            // Label noise moves a few samples between classes.
            assert!(
                (n as i64 - expect as i64).unsigned_abs() < (expect / 3) as u64,
                "class {c}: {n} vs {expect}"
            );
        }
    }

    #[test]
    fn nearest_centroid_separability_ordering() {
        // A 1-NN-to-class-centroid probe should find Breast Cancer far
        // easier than WhiteWine, mirroring the real datasets.
        fn centroid_accuracy(d: Dataset) -> f64 {
            let data = generate(d, 11);
            let spec = d.spec();
            let mut centroids = vec![vec![0.0f64; spec.features]; spec.classes];
            let counts = data.class_counts();
            for (row, &l) in data.features.iter().zip(&data.labels) {
                for (c, &v) in row.iter().enumerate() {
                    centroids[l][c] += f64::from(v);
                }
            }
            for (c, centroid) in centroids.iter_mut().enumerate() {
                for v in centroid.iter_mut() {
                    *v /= counts[c].max(1) as f64;
                }
            }
            let mut hits = 0usize;
            for (row, &l) in data.features.iter().zip(&data.labels) {
                let best = centroids
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        let da: f64 = row
                            .iter()
                            .zip(*a)
                            .map(|(&x, &c)| (f64::from(x) - c).powi(2))
                            .sum();
                        let db: f64 = row
                            .iter()
                            .zip(*b)
                            .map(|(&x, &c)| (f64::from(x) - c).powi(2))
                            .sum();
                        da.partial_cmp(&db).expect("finite distances")
                    })
                    .map(|(i, _)| i)
                    .expect("at least one class");
                hits += usize::from(best == l);
            }
            hits as f64 / data.len() as f64
        }
        let bc = centroid_accuracy(Dataset::BreastCancer);
        let ww = centroid_accuracy(Dataset::WhiteWine);
        assert!(bc > 0.9, "BC centroid accuracy {bc}");
        assert!(ww < 0.7, "WW centroid accuracy {ww}");
        assert!(bc > ww + 0.2);
    }
}
