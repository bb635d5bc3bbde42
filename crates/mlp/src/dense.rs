//! Float (`f32`) MLP with ReLU hidden layers.
//!
//! This is the substrate for the conventional gradient-trained baseline:
//! the paper's exact bespoke circuits start from a backprop-trained
//! float MLP which is then quantized to 8-bit weights / 4-bit inputs
//! ([`crate::quant`]). It is also the "Grad." row of Table III.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::topology::Topology;

/// A dense multilayer perceptron with ReLU hidden activations and a
/// linear (pre-softmax) output layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMlp {
    topology: Topology,
    /// `weights[l][j][i]`: input `i` of neuron `j` of layer `l`.
    weights: Vec<Vec<Vec<f32>>>,
    /// `biases[l][j]`.
    biases: Vec<Vec<f32>>,
}

impl DenseMlp {
    /// He-initialized random network.
    #[must_use]
    pub fn random(topology: Topology, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1b5_4a32_d192_ed03);
        let mut weights = Vec::with_capacity(topology.layer_count());
        let mut biases = Vec::with_capacity(topology.layer_count());
        for l in 0..topology.layer_count() {
            let (fan_in, fan_out) = topology.layer_dims(l);
            let scale = (2.0 / fan_in as f32).sqrt();
            weights.push(
                (0..fan_out)
                    .map(|_| {
                        (0..fan_in)
                            .map(|_| {
                                // Approximate normal via sum of uniforms
                                // (Irwin–Hall, variance 1 with 12 terms).
                                let s: f32 =
                                    (0..12).map(|_| rng.gen_range(0.0f32..1.0)).sum::<f32>() - 6.0;
                                s * scale
                            })
                            .collect()
                    })
                    .collect(),
            );
            biases.push(vec![0.0; fan_out]);
        }
        Self {
            topology,
            weights,
            biases,
        }
    }

    /// Build from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameter shapes do not match the topology.
    #[must_use]
    pub fn from_parameters(
        topology: Topology,
        weights: Vec<Vec<Vec<f32>>>,
        biases: Vec<Vec<f32>>,
    ) -> Self {
        assert_eq!(weights.len(), topology.layer_count());
        assert_eq!(biases.len(), topology.layer_count());
        for l in 0..topology.layer_count() {
            let (fan_in, fan_out) = topology.layer_dims(l);
            assert_eq!(weights[l].len(), fan_out, "layer {l} fan-out");
            assert!(
                weights[l].iter().all(|row| row.len() == fan_in),
                "layer {l} fan-in"
            );
            assert_eq!(biases[l].len(), fan_out, "layer {l} biases");
        }
        Self {
            topology,
            weights,
            biases,
        }
    }

    /// The network's topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Weight tensor (`[layer][neuron][input]`).
    #[must_use]
    pub fn weights(&self) -> &[Vec<Vec<f32>>] {
        &self.weights
    }

    /// Bias matrix (`[layer][neuron]`).
    #[must_use]
    pub fn biases(&self) -> &[Vec<f32>] {
        &self.biases
    }

    /// Forward pass returning every layer's post-activation values
    /// (index 0 is the input itself); the last entry is the logits.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    #[must_use]
    pub fn forward_trace(&self, x: &[f32]) -> Vec<Vec<f32>> {
        assert_eq!(x.len(), self.topology.inputs(), "input width mismatch");
        let mut trace = Vec::with_capacity(self.topology.layer_count() + 1);
        trace.push(x.to_vec());
        for l in 0..self.topology.layer_count() {
            let input = &trace[l];
            let last = l + 1 == self.topology.layer_count();
            let out: Vec<f32> = self.weights[l]
                .iter()
                .zip(&self.biases[l])
                .map(|(row, &b)| {
                    let acc: f32 = row.iter().zip(input).map(|(&w, &v)| w * v).sum::<f32>() + b;
                    if last {
                        acc
                    } else {
                        acc.max(0.0)
                    }
                })
                .collect();
            trace.push(out);
        }
        trace
    }

    /// Output logits for one sample.
    #[must_use]
    pub fn logits(&self, x: &[f32]) -> Vec<f32> {
        self.forward_trace(x).pop().expect("trace is never empty")
    }

    /// Predicted class (argmax of the logits).
    #[must_use]
    pub fn predict(&self, x: &[f32]) -> usize {
        argmax(&self.logits(x))
    }

    /// Classification accuracy over a set of rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `labels` have different lengths.
    #[must_use]
    pub fn accuracy(&self, rows: &[Vec<f32>], labels: &[usize]) -> f64 {
        assert_eq!(rows.len(), labels.len());
        if rows.is_empty() {
            return 0.0;
        }
        let hits = rows
            .iter()
            .zip(labels)
            .filter(|&(row, &l)| self.predict(row) == l)
            .count();
        hits as f64 / rows.len() as f64
    }
}

/// Index of the maximum value (first on ties).
///
/// # Panics
///
/// Panics if `v` is empty.
#[must_use]
pub fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate().skip(1) {
        if x > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_network_has_expected_shapes() {
        let mlp = DenseMlp::random(Topology::new(vec![4, 3, 2]), 1);
        assert_eq!(mlp.weights().len(), 2);
        assert_eq!(mlp.weights()[0].len(), 3);
        assert_eq!(mlp.weights()[0][0].len(), 4);
        assert_eq!(mlp.biases()[1].len(), 2);
    }

    #[test]
    fn forward_trace_applies_relu_on_hidden_only() {
        let mlp = DenseMlp::from_parameters(
            Topology::new(vec![1, 1, 1]),
            vec![vec![vec![-1.0]], vec![vec![1.0]]],
            vec![vec![0.0], vec![-5.0]],
        );
        let trace = mlp.forward_trace(&[2.0]);
        assert_eq!(trace[1], vec![0.0]); // ReLU clips -2
        assert_eq!(trace[2], vec![-5.0]); // linear output keeps negative
    }

    #[test]
    fn predict_is_argmax_of_logits() {
        let mlp = DenseMlp::from_parameters(
            Topology::new(vec![2, 2]),
            vec![vec![vec![1.0, 0.0], vec![0.0, 1.0]]],
            vec![vec![0.0, 0.0]],
        );
        assert_eq!(mlp.predict(&[3.0, 1.0]), 0);
        assert_eq!(mlp.predict(&[1.0, 3.0]), 1);
    }

    #[test]
    fn determinism_by_seed() {
        let a = DenseMlp::random(Topology::new(vec![5, 4, 3]), 7);
        let b = DenseMlp::random(Topology::new(vec![5, 4, 3]), 7);
        assert_eq!(a, b);
        let c = DenseMlp::random(Topology::new(vec![5, 4, 3]), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn argmax_prefers_first_on_tie() {
        assert_eq!(argmax(&[1.0, 1.0, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.3, 0.2]), 1);
    }
}
