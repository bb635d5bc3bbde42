//! The unit of storage: one unique design and its scenario-invariant
//! measurements.
//!
//! A [`DesignRecord`] carries everything about a design that does *not*
//! depend on the costing scenario: the quantized approximate network
//! itself, its cached accuracies, and the per-neuron
//! [`NeuronGateCounts`] its hardware elaborates to. Scenario-dependent
//! cost ([`pe_hw::HwCost`]) is deliberately absent — the cost model
//! recomputes it in microseconds for whatever technology / supply /
//! power budget the caller asks about.

use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use pe_arith::cache::fx_hash_of;
use pe_arith::{tree_gates, NeuronGateCounts};
use pe_hw::{MlpHardwareSpec, NeuronSpec};
use pe_mlp::{ax_to_hardware, AxMlp};

/// One unique design encountered during search, with its cached
/// scenario-invariant measurements.
///
/// Records are serialized as one `serde_json` line each (see
/// [`StoreWriter`](crate::StoreWriter)), so the on-disk format is
/// append-friendly and mergeable: a later record with the same
/// `(dataset, fingerprint)` key fills in the optional fields of an
/// earlier one (e.g. a front member gaining its held-out
/// [`test_accuracy`](Self::test_accuracy) after the GA finishes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignRecord {
    /// Short name of the dataset the design was trained for (one store
    /// file can hold designs of many datasets).
    pub dataset: String,
    /// Dedup key: [`fingerprint_of`] the quantized network
    /// ([`mlp`](Self::mlp)). Verified against the network on load.
    pub fingerprint: u64,
    /// Nominal accuracy on the GA's training subsample — the fitness
    /// the search saw.
    pub train_accuracy: f64,
    /// Held-out test accuracy; `None` until the design reaches an
    /// evaluated front (fronts are annotated after the GA finishes).
    #[serde(default)]
    pub test_accuracy: Option<f64>,
    /// Robust (variation-aware) fitness statistic when the design was
    /// evaluated under Monte-Carlo process variation; `None` for
    /// nominal searches.
    #[serde(default)]
    pub robust_accuracy: Option<f64>,
    /// The GA's scenario-free area objective for this design (gate
    /// equivalents of the approximate accumulators).
    pub estimated_area: f64,
    /// Whether a pipeline `Selected` stage picked this design as its
    /// best-within-budget answer (lets `cost_sweep` reproduce the
    /// "ours" rows from the store alone).
    #[serde(default)]
    pub selected: bool,
    /// Per-neuron gate counts of the elaborated hardware, in spec
    /// order (approximate neurons only — an `AxMlp` lowers to nothing
    /// else). Bit-equal to a fresh [`counts_of_spec`] pass over
    /// [`hardware_spec`](Self::hardware_spec).
    pub counts: Vec<NeuronGateCounts>,
    /// The quantized approximate network itself.
    pub mlp: AxMlp,
}

impl DesignRecord {
    /// Build a record for `mlp` as evaluated during search: computes
    /// the [`fingerprint_of`] dedup key and the per-neuron gate counts
    /// from the elaborated hardware spec.
    #[must_use]
    pub fn new(dataset: &str, mlp: AxMlp, train_accuracy: f64, estimated_area: f64) -> Self {
        let fingerprint = fingerprint_of(&mlp);
        let counts = counts_of_spec(&ax_to_hardware(
            &mlp,
            format!("{dataset}_{fingerprint:016x}"),
        ));
        Self {
            dataset: dataset.to_string(),
            fingerprint,
            train_accuracy,
            test_accuracy: None,
            robust_accuracy: None,
            estimated_area,
            selected: false,
            counts,
            mlp,
        }
    }

    /// Reconstruct the hardware description of the stored network —
    /// the spec a cost model consumes. Identical to what the search
    /// costed live: `ax_to_hardware` on the stored quantized network.
    #[must_use]
    pub fn hardware_spec(&self, name: impl Into<String>) -> MlpHardwareSpec {
        ax_to_hardware(&self.mlp, name)
    }

    /// Model-free scalar area proxy from the stored gate counts: the
    /// summed FA-equivalent of every accumulator (paper Eq. (2)).
    #[must_use]
    pub fn fa_equivalent_total(&self) -> f64 {
        self.counts
            .iter()
            .map(NeuronGateCounts::fa_equivalent)
            .sum()
    }

    /// The accuracy queries rank by: held-out test accuracy when the
    /// design reached a front, the training-subsample fitness
    /// otherwise.
    #[must_use]
    pub fn query_accuracy(&self) -> f64 {
        self.test_accuracy.unwrap_or(self.train_accuracy)
    }

    /// Fold a later record for the same design into this one: fills
    /// optional fields that are still `None` and accumulates the
    /// [`selected`](Self::selected) flag. Returns `true` when anything
    /// changed (i.e. the incoming record carried new information).
    pub fn absorb(&mut self, other: &DesignRecord) -> bool {
        let mut changed = false;
        if self.test_accuracy.is_none() && other.test_accuracy.is_some() {
            self.test_accuracy = other.test_accuracy;
            changed = true;
        }
        if self.robust_accuracy.is_none() && other.robust_accuracy.is_some() {
            self.robust_accuracy = other.robust_accuracy;
            changed = true;
        }
        if other.selected && !self.selected {
            self.selected = true;
            changed = true;
        }
        changed
    }
}

/// Hash view over an [`AxMlp`] for fingerprinting. `AxLayer` does not
/// derive `Hash`, so the view hashes the structural fields (layer
/// count, input widths, QReLU configs) plus every neuron explicitly.
struct FingerprintView<'a>(&'a AxMlp);

impl Hash for FingerprintView<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.layers.len().hash(state);
        for layer in &self.0.layers {
            layer.input_bits.hash(state);
            layer.qrelu.hash(state);
            layer.neurons.hash(state);
        }
    }
}

/// The store's dedup key: a 64-bit FxHash of the full quantized
/// network — every weight's `(mask, shift, sign)` signature, every
/// bias, and the layer structure. Identical genomes therefore collapse
/// to one record; the vanishingly unlikely 64-bit collision of two
/// *different* networks is detected by full-network comparison at
/// ingest (both records are kept).
#[must_use]
pub fn fingerprint_of(mlp: &AxMlp) -> u64 {
    fx_hash_of(&FingerprintView(mlp))
}

/// Per-neuron gate counts of a hardware spec, in spec order, from the
/// paper's adder-area model ([`tree_gates`]) — exactly the counts the
/// live search attributes to each approximate accumulator. Exact
/// (baseline) neurons are skipped; an `AxMlp` lowered by
/// [`ax_to_hardware`] contains none.
#[must_use]
pub fn counts_of_spec(spec: &MlpHardwareSpec) -> Vec<NeuronGateCounts> {
    let mut heights = Vec::new();
    spec.layers
        .iter()
        .flat_map(|layer| &layer.neurons)
        .filter_map(|neuron| match neuron {
            NeuronSpec::Approximate(arith) => Some(tree_gates(arith, &mut heights).counts),
            NeuronSpec::Exact(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_mlp::{AxLayer, AxNeuron, AxWeight, QReluCfg};

    fn tiny_mlp(bias: i32) -> AxMlp {
        AxMlp {
            layers: vec![AxLayer {
                input_bits: 4,
                neurons: vec![AxNeuron {
                    weights: vec![
                        AxWeight {
                            mask: 0b1010,
                            shift: 2,
                            negative: false,
                        },
                        AxWeight {
                            mask: 0b0110,
                            shift: 1,
                            negative: true,
                        },
                    ],
                    bias,
                }],
                qrelu: Some(QReluCfg {
                    out_bits: 8,
                    shift: 1,
                }),
            }],
        }
    }

    #[test]
    fn fingerprint_is_deterministic_and_separates_designs() {
        assert_eq!(fingerprint_of(&tiny_mlp(3)), fingerprint_of(&tiny_mlp(3)));
        assert_ne!(fingerprint_of(&tiny_mlp(3)), fingerprint_of(&tiny_mlp(4)));
    }

    #[test]
    fn new_record_counts_match_a_fresh_spec_pass() {
        let record = DesignRecord::new("demo", tiny_mlp(3), 0.9, 12.0);
        let fresh = counts_of_spec(&record.hardware_spec("fresh"));
        assert_eq!(record.counts, fresh);
        assert!(!record.counts.is_empty());
        assert!(record.fa_equivalent_total() > 0.0);
    }

    #[test]
    fn absorb_fills_options_and_reports_change() {
        let mut a = DesignRecord::new("demo", tiny_mlp(3), 0.9, 12.0);
        let mut b = a.clone();
        b.test_accuracy = Some(0.85);
        b.selected = true;
        assert!(a.absorb(&b));
        assert_eq!(a.test_accuracy, Some(0.85));
        assert!(a.selected);
        // A second absorb of the same information is a no-op.
        assert!(!a.absorb(&b));
    }

    #[test]
    fn query_accuracy_prefers_test_accuracy() {
        let mut r = DesignRecord::new("demo", tiny_mlp(3), 0.9, 12.0);
        assert_eq!(r.query_accuracy(), 0.9);
        r.test_accuracy = Some(0.8);
        assert_eq!(r.query_accuracy(), 0.8);
    }
}
