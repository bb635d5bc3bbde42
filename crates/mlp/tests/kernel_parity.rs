//! Kernel parity: the forward pass (the AVX2 pair kernels where they
//! run, the portable loops elsewhere) must be **bit-exact** with the
//! per-sample Eq. (4) oracle, for random 4-bit networks, and the column
//! accumulation for neurons driven straight at it — including masks up
//! to the full `u16` range, shifts past the `i32`-safety cutoff (the
//! wide `i64` path), and weights sitting exactly on the `i32`
//! worst-case-bound boundary.
//!
//! Networks whose neurons' accumulator ranges end at or just past the
//! `i16` bounds, or on the `i32` bounds, check every path a layer can
//! take — the pair kernels on `i16` lanes, their argmax on `i32` lanes,
//! and the portable loops — against the per-row oracle, and resident
//! trials (`ResidentPass`) against a fresh forward pass over each
//! edited network.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pe_mlp::columnar::{
    accumulate_neuron_column, fits_i32, hits_columns, kernel_mode, layer_fits_i16, ResidentPass,
};
use pe_mlp::{
    AxLayer, AxMlp, AxNeuron, AxWeight, ColumnLabels, ColumnarScratch, InferenceScratch,
    KernelKind, QReluCfg, QuantMatrix,
};

/// A weight drawn to stress the interesting regimes: plain 4/8-bit
/// masks, fully-masked (pruned) connections, masks with bits above the
/// 8-bit activation range, small shifts and shifts past 22 (forcing
/// the wide `i64` path).
fn weight() -> impl Strategy<Value = AxWeight> {
    let mask = prop_oneof![
        0u16..=0xFF,
        0u16..=0xFF,
        Just(0u16),
        Just(0xFFu16),
        0u16..=0xFFFF,
    ];
    let shift = prop_oneof![0u8..=8, 0u8..=8, Just(8u8), 0u8..=24];
    (mask, shift, any::<bool>()).prop_map(|(mask, shift, negative)| AxWeight {
        mask,
        shift,
        negative,
    })
}

fn neuron(max_fan_in: usize) -> impl Strategy<Value = AxNeuron> {
    (
        proptest::collection::vec(weight(), 1..=max_fan_in),
        -100_000i32..=100_000,
    )
        .prop_map(|(weights, bias)| AxNeuron { weights, bias })
}

/// A weight of an `i16`-edge neuron: full `u8` masks and the paper's
/// shifts (up to 6), so a few terms span most of the `i16` range.
fn edge_weight() -> impl Strategy<Value = AxWeight> {
    let mask = prop_oneof![0u16..=0xFF, Just(0xFFu16), Just(0u16)];
    (mask, 0u8..=6, any::<bool>()).prop_map(|(mask, shift, negative)| AxWeight {
        mask,
        shift,
        negative,
    })
}

/// A layer of `count` neurons whose accumulator ranges end on an
/// `i16` bound or up to 2 LSB inside it (three layers in four, where
/// every neuron of fan-in up to 4 fits), or 1–2 LSB beyond it.
fn edge_layer(fan_in: usize, count: usize) -> impl Strategy<Value = Vec<AxNeuron>> {
    prop_oneof![Just(true), Just(true), Just(true), Just(false)].prop_flat_map(move |inside| {
        let slack = if inside { 0i32..=2 } else { -2i32..=-1 };
        let neuron = (
            proptest::collection::vec(edge_weight(), fan_in..=fan_in),
            any::<bool>(),
            slack,
        )
            .prop_map(|(weights, top, slack)| {
                let term = |w: &AxWeight| i32::from(w.mask & 0xFF) << w.shift;
                let pos: i32 = weights.iter().filter(|w| !w.negative).map(term).sum();
                let neg: i32 = weights.iter().filter(|w| w.negative).map(term).sum();
                let bias = if top {
                    i32::from(i16::MAX) - pos - slack
                } else {
                    i32::from(i16::MIN) + neg + slack
                };
                AxNeuron { weights, bias }
            });
        proptest::collection::vec(neuron, count..=count)
    })
}

/// A layer of `count` neurons for resident trials. Each bias centres
/// its neuron's range `[bias − Σneg, bias + Σpos]` on zero (give or
/// take 300), so edits move predictions, and terms at the upper shifts
/// reach past the `i16` range, so single edits move layers across its
/// bounds both ways.
fn trial_layer(fan_in: usize, count: usize) -> impl Strategy<Value = Vec<AxNeuron>> {
    let mask = prop_oneof![1u16..=0xFF, Just(0xFFu16)];
    let weight =
        (mask, prop_oneof![0u8..=6, 5u8..=8], any::<bool>()).prop_map(|(mask, shift, negative)| {
            AxWeight {
                mask,
                shift,
                negative,
            }
        });
    let neuron = (
        proptest::collection::vec(weight, fan_in..=fan_in),
        -300i32..=300,
    )
        .prop_map(|(weights, jitter)| {
            let term = |w: &AxWeight| i32::from(w.mask & 0xFF) << w.shift;
            let pos: i32 = weights.iter().filter(|w| !w.negative).map(term).sum();
            let neg: i32 = weights.iter().filter(|w| w.negative).map(term).sum();
            AxNeuron {
                weights,
                bias: (neg - pos) / 2 + jitter,
            }
        });
    proptest::collection::vec(neuron, count..=count)
}

/// A network of [`trial_layer`]s over 3 input features: one or two
/// hidden layers, then an argmax layer or (`trailing`) one more QReLU
/// layer, with (`wide`) the first weight of the neuron at `pick` moved
/// past `fits_i32`.
fn resident_net() -> impl Strategy<Value = AxMlp> {
    (1usize..=4, 1usize..=4, 2usize..=4).prop_flat_map(|(w0, w1, classes)| {
        let layers = (
            trial_layer(3, w0),
            trial_layer(w0, w1),
            trial_layer(w0, classes),
            trial_layer(w1, classes),
        );
        let shape = (any::<bool>(), any::<bool>(), any::<bool>(), any::<usize>());
        (layers, shape, 4u32..=6).prop_map(
            |((h0, h1, last1, last2), (two, trailing, wide, pick), shift)| {
                let q = Some(QReluCfg { out_bits: 8, shift });
                let layer = |neurons, qrelu| AxLayer {
                    input_bits: 8,
                    neurons,
                    qrelu,
                };
                let mut layers = vec![layer(h0, q)];
                if two {
                    layers.push(layer(h1, q));
                }
                let last = if two { last2 } else { last1 };
                layers.push(layer(last, if trailing { q } else { None }));
                let mut mlp = AxMlp { layers };
                if wide {
                    let mut neurons: Vec<&mut AxNeuron> =
                        mlp.layers.iter_mut().flat_map(|l| &mut l.neurons).collect();
                    let count = neurons.len();
                    let neuron = &mut neurons[pick % count];
                    neuron.weights[0] = AxWeight {
                        mask: 0xFF,
                        shift: 24,
                        negative: false,
                    };
                    assert!(!fits_i32(neuron));
                }
                mlp
            },
        )
    })
}

/// One edit of one neuron, from raw draws `(neuron, kind, weight,
/// step)`: a weight's shift +1 or −1, its sign, or its bias moved by
/// `step`. Returns the neuron's layer and index.
fn edit(mlp: &mut AxMlp, (pick, kind, wi, step): (usize, u8, usize, i32)) -> (usize, usize) {
    let neurons: Vec<(usize, usize)> = mlp
        .layers
        .iter()
        .enumerate()
        .flat_map(|(li, l)| (0..l.neurons.len()).map(move |ni| (li, ni)))
        .collect();
    let (li, ni) = neurons[pick % neurons.len()];
    let neuron = &mut mlp.layers[li].neurons[ni];
    let count = neuron.weights.len();
    let w = &mut neuron.weights[wi % count];
    match kind {
        0 => w.shift += 1,
        1 => w.shift = w.shift.saturating_sub(1),
        2 => w.negative = !w.negative,
        _ => neuron.bias += step,
    }
    (li, ni)
}

/// One to eight raw [`edit`] draws, each to be kept or undone.
fn edits() -> impl Strategy<Value = Vec<((usize, u8, usize, i32), bool)>> {
    let step = prop_oneof![Just(1i32), Just(-256), Just(4096), Just(-4096)];
    let draws = (any::<usize>(), 0u8..4, any::<usize>(), step);
    proptest::collection::vec((draws, any::<bool>()), 1..=8)
}

/// Per-weight input columns (`fan_in × samples`), full `u8` range.
fn columns(fan_in: usize, samples: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), samples..=samples),
        fan_in..=fan_in,
    )
}

/// `(column, reference)` accumulations of one neuron: the column
/// kernel's, and the per-sample Eq. (4) oracle's on every row.
fn both(neuron: &AxNeuron, inputs: &[Vec<u8>], samples: usize) -> (Vec<i64>, Vec<i64>) {
    let (mut got, mut narrow) = (Vec::new(), Vec::new());
    accumulate_neuron_column(neuron, inputs, samples, &mut got, &mut narrow);
    let want = (0..samples)
        .map(|s| neuron.accumulate(&inputs.iter().map(|col| col[s]).collect::<Vec<u8>>()))
        .collect();
    (got, want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single neuron, random weights/inputs: the column kernel's
    /// accumulators must match the per-sample oracle bit-exactly in both
    /// the narrow (`i32`) and wide (`i64`) regimes.
    #[test]
    fn every_kernel_matches_the_scalar_accumulator(
        (neuron, inputs, samples) in (neuron(10), 0usize..=67).prop_flat_map(|(n, samples)| {
            let fan_in = n.weights.len();
            (Just(n), columns(fan_in, samples), Just(samples))
        }),
    ) {
        let (got, want) = both(&neuron, &inputs, samples);
        prop_assert_eq!(&got, &want, "kernel {:?} diverged", kernel_mode());
    }

    /// Whole random two-hidden-layer 4-bit networks: with the per-row
    /// oracle's predictions as labels, the forward pass must hit every
    /// sample — through narrow and wide output layers alike.
    #[test]
    fn every_kernel_matches_the_per_row_oracle_on_full_networks(
        l1_raw in proptest::collection::vec(neuron(5), 1..=6),
        l2_raw in proptest::collection::vec(neuron(6), 1..=5),
        out_raw in proptest::collection::vec(neuron(5), 2..=4),
        rows_raw in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 5..=5), 0..=41),
        shift1 in 0u32..=3,
        shift2 in 0u32..=3,
    ) {
        let fit = |mut ns: Vec<AxNeuron>, fan_in: usize| -> Vec<AxNeuron> {
            for n in &mut ns {
                let base = n.weights.clone();
                n.weights = (0..fan_in).map(|i| base[i % base.len()]).collect();
            }
            ns
        };
        let w1 = l1_raw.len();
        let w2 = l2_raw.len();
        let l1 = fit(l1_raw, 5);
        let l2 = fit(l2_raw, w1);
        let out = fit(out_raw, w2);
        let mlp = AxMlp {
            layers: vec![
                AxLayer {
                    input_bits: 4,
                    neurons: l1,
                    qrelu: Some(QReluCfg { out_bits: 8, shift: shift1 }),
                },
                AxLayer {
                    input_bits: 8,
                    neurons: l2,
                    qrelu: Some(QReluCfg { out_bits: 8, shift: shift2 }),
                },
                AxLayer {
                    input_bits: 8,
                    neurons: out,
                    qrelu: None,
                },
            ],
        };
        let rows: Vec<Vec<u8>> =
            rows_raw.iter().map(|r| r.iter().map(|&x| x & 0xF).collect()).collect();
        let cols = QuantMatrix::from_rows(&rows).columns();

        let mut oracle_scratch = InferenceScratch::new();
        let oracle = ColumnLabels::new(
            rows.iter().map(|r| mlp.predict_with(r, &mut oracle_scratch)).collect(),
        );

        let hits = hits_columns(&mlp, &cols, &oracle, &mut ColumnarScratch::new(), None);
        prop_assert_eq!(hits, rows.len(), "kernel {:?} diverged", kernel_mode());
    }

    /// Networks whose every neuron's range ends at or just past an
    /// `i16` bound, hidden QReLU shifts inside and past the `i16`
    /// lanes, and row counts around the 16-sample stripes: with the row
    /// oracle's predictions as labels, every row hits on whichever rung
    /// each layer takes.
    #[test]
    fn the_i16_rung_matches_the_per_row_oracle_at_its_bounds(
        hidden in edge_layer(3, 4),
        outputs in (2usize..=4).prop_flat_map(|count| edge_layer(4, count)),
        shift in prop_oneof![0u32..=8, 14u32..=20, Just(31u32), Just(32u32)],
        rows_raw in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 3..=3), 0..=40),
    ) {
        let mlp = AxMlp {
            layers: vec![
                AxLayer {
                    input_bits: 8,
                    neurons: hidden,
                    qrelu: Some(QReluCfg { out_bits: 8, shift }),
                },
                AxLayer {
                    input_bits: 8,
                    neurons: outputs,
                    qrelu: None,
                },
            ],
        };
        // The extreme rows reach both ends of every hidden range.
        let mut rows = vec![vec![0xFF; 3], vec![0; 3]];
        rows.extend(rows_raw);
        let cols = QuantMatrix::from_rows(&rows).columns();
        let mut oracle_scratch = InferenceScratch::new();
        let oracle = ColumnLabels::new(
            rows.iter().map(|r| mlp.predict_with(r, &mut oracle_scratch)).collect(),
        );
        let hits = hits_columns(&mlp, &cols, &oracle, &mut ColumnarScratch::new(), None);
        prop_assert_eq!(hits, rows.len(), "kernel {:?} diverged", kernel_mode());
    }

    /// Resident trials on random single-neuron edits of
    /// [`resident_net`]s, over row counts around the 16-sample stripes:
    /// each trial counts the hits a fresh pass over the edited network
    /// counts, and after an undo, re-scoring through the last layer
    /// counts the unedited network's. Kept edits stay in the network
    /// the next trial starts from.
    #[test]
    fn a_resident_trial_counts_what_a_fresh_pass_counts(
        mut mlp in resident_net(),
        rows in prop_oneof![Just(0usize), Just(1), Just(15), Just(16), Just(17), Just(2000)],
        row_seed in any::<u64>(),
        edits in edits(),
    ) {
        let mut rng = StdRng::seed_from_u64(row_seed);
        let rows: Vec<Vec<u8>> = (0..rows).map(|_| (0..3).map(|_| rng.gen()).collect()).collect();
        let cols = QuantMatrix::from_rows(&rows).columns();
        let mut oracle_scratch = InferenceScratch::new();
        let labels = ColumnLabels::new(
            rows.iter().map(|r| mlp.predict_with(r, &mut oracle_scratch)).collect(),
        );
        let fresh = |mlp: &AxMlp| hits_columns(mlp, &cols, &labels, &mut ColumnarScratch::new(), None);
        let mut pass = ResidentPass::new(cols.clone(), labels.clone());
        prop_assert_eq!(pass.run(&mlp), fresh(&mlp));
        let last = mlp.layers.len() - 1;
        for (draws, keep) in edits {
            let mut edited = mlp.clone();
            let (li, ni) = edit(&mut edited, draws);
            let hits = pass.trial(&edited, li, ni);
            let want = fresh(&edited);
            prop_assert_eq!(hits, want, "kernel {:?}, trial on {:?}", kernel_mode(), (li, ni));
            if keep {
                mlp = edited;
            } else {
                pass.undo();
                let hits = pass.trial(&mlp, last, 0);
                let want = fresh(&mlp);
                prop_assert_eq!(hits, want, "kernel {:?}, re-score after undo", kernel_mode());
            }
        }
    }
}

/// Deterministic saturation boundaries: one weight set just inside the
/// `i32` worst-case bound (the narrow path) and one just past it (the
/// wide path), against the per-sample oracle.
#[test]
fn kernels_agree_on_both_sides_of_the_i32_boundary() {
    let big = AxWeight {
        mask: 0xFF,
        shift: 22,
        negative: false,
    };
    let narrow = AxNeuron {
        weights: vec![big, big],
        bias: 5,
    };
    let wide = AxNeuron {
        weights: vec![big, big, big],
        bias: 5,
    };
    assert!(fits_i32(&narrow));
    assert!(!fits_i32(&wide));

    let samples = 33;
    for neuron in [&narrow, &wide] {
        let inputs: Vec<Vec<u8>> = (0..neuron.weights.len())
            .map(|w| {
                (0..samples)
                    .map(|s| ((s * 37 + w * 11) % 256) as u8)
                    .collect()
            })
            .collect();
        let (got, want) = both(neuron, &inputs, samples);
        assert_eq!(
            got,
            want,
            "kernel {:?} diverged at a boundary",
            kernel_mode()
        );
    }
}

/// The kernels are the pair kernels exactly where they run: the `simd`
/// feature built on x86_64, on a host with AVX2.
#[test]
fn the_platform_picks_the_kernel() {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let pairs = std::is_x86_feature_detected!("avx2");
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let pairs = false;
    assert_eq!(pairs, pe_mlp::simd::i16_lanes());
    let expected = if pairs {
        KernelKind::Simd
    } else {
        KernelKind::Scalar
    };
    assert_eq!(kernel_mode(), expected);
}

/// `mlp` computing the same function off `i16` lanes: rows gain `extra`
/// more features, 0 in every row, and the first layer's neurons weigh
/// each at a full mask and `shift`, positive where their bias is not
/// negative and negative where it is; each hidden layer gains `extra`
/// neurons whose masks are all 0 and whose bias −1 makes them output 0,
/// and the next layer's neurons weigh them the same way. Every weight
/// added multiplies a 0.
fn twin(mlp: &AxMlp, rows: &[Vec<u8>], shift: u8, extra: usize) -> (AxMlp, Vec<Vec<u8>>) {
    let mut twin = mlp.clone();
    let count = twin.layers.len();
    for li in 0..count {
        for n in &mut twin.layers[li].neurons {
            let beyond = w(0xFF, shift, n.bias < 0);
            n.weights.extend(std::iter::repeat_n(beyond, extra));
        }
        if twin.layers[li].qrelu.is_some() && li + 1 < count {
            let fan_in = twin.layers[li].neurons[0].weights.len();
            let zero = AxNeuron {
                weights: vec![w(0, 0, false); fan_in],
                bias: -1,
            };
            twin.layers[li]
                .neurons
                .extend(std::iter::repeat_n(zero, extra));
        }
    }
    let rows = rows
        .iter()
        .map(|r| {
            r.iter()
                .copied()
                .chain(std::iter::repeat_n(0, extra))
                .collect()
        })
        .collect();
    (twin, rows)
}

/// `mlp`'s twin whose every layer leaves `i16` lanes through a shift of
/// 7, which the pair kernels cannot multiply by: the portable loops run
/// it.
fn i32_twin(mlp: &AxMlp, rows: &[Vec<u8>]) -> (AxMlp, Vec<Vec<u8>>) {
    let (twin, rows) = twin(mlp, rows, 7, 1);
    for layer in &twin.layers {
        assert!(!layer_fits_i16(layer), "the twin leaves the i16 lanes");
    }
    (twin, rows)
}

/// `mlp`'s twin whose every range leaves `i16` through three more terms
/// of 255 · 64 at shift 6: its argmax layer takes the pair kernels on
/// `i32` lanes (every live shift at most 6, every range inside `i32`),
/// its hidden layers the portable loops.
fn range_twin(mlp: &AxMlp, rows: &[Vec<u8>]) -> (AxMlp, Vec<Vec<u8>>) {
    let (twin, rows) = twin(mlp, rows, 6, 3);
    for layer in &twin.layers {
        assert!(!layer_fits_i16(layer), "the twin leaves the i16 lanes");
    }
    let argmax = twin.layers.iter().find(|l| l.qrelu.is_none());
    for n in argmax.map_or(&[][..], |l| &l.neurons) {
        let live = n.weights.iter().filter(|w| w.mask & 0xFF != 0);
        assert!(live.map(|w| w.shift).all(|k| k <= 6) && fits_i32(n));
    }
    (twin, rows)
}

/// The row oracle's prediction for each of `rows`.
fn oracle_classes(mlp: &AxMlp, rows: &[Vec<u8>]) -> Vec<usize> {
    let mut oracle = InferenceScratch::new();
    rows.iter()
        .map(|r| mlp.predict_with(r, &mut oracle))
        .collect()
}

/// Hits of `net` over `rows` against `classes`: every row, and none
/// with every class moved up by one.
fn assert_hits_every_row(net: &AxMlp, rows: &[Vec<u8>], classes: &[usize], what: &str) {
    let cols = QuantMatrix::from_rows(rows).columns();
    let mut scratch = ColumnarScratch::new();
    let labels = ColumnLabels::new(classes.to_vec());
    let hits = hits_columns(net, &cols, &labels, &mut scratch, None);
    assert_eq!(hits, rows.len(), "{what}: {} rows", rows.len());
    let moved = ColumnLabels::new(classes.iter().map(|&c| c + 1).collect());
    assert_eq!(
        hits_columns(net, &cols, &moved, &mut scratch, None),
        0,
        "{what}"
    );
}

/// Hits of `mlp` over `rows` against the row oracle's predictions as
/// labels, on the columnar pass and on its [`i32_twin`] and
/// [`range_twin`]; each must hit every row, and a relabelled copy must
/// hit none.
fn assert_both_rungs_match_the_oracle(mlp: &AxMlp, rows: &[Vec<u8>], what: &str) {
    let classes = oracle_classes(mlp, rows);
    let (twin, twin_rows) = i32_twin(mlp, rows);
    let (range, range_rows) = range_twin(mlp, rows);
    let nets = [
        (mlp, rows),
        (&twin, &twin_rows[..]),
        (&range, &range_rows[..]),
    ];
    for (net, rows) in nets {
        assert_hits_every_row(net, rows, &classes, what);
    }
}

/// `n` rows of `width` bytes: all 255, all 0, then a seeded spread.
fn edge_rows(n: usize, width: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|r| match r {
            0 => vec![0xFF; width],
            1 => vec![0; width],
            _ => (0..width).map(|_| rng.gen()).collect(),
        })
        .collect()
}

fn w(mask: u16, shift: u8, negative: bool) -> AxWeight {
    AxWeight {
        mask,
        shift,
        negative,
    }
}

/// A hidden layer over 3 inputs (its last pair half empty) and an
/// argmax layer over its 5 neurons (again an odd count): pairs with the
/// first weight masked and the second live and the other way round,
/// pair sums reaching ±32,640 (both inputs 255, both multipliers ±64),
/// the multiplier pairs of unequal shifts, and two output neurons that
/// tie on every row.
fn odd_pair_net(shift: u8) -> AxMlp {
    let hidden = vec![
        AxNeuron {
            weights: vec![w(0, 3, false), w(0xFF, shift, false), w(0x0F, 2, false)],
            bias: -300,
        },
        AxNeuron {
            weights: vec![w(0xFF, 6, false), w(0xFF, 6, false), w(0, 5, true)],
            bias: 127,
        },
        AxNeuron {
            weights: vec![w(0xFF, 6, true), w(0xFF, 6, true), w(0x3C, 1, false)],
            bias: 32512,
        },
        AxNeuron {
            weights: vec![w(0x5A, 1, false), w(0, 0, false), w(0xF0, 4, true)],
            bias: -9,
        },
        AxNeuron {
            weights: vec![w(0x81, 0, true), w(0x7E, 5, false), w(0xFF, 3, false)],
            bias: 300,
        },
    ];
    let out = |i: u8| AxNeuron {
        weights: (0..5)
            .map(|j| {
                w(
                    if (i + j).is_multiple_of(4) {
                        0
                    } else {
                        0xFF >> (j % 3)
                    },
                    (i + 2 * j) % 5,
                    (i + j) % 2 == 1,
                )
            })
            .collect(),
        bias: i32::from(i) * 7 - 10,
    };
    let mut outputs: Vec<AxNeuron> = (0..4).map(out).collect();
    outputs.insert(2, outputs[1].clone());
    AxMlp {
        layers: vec![
            AxLayer {
                input_bits: 8,
                neurons: hidden,
                qrelu: Some(QReluCfg {
                    out_bits: 8,
                    shift: 7,
                }),
            },
            AxLayer {
                input_bits: 8,
                neurons: outputs,
                qrelu: None,
            },
        ],
    }
}

/// The pair kernels' edges, on `i16` lanes where the weights allow
/// (every shift at most 6) and the portable loops otherwise, against the
/// row oracle and the twins: odd fan-ins and widths, one-sided pairs,
/// pair sums at ±32,640, ties, and row counts around the 16-row stripes.
#[test]
fn the_pair_kernels_match_the_row_oracle_and_the_i32_rung_at_their_edges() {
    for shift in [6, 7] {
        let mlp = odd_pair_net(shift);
        assert_eq!(layer_fits_i16(&mlp.layers[0]), shift == 6, "shift {shift}");
        assert!(layer_fits_i16(&mlp.layers[1]));
        for rows in [0, 1, 15, 16, 17, 2001] {
            let what = format!("shift {shift}");
            assert_both_rungs_match_the_oracle(&mlp, &edge_rows(rows, 3, rows as u64), &what);
        }
    }
}

/// Argmax layers wider than the kernel holds in registers: 20 classes
/// (more than 16) over 11 hidden inputs (more than 8, so 6 pairs in two
/// blocks with partial sums between them; 7 in the range twin), with
/// ties, on `i16` lanes, against the row oracle and the twins.
#[test]
fn wide_argmax_layers_match_the_row_oracle_and_the_i32_rung() {
    let mut rng = StdRng::seed_from_u64(0xa46);
    let q = Some(QReluCfg {
        out_bits: 8,
        shift: 4,
    });
    let neuron = |rng: &mut StdRng, fan_in: usize, mask: u16, shift: u8| AxNeuron {
        weights: (0..fan_in)
            .map(|_| w(rng.gen_range(0..=mask), rng.gen_range(0..=shift), rng.gen()))
            .collect(),
        bias: rng.gen_range(-200..200),
    };
    for (hidden, classes) in [(11, 20), (9, 17), (8, 3), (2, 20)] {
        let h: Vec<AxNeuron> = (0..hidden).map(|_| neuron(&mut rng, 4, 0xFF, 6)).collect();
        let mut o: Vec<AxNeuron> = (0..classes)
            .map(|_| neuron(&mut rng, hidden, 0x3F, 2))
            .collect();
        o[classes - 1] = o[classes / 2].clone();
        let mlp = AxMlp {
            layers: vec![
                AxLayer {
                    input_bits: 8,
                    neurons: h,
                    qrelu: q,
                },
                AxLayer {
                    input_bits: 8,
                    neurons: o,
                    qrelu: None,
                },
            ],
        };
        assert!(
            mlp.layers.iter().all(layer_fits_i16),
            "{hidden} × {classes}"
        );
        for rows in [17, 2001] {
            let what = format!("{hidden} hidden, {classes} classes");
            assert_both_rungs_match_the_oracle(&mlp, &edge_rows(rows, 4, 7), &what);
        }
    }
}

/// Argmax layers on the `i32` bounds, over `n` inputs at full masks and
/// shift 6 (`S = 16,320 · n`; pair sums of ±32,640 where both inputs
/// are 255): `top` reaches `i32::MAX` and `bottom` `−i32::MAX`, each
/// with `|bias| + S = i32::MAX` (the [`fits_i32`] bound); `fall` tops
/// out at `i32::MAX` too, `floor` reaches `i32::MIN` one below `bottom`
/// on every row, `rise` starts at `−i32::MAX`, and a copy of `top`
/// ties it. Their argmax takes the pair kernels on `i32` lanes; with
/// `top` one past the bound, the portable `i64` loop. Odd and even
/// fan-ins, more than 4 pairs, and row counts around the 16-row
/// stripes, against the row oracle.
#[test]
fn argmax_layers_on_the_i32_bounds_match_the_row_oracle() {
    let argmax = |neurons: Vec<AxNeuron>| AxMlp {
        layers: vec![AxLayer {
            input_bits: 8,
            neurons,
            qrelu: None,
        }],
    };
    for n in [1, 2, 3, 9] {
        let span = 16_320 * n as i32;
        let all = |negative: bool, bias: i32| AxNeuron {
            weights: vec![w(0xFF, 6, negative); n],
            bias,
        };
        let top = all(false, i32::MAX - span);
        let bottom = all(true, -(i32::MAX - span));
        assert!(fits_i32(&top) && fits_i32(&bottom));
        let past = all(false, i32::MAX - span + 1);
        assert!(!fits_i32(&past));
        let layers = [
            vec![top.clone(), all(true, i32::MAX), top.clone()],
            vec![bottom, all(true, i32::MIN + span), all(false, -i32::MAX)],
            vec![past, all(true, i32::MAX), top],
        ];
        for neurons in layers {
            let mlp = argmax(neurons);
            assert!(!layer_fits_i16(&mlp.layers[0]));
            for rows in [0, 1, 15, 16, 17, 2001] {
                let data = edge_rows(rows, n, rows as u64);
                let biases: Vec<i32> = mlp.layers[0].neurons.iter().map(|x| x.bias).collect();
                let what = format!("{n} inputs, biases {biases:?}");
                assert_hits_every_row(&mlp, &data, &oracle_classes(&mlp, &data), &what);
            }
        }
    }
}

/// A resident trial on each neuron of an odd-width hidden layer (the
/// pair kernel runs that one neuron) counts what a fresh pass over the
/// edited network counts, and an undo restores the original's count.
#[test]
fn a_resident_trial_on_each_neuron_of_an_odd_hidden_layer_counts_a_fresh_pass() {
    let mlp = odd_pair_net(6);
    for rows in [15, 17, 2001] {
        let data = edge_rows(rows, 3, 11);
        let mut oracle = InferenceScratch::new();
        let labels = ColumnLabels::new(
            data.iter()
                .map(|r| mlp.predict_with(r, &mut oracle))
                .collect(),
        );
        let cols = QuantMatrix::from_rows(&data).columns();
        let fresh =
            |mlp: &AxMlp| hits_columns(mlp, &cols, &labels, &mut ColumnarScratch::new(), None);
        let mut pass = ResidentPass::new(cols.clone(), labels.clone());
        assert_eq!(pass.run(&mlp), rows);
        for ni in 0..mlp.layers[0].neurons.len() {
            let mut edited = mlp.clone();
            let neuron = &mut edited.layers[0].neurons[ni];
            neuron.weights[ni % 3].negative ^= true;
            neuron.bias -= 40;
            assert!(layer_fits_i16(&edited.layers[0]), "neuron {ni}");
            assert_eq!(pass.trial(&edited, 0, ni), fresh(&edited), "neuron {ni}");
            pass.undo();
            assert_eq!(pass.trial(&mlp, 1, 0), rows, "neuron {ni}, after the undo");
        }
    }
}
