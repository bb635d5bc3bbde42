//! Structural netlists for bespoke printed circuits.
//!
//! A [`Netlist`] is a flat list of primitive-cell instances plus
//! *macro blocks* (QReLU saturation units, argmax comparator trees)
//! whose gate content is costed analytically and emitted behaviourally
//! in Verilog. Nets are integer handles allocated by the netlist; the
//! elaborators in [`crate::neuron`] wire full adder trees bit by bit so
//! that cell counts are exact, not estimated.

use serde::{Deserialize, Serialize};

use crate::tech::{Cell, CellCounts};

/// Handle of a net (wire) in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub u32);

/// One primitive cell instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instance {
    /// Cell kind.
    pub cell: Cell,
    /// Input nets, in cell-port order (e.g. `a, b, cin` for an FA).
    pub inputs: Vec<NetId>,
    /// Output nets, in cell-port order (e.g. `sum, cout` for an FA).
    pub outputs: Vec<NetId>,
}

/// A block costed by analytic gate counts and emitted behaviourally.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MacroBlock {
    /// Descriptive name (e.g. `"qrelu_l1_n0"`).
    pub name: String,
    /// Gate content charged to the cost model.
    pub gates: CellCounts,
    /// Input nets.
    pub inputs: Vec<NetId>,
    /// Output nets.
    pub outputs: Vec<NetId>,
    /// Behavioural description for the Verilog emitter.
    pub behavior: String,
}

/// Named top-level port.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Port {
    /// Port name in the emitted HDL.
    pub name: String,
    /// Net carried by the port.
    pub net: NetId,
}

/// A structural gate-level netlist.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    next_net: u32,
    instances: Vec<Instance>,
    macros: Vec<MacroBlock>,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
    /// Net tied to constant 1, if any cell needed it.
    tie_hi: Option<NetId>,
    /// Net tied to constant 0, if any cell needed it.
    tie_lo: Option<NetId>,
}

impl Netlist {
    /// Create an empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh net.
    pub fn net(&mut self) -> NetId {
        let id = NetId(self.next_net);
        self.next_net += 1;
        id
    }

    /// Allocate `n` fresh nets.
    pub fn nets(&mut self, n: usize) -> Vec<NetId> {
        (0..n).map(|_| self.net()).collect()
    }

    /// Net carrying constant logic-1 (allocates the tie cell on first use).
    pub fn const_one(&mut self) -> NetId {
        if let Some(n) = self.tie_hi {
            return n;
        }
        let n = self.net();
        self.instances.push(Instance {
            cell: Cell::TieHi,
            inputs: vec![],
            outputs: vec![n],
        });
        self.tie_hi = Some(n);
        n
    }

    /// Net carrying constant logic-0 (allocates the tie cell on first use).
    pub fn const_zero(&mut self) -> NetId {
        if let Some(n) = self.tie_lo {
            return n;
        }
        let n = self.net();
        self.instances.push(Instance {
            cell: Cell::TieLo,
            inputs: vec![],
            outputs: vec![n],
        });
        self.tie_lo = Some(n);
        n
    }

    /// Add a full adder; returns `(sum, carry)` nets.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        let sum = self.net();
        let cout = self.net();
        self.instances.push(Instance {
            cell: Cell::Fa,
            inputs: vec![a, b, cin],
            outputs: vec![sum, cout],
        });
        (sum, cout)
    }

    /// Add an inverter; returns the output net.
    pub fn inverter(&mut self, a: NetId) -> NetId {
        let y = self.net();
        self.instances.push(Instance {
            cell: Cell::Not,
            inputs: vec![a],
            outputs: vec![y],
        });
        y
    }

    /// Add an arbitrary 2-input gate; returns the output net.
    pub fn gate2(&mut self, cell: Cell, a: NetId, b: NetId) -> NetId {
        debug_assert!(matches!(cell, Cell::And2 | Cell::Or2 | Cell::Xor2));
        let y = self.net();
        self.instances.push(Instance {
            cell,
            inputs: vec![a, b],
            outputs: vec![y],
        });
        y
    }

    /// Add a D flip-flop from `d` to a fresh output net; returns it.
    pub fn dff(&mut self, d: NetId) -> NetId {
        let q = self.net();
        self.instances.push(Instance {
            cell: Cell::Dff,
            inputs: vec![d],
            outputs: vec![q],
        });
        q
    }

    /// Add a 2:1 mux (`sel ? a : b`); returns the output net.
    pub fn mux2(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        let y = self.net();
        self.instances.push(Instance {
            cell: Cell::Mux2,
            inputs: vec![sel, a, b],
            outputs: vec![y],
        });
        y
    }

    /// Register a macro block.
    pub fn add_macro(&mut self, block: MacroBlock) {
        self.macros.push(block);
    }

    /// Declare a top-level input port.
    pub fn add_input(&mut self, name: impl Into<String>, net: NetId) {
        self.inputs.push(Port {
            name: name.into(),
            net,
        });
    }

    /// Declare a top-level output port.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push(Port {
            name: name.into(),
            net,
        });
    }

    /// All primitive instances.
    #[must_use]
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// All macro blocks.
    #[must_use]
    pub fn macros(&self) -> &[MacroBlock] {
        &self.macros
    }

    /// Top-level input ports.
    #[must_use]
    pub fn input_ports(&self) -> &[Port] {
        &self.inputs
    }

    /// Top-level output ports.
    #[must_use]
    pub fn output_ports(&self) -> &[Port] {
        &self.outputs
    }

    /// Number of allocated nets.
    #[must_use]
    pub fn net_count(&self) -> u32 {
        self.next_net
    }

    /// Aggregate cell counts: primitive instances plus macro gate content.
    #[must_use]
    pub fn cell_counts(&self) -> CellCounts {
        let mut counts = CellCounts::new();
        for inst in &self.instances {
            counts.add(inst.cell, 1);
        }
        for m in &self.macros {
            counts.merge(&m.gates);
        }
        counts
    }

    /// Simulate the primitive portion of the netlist.
    ///
    /// `inputs` assigns values to externally driven nets (primary
    /// inputs); every instance is evaluated in insertion order, which
    /// the elaborators guarantee is topological. Macro blocks are
    /// behavioural and are *not* simulated — their output nets stay
    /// undriven. [`Cell::Dff`] is treated as transparent (one-cycle
    /// simulation).
    ///
    /// Returns the final value of every driven net. Reading an undriven
    /// net yields `false`.
    ///
    /// # Panics
    ///
    /// Panics if an instance reads a net that is neither an input nor a
    /// previous instance's output — indicating a non-topological
    /// netlist, which the elaborators never produce.
    #[must_use]
    pub fn simulate(&self, inputs: &std::collections::HashMap<NetId, bool>) -> Vec<bool> {
        let mut value = vec![false; self.next_net as usize];
        let mut driven = vec![false; self.next_net as usize];
        for (&net, &v) in inputs {
            value[net.0 as usize] = v;
            driven[net.0 as usize] = true;
        }
        let read = |net: NetId, value: &[bool], driven: &[bool]| -> bool {
            assert!(
                driven[net.0 as usize],
                "net {} read before being driven (non-topological netlist?)",
                net.0
            );
            value[net.0 as usize]
        };
        for inst in &self.instances {
            let outs: Vec<bool> = match inst.cell {
                Cell::Fa => {
                    let a = read(inst.inputs[0], &value, &driven);
                    let b = read(inst.inputs[1], &value, &driven);
                    let c = read(inst.inputs[2], &value, &driven);
                    vec![a ^ b ^ c, (a & b) | (c & (a ^ b))]
                }
                Cell::Ha => {
                    let a = read(inst.inputs[0], &value, &driven);
                    let b = read(inst.inputs[1], &value, &driven);
                    vec![a ^ b, a & b]
                }
                Cell::Not => vec![!read(inst.inputs[0], &value, &driven)],
                Cell::And2 => vec![
                    read(inst.inputs[0], &value, &driven) & read(inst.inputs[1], &value, &driven),
                ],
                Cell::Or2 => vec![
                    read(inst.inputs[0], &value, &driven) | read(inst.inputs[1], &value, &driven),
                ],
                Cell::Xor2 => vec![
                    read(inst.inputs[0], &value, &driven) ^ read(inst.inputs[1], &value, &driven),
                ],
                Cell::Mux2 => {
                    let sel = read(inst.inputs[0], &value, &driven);
                    let a = read(inst.inputs[1], &value, &driven);
                    let b = read(inst.inputs[2], &value, &driven);
                    vec![if sel { a } else { b }]
                }
                Cell::TieHi => vec![true],
                Cell::TieLo => vec![false],
                Cell::Dff => vec![read(inst.inputs[0], &value, &driven)],
            };
            for (net, v) in inst.outputs.iter().zip(outs) {
                value[net.0 as usize] = v;
                driven[net.0 as usize] = true;
            }
        }
        value
    }

    /// Merge `other` into `self`, remapping its nets and returning the
    /// offset added to every net id of `other`.
    pub fn absorb(&mut self, other: Netlist) -> u32 {
        let offset = self.next_net;
        let remap = |n: NetId| NetId(n.0 + offset);
        self.next_net += other.next_net;
        for mut inst in other.instances {
            for n in &mut inst.inputs {
                *n = remap(*n);
            }
            for n in &mut inst.outputs {
                *n = remap(*n);
            }
            // Keep at most one tie cell of each polarity in the merged
            // netlist only if we had none; otherwise the duplicate stays
            // (its cost is negligible and net identity stays simple).
            self.instances.push(inst);
        }
        for mut m in other.macros {
            for n in &mut m.inputs {
                *n = remap(*n);
            }
            for n in &mut m.outputs {
                *n = remap(*n);
            }
            self.macros.push(m);
        }
        for mut p in other.inputs {
            p.net = remap(p.net);
            self.inputs.push(p);
        }
        for mut p in other.outputs {
            p.net = remap(p.net);
            self.outputs.push(p);
        }
        offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_nets_are_unique() {
        let mut nl = Netlist::new();
        let a = nl.net();
        let b = nl.net();
        assert_ne!(a, b);
        assert_eq!(nl.net_count(), 2);
    }

    #[test]
    fn tie_cells_are_shared() {
        let mut nl = Netlist::new();
        let one_a = nl.const_one();
        let one_b = nl.const_one();
        assert_eq!(one_a, one_b);
        assert_eq!(nl.cell_counts().get(Cell::TieHi), 1);
    }

    #[test]
    fn adder_cells_report_counts() {
        let mut nl = Netlist::new();
        let a = nl.net();
        let b = nl.net();
        let c = nl.net();
        let (s, co) = nl.full_adder(a, b, c);
        let (_s2, _co2) = nl.full_adder(s, co, c);
        let _ = nl.inverter(s);
        let counts = nl.cell_counts();
        assert_eq!(counts.get(Cell::Fa), 2);
        assert_eq!(counts.get(Cell::Not), 1);
        assert_eq!(counts.get(Cell::Ha), 0);
    }

    #[test]
    fn macros_contribute_gate_counts() {
        let mut nl = Netlist::new();
        let mut gates = CellCounts::new();
        gates.add(Cell::Or2, 7);
        nl.add_macro(MacroBlock {
            name: "qrelu".into(),
            gates,
            inputs: vec![],
            outputs: vec![],
            behavior: String::new(),
        });
        assert_eq!(nl.cell_counts().get(Cell::Or2), 7);
    }

    #[test]
    fn absorb_remaps_everything() {
        let mut a = Netlist::new();
        let x = a.net();
        a.add_input("x", x);
        let mut b = Netlist::new();
        let y = b.net();
        let z = b.inverter(y);
        b.add_output("z", z);
        let offset = a.absorb(b);
        assert_eq!(offset, 1);
        assert_eq!(a.net_count(), 3);
        assert_eq!(a.output_ports()[0].net, NetId(z.0 + offset));
        assert_eq!(a.instances().len(), 1);
        assert_eq!(a.instances()[0].inputs[0], NetId(y.0 + offset));
    }
}
