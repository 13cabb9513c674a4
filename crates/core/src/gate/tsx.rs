//! TSX-based weird gates (§4, Figure 3).
//!
//! Every gate is one transaction: an `xbegin`, an immediate divide-by-zero,
//! and a dependent load chain. The fault dooms the transaction, but the
//! pipeline keeps executing the chain for a short *post-fault speculative
//! window* before the abort squashes it. Whether the chain's final access
//! issues inside that window depends on whether its inputs were cache hits
//! — which is the boolean function.
//!
//! The construction is the same for every gate; only the chain differs.
//! [`TsxOp`] is the one table of what differs per op — paper name, arity,
//! outputs, output pre-set, reference truth and chain — and [`TsxGate`] is
//! the one gate type built from it. [Weird circuits](crate::circuit) chain
//! the same `TsxGate`s, and [`TsxXor`] is three of them.
//!
//! All inputs and outputs are DC-WRs (variables holding the value 0, so
//! `value + ADDR(out)` dereferences `out`). Because every register is the
//! same kind, gate outputs feed directly into later gates' inputs with no
//! architectural intermediate.
//!
//! Reads of intermediate registers never happen; the paper stresses that a
//! debugger attached to the transaction sees only `xbegin` followed by the
//! abort handler.
//!
//! Every gate follows the spec/instance split: [`TsxGate::spec`] and
//! [`TsxGate::spec_wired`] produce a machine-independent [`GateSpec`] from
//! a [`Layout`] alone, and [`GateSpec::instantiate`] binds it to a
//! [`Substrate`]. That is the only way to construct a runnable gate.

use std::sync::Arc;

use crate::error::Result;
use crate::gate::sealed::Bind;
use crate::gate::{check_arity, decode, set_dc, GateReading, GateSpec, ProgramUnit, WeirdGate};
use crate::layout::Layout;
use crate::substrate::Substrate;
use uwm_sim::isa::{AluOp, Assembler, Inst, Operand};

const R_TRASH: u8 = 1;
const R_A: u8 = 2;
const R_B: u8 = 5;
const R_T0: u8 = 6;
const R_T1: u8 = 7;
const R_T2: u8 = 8;

/// Assembles the transaction prologue (`xbegin` + faulting divide), runs
/// `chain` to emit the gate body, and closes with `xend` + abort handler.
/// Returns the entry pc and the program fragment; nothing touches a
/// machine.
fn emit_tx(
    lay: &mut Layout,
    insts: u64,
    chain: impl FnOnce(&mut Assembler),
) -> Result<(u64, ProgramUnit)> {
    let base = lay.alloc_app_code((insts + 4) * 8)?;
    let mut a = Assembler::new(base);
    a.xbegin("handler");
    a.push(Inst::Div {
        dst: R_TRASH,
        a: R_TRASH,
        b: Operand::Imm(0),
    });
    chain(&mut a);
    a.push(Inst::Xend); // unreachable: the fault always aborts
    a.label("handler")?;
    a.push(Inst::Halt);
    let end = a.pc();
    // skelly "initializes [gate memory] at run time" (§6.2): a cold code
    // line would lose the speculative race on the first activation, so the
    // spec declares the whole transaction for warming at instantiation.
    Ok((
        base,
        ProgramUnit {
            program: Arc::new(a.finish()?),
            warm: Some((base, end)),
        },
    ))
}

/// Emits `*(reg + ADDR(out))` — the output-setting dereference.
fn emit_deref(a: &mut Assembler, src: u8, tmp: u8, out: u64) {
    a.push(Inst::Alu {
        op: AluOp::Add,
        dst: tmp,
        a: src,
        b: Operand::Imm(out as u32),
    });
    a.push(Inst::LoadInd {
        dst: R_TRASH,
        base: tmp,
        offset: 0,
    });
}

/// Emits `dst := *a + *b` — the sum is 0 only if both loads arrived, so a
/// dereference through it is the AND.
fn emit_sum(a: &mut Assembler, dst: u8) {
    a.push(Inst::Alu {
        op: AluOp::Add,
        dst,
        a: R_A,
        b: Operand::Reg(R_B),
    });
}

/// The TSX ops: everything that differs between the gates of the family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TsxOp {
    /// `out := a` — a single dependent dereference racing the post-fault
    /// window; the WR-to-WR transfer primitive that makes circuits
    /// possible (§4).
    Assign,
    /// `out := !a` — a speculative `clflush` of the output, pre-set to 1,
    /// with an address dependency on the input. (Our construction: the
    /// paper uses a NOT inside its XOR but does not spell it out.)
    Not,
    /// `out := a & b` via `*(*a + *b + ADDR(out))`.
    And,
    /// `out := a | b` — two independent assignment chains into one output.
    Or,
    /// The combined gate of Figure 3: one transaction computing
    /// `a & b` (first output) and `a | b` (second output).
    AndOr,
}

impl TsxOp {
    /// Every op, in declaration order.
    pub const ALL: [TsxOp; 5] = [
        TsxOp::Assign,
        TsxOp::Not,
        TsxOp::And,
        TsxOp::Or,
        TsxOp::AndOr,
    ];

    /// Gate name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            TsxOp::Assign => "TSX_ASSIGN",
            TsxOp::Not => "TSX_NOT",
            TsxOp::And => "TSX_AND",
            TsxOp::Or => "TSX_OR",
            TsxOp::AndOr => "TSX_AND_OR",
        }
    }

    /// Number of input registers.
    pub fn arity(self) -> usize {
        match self {
            TsxOp::Assign | TsxOp::Not => 1,
            TsxOp::And | TsxOp::Or | TsxOp::AndOr => 2,
        }
    }

    /// Number of output registers.
    pub fn outputs(self) -> usize {
        match self {
            TsxOp::AndOr => 2,
            _ => 1,
        }
    }

    /// The value every output is initialized to before activation: only
    /// NOT's chain clears its output, so only NOT pre-sets 1.
    pub fn preset(self) -> bool {
        self == TsxOp::Not
    }

    /// Reference truth: the op's outputs for inputs `a`, `b` (`b` is
    /// ignored by one-input ops; entries past [`TsxOp::outputs`] are
    /// `false`).
    pub fn eval(self, a: bool, b: bool) -> [bool; 2] {
        match self {
            TsxOp::Assign => [a, false],
            TsxOp::Not => [!a, false],
            TsxOp::And => [a & b, false],
            TsxOp::Or => [a | b, false],
            TsxOp::AndOr => [a & b, a | b],
        }
    }

    /// Instructions in the op's dependent chain.
    fn chain_len(self) -> u64 {
        match self {
            TsxOp::Assign => 3,
            TsxOp::Not => 2,
            TsxOp::And => 5,
            TsxOp::Or => 6,
            TsxOp::AndOr => 9,
        }
    }

    /// Emits the op's dependent chain over input and output registers.
    fn emit_chain(self, a: &mut Assembler, ins: [u64; 2], outs: [u64; 2]) {
        a.push(Inst::Load {
            dst: R_A,
            addr: ins[0] as u32,
        });
        if self.arity() == 2 {
            a.push(Inst::Load {
                dst: R_B,
                addr: ins[1] as u32,
            });
        }
        match self {
            TsxOp::Assign => emit_deref(a, R_A, R_T0, outs[0]),
            TsxOp::Not => {
                a.push(Inst::FlushInd {
                    base: R_A,
                    offset: outs[0] as u32,
                });
            }
            TsxOp::And => {
                emit_sum(a, R_T0);
                emit_deref(a, R_T0, R_T1, outs[0]);
            }
            TsxOp::Or => {
                emit_deref(a, R_A, R_T0, outs[0]);
                emit_deref(a, R_B, R_T1, outs[0]);
            }
            TsxOp::AndOr => {
                emit_deref(a, R_A, R_T0, outs[1]); // d3 := d0
                emit_deref(a, R_B, R_T1, outs[1]); // d3 := d1
                emit_sum(a, R_T2);
                emit_deref(a, R_T2, R_T2, outs[0]); // d2 := d0 & d1
            }
        }
    }
}

/// One TSX gate: a [`TsxOp`] wired to input and output registers.
///
/// # Examples
///
/// ```
/// use uwm_core::gate::tsx::{TsxGate, TsxOp};
/// use uwm_core::gate::WeirdGate;
/// use uwm_core::layout::Layout;
/// use uwm_sim::machine::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::quiet(), 0);
/// let mut lay = Layout::new(m.predictor().alias_stride());
/// let gate = TsxGate::spec(&mut lay, TsxOp::Assign).unwrap().instantiate(&mut m);
/// assert!(gate.execute(&mut m, &[true]).unwrap());
/// assert!(!gate.execute(&mut m, &[false]).unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsxGate {
    op: TsxOp,
    pc: u64,
    ins: [u64; 2],
    outs: [u64; 2],
    threshold: u64,
}

impl TsxGate {
    /// Describes the gate with freshly allocated registers: the inputs,
    /// then the outputs.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec(lay: &mut Layout, op: TsxOp) -> Result<GateSpec<Self>> {
        let mut regs = [0; 4];
        let n = op.arity() + op.outputs();
        for r in &mut regs[..n] {
            *r = lay.alloc_var()?;
        }
        Self::spec_wired(lay, op, &regs[..op.arity()], &regs[op.arity()..n])
    }

    /// Describes the gate over existing registers (circuit wiring).
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::CoreError::Arity`] unless `ins` holds
    /// [`TsxOp::arity`] and `outs` [`TsxOp::outputs`] addresses; fails on
    /// layout exhaustion or assembly error.
    pub fn spec_wired(
        lay: &mut Layout,
        op: TsxOp,
        ins: &[u64],
        outs: &[u64],
    ) -> Result<GateSpec<Self>> {
        check_arity(op.name(), op.arity(), ins.len())?;
        check_arity(op.name(), op.outputs(), outs.len())?;
        let mut gate = Self {
            op,
            pc: 0,
            ins: [0; 2],
            outs: [0; 2],
            threshold: 0,
        };
        gate.ins[..ins.len()].copy_from_slice(ins);
        gate.outs[..outs.len()].copy_from_slice(outs);
        let (pc, unit) = emit_tx(lay, op.chain_len(), |a| {
            op.emit_chain(a, gate.ins, gate.outs);
        })?;
        gate.pc = pc;
        Ok(GateSpec::new(gate, vec![unit]))
    }

    /// The op the gate computes.
    pub fn op(&self) -> TsxOp {
        self.op
    }

    /// Input register addresses.
    pub fn inputs(&self) -> &[u64] {
        &self.ins[..self.op.arity()]
    }

    /// Output register addresses (for `AndOr`, the AND output first).
    pub fn outputs(&self) -> &[u64] {
        &self.outs[..self.op.outputs()]
    }

    /// Entry pc of the gate's transaction (circuit-plan compilation).
    pub fn entry_pc(&self) -> u64 {
        self.pc
    }

    /// Initializes every output register to the op's pre-set value.
    pub fn prepare<S: Substrate + ?Sized>(&self, s: &mut S) {
        for &out in self.outputs() {
            set_dc(s, out, self.op.preset());
        }
    }

    /// Runs the transaction only — inputs and outputs untouched.
    pub fn activate<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.run_at(self.pc);
    }

    /// The gate protocol up to the reads: initializes the outputs, stores
    /// `inputs` into the input registers and activates the gate.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::CoreError::Arity`] when `inputs.len()` is
    /// not the op's arity.
    pub fn run<S: Substrate + ?Sized>(&self, s: &mut S, inputs: &[bool]) -> Result<()> {
        check_arity(self.op.name(), self.op.arity(), inputs.len())?;
        self.prepare(s);
        for (&addr, &bit) in self.inputs().iter().zip(inputs) {
            set_dc(s, addr, bit);
        }
        self.activate(s);
        Ok(())
    }

    /// Times one read of output `k` and decodes it.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not below [`TsxOp::outputs`].
    pub fn read<S: Substrate + ?Sized>(&self, s: &mut S, k: usize) -> GateReading {
        decode(s, self.outputs()[k], self.threshold)
    }
}

impl WeirdGate for TsxGate {
    fn name(&self) -> &'static str {
        self.op.name()
    }

    fn arity(&self) -> usize {
        self.op.arity()
    }

    /// Truth of the first output.
    fn truth(&self, inputs: &[bool]) -> bool {
        self.op.eval(inputs[0], self.op.arity() == 2 && inputs[1])[0]
    }

    /// Runs the gate and reads every output in order; reports the first.
    fn execute_timed(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<GateReading> {
        self.run(s, inputs)?;
        let first = self.read(s, 0);
        for k in 1..self.op.outputs() {
            self.read(s, k);
        }
        Ok(first)
    }
}

impl Bind for TsxGate {
    fn out_line(&self) -> u64 {
        self.outs[0]
    }

    fn with_threshold(self, threshold: u64) -> Self {
        Self { threshold, ..self }
    }
}

/// The TSX `XOR` circuit (§4.1): `AND_OR` + `NOT` + `AND` chained through
/// DC-WR intermediates that are never read architecturally.
///
/// `xor(a,b) = (a | b) & !(a & b)` — three transactions, no visible
/// intermediate values. This is the gate the weird-obfuscation scheme's
/// one-time-pad decode runs on (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsxXor([TsxGate; 3]);

impl TsxXor {
    /// Describes the circuit with freshly allocated input, output and
    /// private intermediate registers.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec(lay: &mut Layout) -> Result<GateSpec<Self>> {
        let mut regs = [0; 6];
        for r in &mut regs {
            *r = lay.alloc_var()?;
        }
        let [in_a, in_b, out, d_and, d_or, d_not] = regs;
        let mut units = Vec::new();
        let mut wire = |op, ins: &[u64], outs: &[u64]| -> Result<TsxGate> {
            Ok(TsxGate::spec_wired(lay, op, ins, outs)?.into_gate(&mut units))
        };
        let gates = [
            wire(TsxOp::AndOr, &[in_a, in_b], &[d_and, d_or])?,
            wire(TsxOp::Not, &[d_and], &[d_not])?,
            wire(TsxOp::And, &[d_or, d_not], &[out])?,
        ];
        Ok(GateSpec::new(Self(gates), units))
    }
}

impl WeirdGate for TsxXor {
    fn name(&self) -> &'static str {
        "TSX_XOR"
    }

    fn arity(&self) -> usize {
        2
    }

    fn truth(&self, inputs: &[bool]) -> bool {
        inputs[0] ^ inputs[1]
    }

    /// Initializes all outputs and intermediates, stores the inputs, then
    /// activates the three transactions in dataflow order; all
    /// intermediate values live only in cache state.
    fn execute_timed(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<GateReading> {
        check_arity(self.name(), 2, inputs.len())?;
        let [and_or, _, and] = &self.0;
        for g in &self.0 {
            g.prepare(s);
        }
        for (&addr, &bit) in and_or.inputs().iter().zip(inputs) {
            set_dc(s, addr, bit);
        }
        for g in &self.0 {
            g.activate(s);
        }
        Ok(and.read(s, 0))
    }
}

impl Bind for TsxXor {
    fn out_line(&self) -> u64 {
        self.0[2].out_line()
    }

    fn with_threshold(self, threshold: u64) -> Self {
        Self(self.0.map(|g| g.with_threshold(threshold)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::verify_truth_table;
    use crate::substrate::FlatEmulator;
    use uwm_sim::machine::{Machine, MachineConfig};
    use uwm_sim::trace::{ArchEvent, Tracer};

    fn setup() -> (Machine, Layout) {
        let m = Machine::new(MachineConfig::quiet(), 0);
        let lay = Layout::new(m.predictor().alias_stride());
        (m, lay)
    }

    fn assert_truth_table(op: TsxOp) {
        let (mut m, mut lay) = setup();
        let g = TsxGate::spec(&mut lay, op).unwrap().instantiate(&mut m);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None);
    }

    #[test]
    fn assign_truth_table() {
        assert_truth_table(TsxOp::Assign);
    }

    #[test]
    fn and_truth_table() {
        assert_truth_table(TsxOp::And);
    }

    #[test]
    fn or_truth_table() {
        assert_truth_table(TsxOp::Or);
    }

    #[test]
    fn not_truth_table() {
        assert_truth_table(TsxOp::Not);
    }

    #[test]
    fn xor_truth_table() {
        let (mut m, mut lay) = setup();
        let g = TsxXor::spec(&mut lay).unwrap().instantiate(&mut m);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None);
    }

    #[test]
    fn and_or_computes_both_outputs() {
        let (mut m, mut lay) = setup();
        let g = TsxGate::spec(&mut lay, TsxOp::AndOr)
            .unwrap()
            .instantiate(&mut m);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            g.run(&mut m, &[a, b]).unwrap();
            let got = [g.read(&mut m, 0).bit, g.read(&mut m, 1).bit];
            assert_eq!(got, [a & b, a | b], "inputs ({a},{b})");
        }
    }

    #[test]
    fn gates_are_reusable() {
        let (mut m, mut lay) = setup();
        let g = TsxXor::spec(&mut lay).unwrap().instantiate(&mut m);
        for i in 0..100 {
            let a = (i >> 1) % 2 == 0;
            let b = i % 2 == 0;
            assert_eq!(g.execute(&mut m, &[a, b]).unwrap(), a ^ b, "iteration {i}");
        }
    }

    /// One spec, two backends: on the simulator the gate computes; on the
    /// flat emulator the post-fault window does not exist and every read
    /// takes the same time, so the output no longer depends on the input —
    /// the gate degenerates. This asymmetry is the emulation-detection
    /// signal of §7.
    #[test]
    fn same_spec_instantiates_on_both_backends() {
        let mut lay = Layout::new(crate::substrate::flat::DEFAULT_ALIAS_STRIDE);
        let spec = TsxGate::spec(&mut lay, TsxOp::And).unwrap();

        let mut m = Machine::new(MachineConfig::quiet(), 0);
        let g_sim = spec.instantiate(&mut m);
        assert_eq!(verify_truth_table(&g_sim, &mut m).unwrap(), None);

        let mut f = FlatEmulator::new();
        let g_flat = spec.instantiate(&mut f);
        assert_eq!(
            g_sim.with_threshold(0),
            g_flat.with_threshold(0),
            "specs bind the same wiring everywhere"
        );
        let first = g_flat.execute_timed(&mut f, &[false, false]).unwrap();
        assert!(!first.bit, "flat reads sit at the threshold: 0");
        for (a, b) in [(false, true), (true, false), (true, true)] {
            assert_eq!(
                g_flat.execute_timed(&mut f, &[a, b]).unwrap(),
                first,
                "flat backend: output bit and delay are input-independent"
            );
        }
    }

    #[test]
    fn spec_wired_checks_register_counts() {
        let (_m, mut lay) = setup();
        let r = lay.alloc_var().unwrap();
        assert!(matches!(
            TsxGate::spec_wired(&mut lay, TsxOp::And, &[r], &[r]),
            Err(crate::error::CoreError::Arity {
                gate: "TSX_AND",
                expected: 2,
                got: 1,
            })
        ));
        assert!(matches!(
            TsxGate::spec_wired(&mut lay, TsxOp::AndOr, &[r, r], &[r]),
            Err(crate::error::CoreError::Arity {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    /// The paper's central claim for TSX gates: the transaction aborts, so
    /// the analyzer sees only `xbegin` + abort; the chain never commits.
    #[test]
    fn aborted_gate_body_is_architecturally_invisible() {
        let (mut m, mut lay) = setup();
        let g = TsxGate::spec(&mut lay, TsxOp::And)
            .unwrap()
            .instantiate(&mut m);
        g.prepare(&mut m);
        for &addr in g.inputs() {
            set_dc(&mut m, addr, true);
        }
        *m.tracer_mut() = Tracer::new();
        g.activate(&mut m);
        let events = m.tracer().events().to_vec();
        // Expect: Commit(xbegin), TxAbort, Commit(halt)+RegWrites only.
        assert!(events
            .iter()
            .any(|e| matches!(e, ArchEvent::TxAbort { .. })));
        let leaked = events.iter().any(|e| {
            matches!(e, ArchEvent::Commit { inst, .. }
                if matches!(inst, Inst::Load { .. } | Inst::LoadInd { .. } | Inst::Div { .. }))
        });
        assert!(
            !leaked,
            "chain instructions must not appear in the trace: {events:?}"
        );
    }

    /// Activation traces are identical across all input combinations.
    #[test]
    fn activation_trace_is_input_independent() {
        let (mut m, mut lay) = setup();
        let TsxXor(gates) = TsxXor::spec(&mut lay).unwrap().instantiate(&mut m);
        let mut prints = Vec::new();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            for g in &gates {
                g.prepare(&mut m);
            }
            for (&addr, bit) in gates[0].inputs().iter().zip([a, b]) {
                set_dc(&mut m, addr, bit);
            }
            *m.tracer_mut() = Tracer::new();
            for g in &gates {
                g.activate(&mut m);
            }
            prints.push(m.tracer().fingerprint());
            *m.tracer_mut() = Tracer::disabled();
        }
        assert!(prints.windows(2).all(|w| w[0] == w[1]));
    }

    /// Consecutive-gate composability (§4 property 1): activating a gate
    /// twice in a row still works — no BPU-style retraining needed.
    #[test]
    fn repeated_activation_is_contiguous() {
        let (mut m, mut lay) = setup();
        let g = TsxGate::spec(&mut lay, TsxOp::Assign)
            .unwrap()
            .instantiate(&mut m);
        g.run(&mut m, &[true]).unwrap();
        g.activate(&mut m);
        g.activate(&mut m);
        assert!(g.read(&mut m, 0).bit);
    }
}
