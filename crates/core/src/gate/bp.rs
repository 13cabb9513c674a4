//! Branch-predictor / instruction-cache weird gates (§3.2, Figures 1–2).
//!
//! Every gate here follows the same pattern. A conditional branch whose
//! condition word is flushed takes a DRAM round-trip to resolve; if the
//! direction predictor was *mistrained*, the wrong path — the gate body —
//! executes speculatively during that window. The body only wins the race
//! if its code line is resident in the instruction cache. Thus:
//!
//! * one input is a **BP-WR** — the trained direction of the gate branch,
//!   set through an *aliased training branch* one predictor stride away
//!   (the gate body is never executed architecturally during training);
//! * the other input is an **IC-WR** — the residency of the body's line;
//! * the output is a **DC-WR** — the body either touches (AND/OR) or
//!   flushes (NAND) the output line.
//!
//! The boolean function is computed by the race itself: no architectural
//! instruction ever combines the inputs.
//!
//! Like the TSX family, each gate is described machine-free by
//! `spec(&mut layout)` and bound to a backend with
//! [`GateSpec::instantiate`]. BP gate code is deliberately **not** warmed
//! at instantiation — body-line residency *is* one of the gate's inputs.

use std::sync::Arc;

use crate::error::Result;
use crate::gate::{check_arity, GateReading, GateSpec, ProgramUnit, WeirdGate, READ_THRESHOLD};
use crate::layout::Layout;
use crate::substrate::Substrate;
use uwm_sim::isa::{Assembler, Inst};

/// How many times a training branch is executed per input write. Two-bit
/// counters saturate after two; four gives margin against aliasing noise.
pub const TRAIN_ITERS: u32 = 4;

/// Register whose (irrelevant) value the gate bodies store.
const BODY_SRC_REG: u8 = 3;

/// One mistrainable branch block: the gate branch, its aligned body line,
/// and the aliased training branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BranchBlock {
    /// Address of the gate's conditional branch.
    branch_pc: u64,
    /// Address of the (64-byte-aligned) speculative body.
    body: u64,
    /// The branch condition word; always holds 0, so the branch is always
    /// *actually* taken (skipping the body architecturally).
    cond: u64,
    /// Address of the aliased training branch.
    train_pc: u64,
    /// The training branch's condition word.
    train_cond: u64,
}

impl BranchBlock {
    /// Assembles the training branch for a gate branch at `branch_pc` and
    /// returns the completed block plus its program fragment.
    fn finish(
        lay: &mut Layout,
        branch_pc: u64,
        body: u64,
        cond: u64,
    ) -> Result<(Self, ProgramUnit)> {
        let train_cond = lay.alloc_var()?;
        let train_pc = lay.train_alias(branch_pc);
        let mut t = Assembler::new(train_pc);
        // Taken target == fall-through: training only moves the predictor.
        t.push(Inst::Brz {
            cond_addr: train_cond as u32,
            rel: 0,
        });
        t.push(Inst::Halt);
        let block = Self {
            branch_pc,
            body,
            cond,
            train_pc,
            train_cond,
        };
        Ok((
            block,
            ProgramUnit {
                program: Arc::new(t.finish()?),
                warm: None,
            },
        ))
    }

    /// Writes the block's IC-WR: body-line residency.
    fn set_ic<S: Substrate + ?Sized>(&self, s: &mut S, bit: bool) {
        if bit {
            s.touch_code(self.body);
        } else {
            s.flush_addr(self.body);
        }
    }

    /// Writes the block's BP-WR by running the aliased training branch.
    /// `toward_body = true` trains *not-taken* (fall through into the body
    /// on the speculative path).
    fn train<S: Substrate + ?Sized>(&self, s: &mut S, toward_body: bool) {
        s.write_word(self.train_cond, if toward_body { 1 } else { 0 });
        s.timed_read(self.train_cond); // warm: keep training cheap & reliable
        for _ in 0..TRAIN_ITERS {
            s.run_at(self.train_pc);
        }
    }

    /// Flushes the branch condition so resolution opens a long window.
    fn arm<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.flush_addr(self.cond);
    }
}

/// Reads the gate output: timed load against [`READ_THRESHOLD`].
fn read_out<S: Substrate + ?Sized>(s: &mut S, out: u64) -> GateReading {
    let delay = s.timed_read_tsc(out);
    GateReading {
        bit: delay < READ_THRESHOLD,
        delay,
    }
}

/// Assembles a single-branch gate skeleton (branch + one aligned body
/// line + halt) with the given body instruction; returns
/// `(branch_pc, body, program)`.
fn emit_single_block(
    lay: &mut Layout,
    cond: u64,
    body_inst: Inst,
) -> Result<(u64, u64, ProgramUnit)> {
    let base = lay.alloc_gate_code(4 * 64)?;
    let mut a = Assembler::new(base);
    a.brz(cond as u32, "skip");
    a.align_to(64);
    a.label("body")?;
    a.push(body_inst);
    a.align_to(64);
    a.label("skip")?;
    a.push(Inst::Halt);
    let body = a.resolve("body").expect("label defined above");
    Ok((
        base,
        body,
        ProgramUnit {
            program: Arc::new(a.finish()?),
            warm: None,
        },
    ))
}

/// Assembles a two-branch gate skeleton (Figure 2's shape): two branches,
/// each with an aligned `store out` body; returns
/// `(branch1_pc, body1, branch2_pc, body2, program)`.
fn emit_double_block(
    lay: &mut Layout,
    cond1: u64,
    cond2: u64,
    out: u64,
) -> Result<(u64, u64, u64, u64, ProgramUnit)> {
    let base = lay.alloc_gate_code(6 * 64)?;
    let mut a = Assembler::new(base);
    a.brz(cond1 as u32, "g2");
    a.align_to(64);
    a.label("body1")?;
    a.push(Inst::Store {
        addr: out as u32,
        src: BODY_SRC_REG,
    });
    a.align_to(64);
    a.label("g2")?;
    let g2_pc = a.pc();
    a.brz(cond2 as u32, "skip");
    a.align_to(64);
    a.label("body2")?;
    a.push(Inst::Store {
        addr: out as u32,
        src: BODY_SRC_REG,
    });
    a.align_to(64);
    a.label("skip")?;
    a.push(Inst::Halt);
    let body1 = a.resolve("body1").expect("label defined above");
    let body2 = a.resolve("body2").expect("label defined above");
    Ok((
        base,
        body1,
        g2_pc,
        body2,
        ProgramUnit {
            program: Arc::new(a.finish()?),
            warm: None,
        },
    ))
}

/// The weird `AND` gate of Figure 1.
///
/// `out = ic & bp`: the body (`store out`) runs speculatively only when the
/// predictor was mistrained toward it (*bp*) **and** its line is cached
/// (*ic*).
///
/// # Examples
///
/// ```
/// use uwm_core::gate::bp::BpAnd;
/// use uwm_core::layout::Layout;
/// use uwm_sim::machine::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::quiet(), 0);
/// let mut lay = Layout::new(m.predictor().alias_stride());
/// let gate = BpAnd::spec(&mut lay).unwrap().instantiate(&mut m);
/// assert!(gate.execute(&mut m, true, true));
/// assert!(!gate.execute(&mut m, true, false));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpAnd {
    block: BranchBlock,
    out: u64,
}

impl BpAnd {
    /// Describes the gate at fresh layout addresses, machine-free.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec(lay: &mut Layout) -> Result<GateSpec<Self>> {
        let cond = lay.alloc_var()?;
        let out = lay.alloc_var()?;
        let (base, body, gate_unit) = emit_single_block(
            lay,
            cond,
            Inst::Store {
                addr: out as u32,
                src: BODY_SRC_REG,
            },
        )?;
        let (block, train_unit) = BranchBlock::finish(lay, base, body, cond)?;
        Ok(GateSpec::new(
            Self { block, out },
            vec![gate_unit, train_unit],
        ))
    }

    /// Executes the gate with explicit inputs; returns the output bit.
    pub fn execute<S: Substrate + ?Sized>(&self, s: &mut S, ic: bool, bp: bool) -> bool {
        self.execute_reading(s, ic, bp).bit
    }

    /// Executes the gate, reporting the raw output-read delay.
    pub fn execute_reading<S: Substrate + ?Sized>(
        &self,
        s: &mut S,
        ic: bool,
        bp: bool,
    ) -> GateReading {
        self.block.set_ic(s, ic);
        self.block.train(s, bp);
        s.flush_addr(self.out); // output := 0
        self.block.arm(s);
        s.run_at(self.block.branch_pc);
        read_out(s, self.out)
    }
}

impl WeirdGate for BpAnd {
    fn name(&self) -> &'static str {
        "AND"
    }

    fn arity(&self) -> usize {
        2
    }

    fn truth(&self, inputs: &[bool]) -> bool {
        inputs[0] & inputs[1]
    }

    fn execute_timed(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<GateReading> {
        check_arity(self.name(), 2, inputs)?;
        Ok(self.execute_reading(s, inputs[0], inputs[1]))
    }
}

/// Our weird `NAND` gate (§3.2.3 says a NAND exists but leaves the
/// construction unspecified; this is ours).
///
/// The output line is *pre-set to 1*; the body is a `clflush` of the output
/// executed speculatively, so the output drops to 0 exactly when both
/// inputs are 1. NAND is universal, which is what makes the whole gate set
/// Turing-capable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpNand {
    block: BranchBlock,
    out: u64,
}

impl BpNand {
    /// Describes the gate at fresh layout addresses, machine-free.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec(lay: &mut Layout) -> Result<GateSpec<Self>> {
        let cond = lay.alloc_var()?;
        let out = lay.alloc_var()?;
        let (base, body, gate_unit) =
            emit_single_block(lay, cond, Inst::Flush { addr: out as u32 })?;
        let (block, train_unit) = BranchBlock::finish(lay, base, body, cond)?;
        Ok(GateSpec::new(
            Self { block, out },
            vec![gate_unit, train_unit],
        ))
    }

    /// Executes the gate with explicit inputs; returns the output bit.
    pub fn execute<S: Substrate + ?Sized>(&self, s: &mut S, ic: bool, bp: bool) -> bool {
        self.execute_reading(s, ic, bp).bit
    }

    /// Executes the gate, reporting the raw output-read delay.
    pub fn execute_reading<S: Substrate + ?Sized>(
        &self,
        s: &mut S,
        ic: bool,
        bp: bool,
    ) -> GateReading {
        self.block.set_ic(s, ic);
        self.block.train(s, bp);
        s.timed_read(self.out); // output := 1 (pre-set)
        self.block.arm(s);
        s.run_at(self.block.branch_pc);
        read_out(s, self.out)
    }
}

impl WeirdGate for BpNand {
    fn name(&self) -> &'static str {
        "NAND"
    }

    fn arity(&self) -> usize {
        2
    }

    fn truth(&self, inputs: &[bool]) -> bool {
        !(inputs[0] & inputs[1])
    }

    fn execute_timed(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<GateReading> {
        check_arity(self.name(), 2, inputs)?;
        Ok(self.execute_reading(s, inputs[0], inputs[1]))
    }
}

/// The weird `OR` gate of Figure 2: two branch blocks storing to one
/// output.
///
/// Block 1 is *always* mistrained; its body-line residency carries input
/// `a`. Block 2's body stays resident; its training carries input `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpOr {
    block1: BranchBlock,
    block2: BranchBlock,
    out: u64,
}

impl BpOr {
    /// Describes the gate at fresh layout addresses, machine-free.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec(lay: &mut Layout) -> Result<GateSpec<Self>> {
        let cond1 = lay.alloc_var()?;
        let cond2 = lay.alloc_var()?;
        let out = lay.alloc_var()?;
        let (b1_pc, body1, b2_pc, body2, gate_unit) = emit_double_block(lay, cond1, cond2, out)?;
        let (block1, train1) = BranchBlock::finish(lay, b1_pc, body1, cond1)?;
        let (block2, train2) = BranchBlock::finish(lay, b2_pc, body2, cond2)?;
        Ok(GateSpec::new(
            Self {
                block1,
                block2,
                out,
            },
            vec![gate_unit, train1, train2],
        ))
    }

    /// Executes the gate with explicit inputs; returns the output bit.
    pub fn execute<S: Substrate + ?Sized>(&self, s: &mut S, a: bool, b: bool) -> bool {
        self.execute_reading(s, a, b).bit
    }

    /// Executes the gate, reporting the raw output-read delay.
    pub fn execute_reading<S: Substrate + ?Sized>(
        &self,
        s: &mut S,
        a: bool,
        b: bool,
    ) -> GateReading {
        self.block1.set_ic(s, a);
        self.block2.set_ic(s, true); // block 2's body must stay resident
        self.block1.train(s, true); // unconditionally mistrained (Fig. 2)
        self.block2.train(s, b);
        s.flush_addr(self.out);
        self.block1.arm(s);
        self.block2.arm(s);
        s.run_at(self.block1.branch_pc);
        read_out(s, self.out)
    }
}

impl WeirdGate for BpOr {
    fn name(&self) -> &'static str {
        "OR"
    }

    fn arity(&self) -> usize {
        2
    }

    fn truth(&self, inputs: &[bool]) -> bool {
        inputs[0] | inputs[1]
    }

    fn execute_timed(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<GateReading> {
        check_arity(self.name(), 2, inputs)?;
        Ok(self.execute_reading(s, inputs[0], inputs[1]))
    }
}

/// The composed `AND_AND_OR` gate: `out = (a & b) | (c & d)`.
///
/// Two AND blocks (each an IC input *and* a BP input) storing to one
/// output — the gate the paper's SHA-1 uses for its full adder's carry and
/// for the round functions (§5.2, Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpAndAndOr {
    block1: BranchBlock,
    block2: BranchBlock,
    out: u64,
}

impl BpAndAndOr {
    /// Describes the gate at fresh layout addresses, machine-free.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec(lay: &mut Layout) -> Result<GateSpec<Self>> {
        let cond1 = lay.alloc_var()?;
        let cond2 = lay.alloc_var()?;
        let out = lay.alloc_var()?;
        let (b1_pc, body1, b2_pc, body2, gate_unit) = emit_double_block(lay, cond1, cond2, out)?;
        let (block1, train1) = BranchBlock::finish(lay, b1_pc, body1, cond1)?;
        let (block2, train2) = BranchBlock::finish(lay, b2_pc, body2, cond2)?;
        Ok(GateSpec::new(
            Self {
                block1,
                block2,
                out,
            },
            vec![gate_unit, train1, train2],
        ))
    }

    /// Executes `(a & b) | (c & d)`.
    pub fn execute<S: Substrate + ?Sized>(
        &self,
        s: &mut S,
        a: bool,
        b: bool,
        c: bool,
        d: bool,
    ) -> bool {
        self.execute_reading(s, a, b, c, d).bit
    }

    /// Executes the gate, reporting the raw output-read delay.
    pub fn execute_reading<S: Substrate + ?Sized>(
        &self,
        s: &mut S,
        a: bool,
        b: bool,
        c: bool,
        d: bool,
    ) -> GateReading {
        self.block1.set_ic(s, a);
        self.block2.set_ic(s, c);
        self.block1.train(s, b);
        self.block2.train(s, d);
        s.flush_addr(self.out);
        self.block1.arm(s);
        self.block2.arm(s);
        s.run_at(self.block1.branch_pc);
        read_out(s, self.out)
    }
}

impl WeirdGate for BpAndAndOr {
    fn name(&self) -> &'static str {
        "AND_AND_OR"
    }

    fn arity(&self) -> usize {
        4
    }

    fn truth(&self, inputs: &[bool]) -> bool {
        (inputs[0] & inputs[1]) | (inputs[2] & inputs[3])
    }

    fn execute_timed(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<GateReading> {
        check_arity(self.name(), 4, inputs)?;
        Ok(self.execute_reading(s, inputs[0], inputs[1], inputs[2], inputs[3]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::verify_truth_table;
    use uwm_sim::machine::{Machine, MachineConfig};

    fn setup() -> (Machine, Layout) {
        let m = Machine::new(MachineConfig::quiet(), 0);
        let lay = Layout::new(m.predictor().alias_stride());
        (m, lay)
    }

    #[test]
    fn and_truth_table() {
        let (mut m, mut lay) = setup();
        let g = BpAnd::spec(&mut lay).unwrap().instantiate(&mut m);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None);
    }

    #[test]
    fn or_truth_table() {
        let (mut m, mut lay) = setup();
        let g = BpOr::spec(&mut lay).unwrap().instantiate(&mut m);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None);
    }

    #[test]
    fn nand_truth_table() {
        let (mut m, mut lay) = setup();
        let g = BpNand::spec(&mut lay).unwrap().instantiate(&mut m);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None);
    }

    #[test]
    fn and_and_or_truth_table() {
        let (mut m, mut lay) = setup();
        let g = BpAndAndOr::spec(&mut lay).unwrap().instantiate(&mut m);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None);
    }

    #[test]
    fn gates_are_reusable_and_stable() {
        let (mut m, mut lay) = setup();
        let g = BpAnd::spec(&mut lay).unwrap().instantiate(&mut m);
        for i in 0..50 {
            let a = i % 2 == 0;
            let b = i % 3 == 0;
            assert_eq!(g.execute(&mut m, a, b), a & b, "iteration {i}");
        }
    }

    #[test]
    fn two_gate_instances_do_not_interfere() {
        let (mut m, mut lay) = setup();
        let g1 = BpAnd::spec(&mut lay).unwrap().instantiate(&mut m);
        let g2 = BpOr::spec(&mut lay).unwrap().instantiate(&mut m);
        assert!(g1.execute(&mut m, true, true));
        assert!(!g2.execute(&mut m, false, false));
        assert!(!g1.execute(&mut m, false, true));
        assert!(g2.execute(&mut m, true, false));
    }

    /// One spec can instantiate the same gate on any number of machines —
    /// the mechanism behind sharded execution.
    #[test]
    fn one_spec_instantiates_on_many_machines() {
        let mut lay = Layout::new(8192);
        let spec = BpAnd::spec(&mut lay).unwrap();
        for seed in 0..3 {
            let mut m = Machine::new(MachineConfig::quiet(), seed);
            let g = spec.instantiate(&mut m);
            assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None, "seed {seed}");
        }
    }

    #[test]
    fn reading_reports_bimodal_delays() {
        let (mut m, mut lay) = setup();
        let g = BpAnd::spec(&mut lay).unwrap().instantiate(&mut m);
        let one = g.execute_reading(&mut m, true, true);
        let zero = g.execute_reading(&mut m, true, false);
        assert!(one.bit && !zero.bit);
        assert!(zero.delay > one.delay + 100, "hit/miss separation");
    }

    #[test]
    fn arity_is_validated() {
        let (mut m, mut lay) = setup();
        let g = BpAnd::spec(&mut lay).unwrap().instantiate(&mut m);
        assert!(matches!(
            g.execute_timed(&mut m, &[true]),
            Err(crate::error::CoreError::Arity {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    /// The gate's logic is invisible to the architectural analyzer: the
    /// activation (branch execution) commits the same instruction stream
    /// for every input combination.
    #[test]
    fn activation_trace_is_input_independent() {
        let (mut m, mut lay) = setup();
        let g = BpAnd::spec(&mut lay).unwrap().instantiate(&mut m);
        let mut fingerprints = Vec::new();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            g.block.set_ic(&mut m, a);
            g.block.train(&mut m, b);
            m.flush_addr(g.out);
            g.block.arm(&mut m);
            *m.tracer_mut() = uwm_sim::trace::Tracer::new();
            m.run_at(g.block.branch_pc); // the gate activation itself
            fingerprints.push(m.tracer().fingerprint());
            *m.tracer_mut() = uwm_sim::trace::Tracer::disabled();
        }
        assert!(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "gate activation must commit identical architectural traces"
        );
    }
}
