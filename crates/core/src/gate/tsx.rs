//! TSX-based weird gates (§4, Figure 3).
//!
//! Each gate is one transaction: an `xbegin`, an immediate divide-by-zero,
//! and a dependent load chain. The fault dooms the transaction, but the
//! pipeline keeps executing the chain for a short *post-fault speculative
//! window* before the abort squashes it. Whether the chain's final access
//! issues inside that window depends on whether its inputs were cache hits
//! — which is the boolean function.
//!
//! All inputs and outputs are DC-WRs (variables holding the value 0, so
//! `value + ADDR(out)` dereferences `out`). Because every register is the
//! same kind, gate outputs feed directly into later gates' inputs with no
//! architectural intermediate — the property [weird
//! circuits](crate::circuit) are built on.
//!
//! Reads of intermediate registers never happen; the paper stresses that a
//! debugger attached to the transaction sees only `xbegin` followed by the
//! abort handler.
//!
//! Every gate follows the spec/instance split: `spec`/`spec_wired` produce
//! a machine-independent [`GateSpec`] from a [`Layout`] alone, and
//! [`GateSpec::instantiate`] binds it to a [`Substrate`]. That is the only
//! way to construct a runnable gate.

use std::sync::Arc;

use crate::error::Result;
use crate::gate::sealed::Bind;
use crate::gate::{check_arity, decode, GateReading, GateSpec, ProgramUnit, WeirdGate};
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

/// Writes a DC-WR input: touch = 1, flush = 0.
fn set_dc<S: Substrate + ?Sized>(s: &mut S, addr: u64, bit: bool) {
    if bit {
        s.timed_read(addr);
    } else {
        s.flush_addr(addr);
    }
}

/// The TSX `ASSIGN` gate: `out := in`.
///
/// The minimal weird gate — a single dependent dereference racing the
/// post-fault window. Also the WR-to-WR transfer primitive that makes
/// circuits possible (§4).
///
/// # Examples
///
/// ```
/// use uwm_core::gate::tsx::TsxAssign;
/// use uwm_core::layout::Layout;
/// use uwm_sim::machine::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::quiet(), 0);
/// let mut lay = Layout::new(m.predictor().alias_stride());
/// let gate = TsxAssign::spec(&mut lay).unwrap().instantiate(&mut m);
/// assert!(gate.execute(&mut m, true));
/// assert!(!gate.execute(&mut m, false));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsxAssign {
    pc: u64,
    input: u64,
    out: u64,
    threshold: u64,
}

impl TsxAssign {
    /// Describes the gate with freshly allocated input/output registers.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec(lay: &mut Layout) -> Result<GateSpec<Self>> {
        let input = lay.alloc_var()?;
        let out = lay.alloc_var()?;
        Self::spec_wired(lay, input, out)
    }

    /// Describes the gate over existing registers (circuit wiring).
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec_wired(lay: &mut Layout, input: u64, out: u64) -> Result<GateSpec<Self>> {
        let (pc, unit) = emit_tx(lay, 3, |a| {
            a.push(Inst::Load {
                dst: R_A,
                addr: input as u32,
            });
            emit_deref(a, R_A, R_T0, out);
        })?;
        Ok(GateSpec::new(
            Self {
                pc,
                input,
                out,
                threshold: 0,
            },
            vec![unit],
        ))
    }

    /// Input register address.
    pub fn input(&self) -> u64 {
        self.input
    }

    /// Output register address.
    pub fn out(&self) -> u64 {
        self.out
    }

    /// Initializes the output register to 0 (flush).
    pub fn prepare<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.flush_addr(self.out);
    }

    /// Runs the transaction only — inputs/outputs untouched.
    pub fn activate<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.run_at(self.pc);
    }

    /// Full protocol with an explicit input bit.
    pub fn execute<S: Substrate + ?Sized>(&self, s: &mut S, input: bool) -> bool {
        self.execute_reading(s, input).bit
    }

    /// Full protocol, reporting the raw output-read delay.
    pub fn execute_reading<S: Substrate + ?Sized>(&self, s: &mut S, input: bool) -> GateReading {
        self.prepare(s);
        set_dc(s, self.input, input);
        self.activate(s);
        decode(s, self.out, self.threshold)
    }
}

impl TsxAssign {
    /// Entry pc of the gate's transaction (circuit-plan compilation).
    pub fn entry_pc(&self) -> u64 {
        self.pc
    }
}

impl WeirdGate for TsxAssign {
    fn name(&self) -> &'static str {
        "TSX_ASSIGN"
    }

    fn arity(&self) -> usize {
        1
    }

    fn truth(&self, inputs: &[bool]) -> bool {
        inputs[0]
    }

    fn execute_timed(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<GateReading> {
        check_arity(self.name(), 1, inputs)?;
        Ok(self.execute_reading(s, inputs[0]))
    }
}

/// The TSX `AND` gate: `out := a & b` via `*(*a + *b + ADDR(out))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsxAnd {
    pc: u64,
    in_a: u64,
    in_b: u64,
    out: u64,
    threshold: u64,
}

impl TsxAnd {
    /// Describes the gate with freshly allocated registers.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec(lay: &mut Layout) -> Result<GateSpec<Self>> {
        let in_a = lay.alloc_var()?;
        let in_b = lay.alloc_var()?;
        let out = lay.alloc_var()?;
        Self::spec_wired(lay, in_a, in_b, out)
    }

    /// Describes the gate over existing registers (circuit wiring).
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec_wired(lay: &mut Layout, in_a: u64, in_b: u64, out: u64) -> Result<GateSpec<Self>> {
        let (pc, unit) = emit_tx(lay, 5, |a| {
            a.push(Inst::Load {
                dst: R_A,
                addr: in_a as u32,
            });
            a.push(Inst::Load {
                dst: R_B,
                addr: in_b as u32,
            });
            a.push(Inst::Alu {
                op: AluOp::Add,
                dst: R_T0,
                a: R_A,
                b: Operand::Reg(R_B),
            });
            emit_deref(a, R_T0, R_T1, out);
        })?;
        Ok(GateSpec::new(
            Self {
                pc,
                in_a,
                in_b,
                out,
                threshold: 0,
            },
            vec![unit],
        ))
    }

    /// First input register address.
    pub fn in_a(&self) -> u64 {
        self.in_a
    }

    /// Second input register address.
    pub fn in_b(&self) -> u64 {
        self.in_b
    }

    /// Output register address.
    pub fn out(&self) -> u64 {
        self.out
    }

    /// Initializes the output register to 0.
    pub fn prepare<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.flush_addr(self.out);
    }

    /// Runs the transaction only.
    pub fn activate<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.run_at(self.pc);
    }

    /// Full protocol with explicit input bits.
    pub fn execute<S: Substrate + ?Sized>(&self, s: &mut S, a: bool, b: bool) -> bool {
        self.execute_reading(s, a, b).bit
    }

    /// Full protocol, reporting the raw output-read delay.
    pub fn execute_reading<S: Substrate + ?Sized>(
        &self,
        s: &mut S,
        a: bool,
        b: bool,
    ) -> GateReading {
        self.prepare(s);
        set_dc(s, self.in_a, a);
        set_dc(s, self.in_b, b);
        self.activate(s);
        decode(s, self.out, self.threshold)
    }
}

impl TsxAnd {
    /// Entry pc of the gate's transaction (circuit-plan compilation).
    pub fn entry_pc(&self) -> u64 {
        self.pc
    }
}

impl WeirdGate for TsxAnd {
    fn name(&self) -> &'static str {
        "TSX_AND"
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

/// The TSX `OR` gate: two independent assignment chains into one output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsxOr {
    pc: u64,
    in_a: u64,
    in_b: u64,
    out: u64,
    threshold: u64,
}

impl TsxOr {
    /// Describes the gate with freshly allocated registers.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec(lay: &mut Layout) -> Result<GateSpec<Self>> {
        let in_a = lay.alloc_var()?;
        let in_b = lay.alloc_var()?;
        let out = lay.alloc_var()?;
        Self::spec_wired(lay, in_a, in_b, out)
    }

    /// Describes the gate over existing registers (circuit wiring).
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec_wired(lay: &mut Layout, in_a: u64, in_b: u64, out: u64) -> Result<GateSpec<Self>> {
        let (pc, unit) = emit_tx(lay, 6, |a| {
            a.push(Inst::Load {
                dst: R_A,
                addr: in_a as u32,
            });
            a.push(Inst::Load {
                dst: R_B,
                addr: in_b as u32,
            });
            emit_deref(a, R_A, R_T0, out);
            emit_deref(a, R_B, R_T1, out);
        })?;
        Ok(GateSpec::new(
            Self {
                pc,
                in_a,
                in_b,
                out,
                threshold: 0,
            },
            vec![unit],
        ))
    }

    /// First input register address.
    pub fn in_a(&self) -> u64 {
        self.in_a
    }

    /// Second input register address.
    pub fn in_b(&self) -> u64 {
        self.in_b
    }

    /// Output register address.
    pub fn out(&self) -> u64 {
        self.out
    }

    /// Initializes the output register to 0.
    pub fn prepare<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.flush_addr(self.out);
    }

    /// Runs the transaction only.
    pub fn activate<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.run_at(self.pc);
    }

    /// Full protocol with explicit input bits.
    pub fn execute<S: Substrate + ?Sized>(&self, s: &mut S, a: bool, b: bool) -> bool {
        self.execute_reading(s, a, b).bit
    }

    /// Full protocol, reporting the raw output-read delay.
    pub fn execute_reading<S: Substrate + ?Sized>(
        &self,
        s: &mut S,
        a: bool,
        b: bool,
    ) -> GateReading {
        self.prepare(s);
        set_dc(s, self.in_a, a);
        set_dc(s, self.in_b, b);
        self.activate(s);
        decode(s, self.out, self.threshold)
    }
}

impl TsxOr {
    /// Entry pc of the gate's transaction (circuit-plan compilation).
    pub fn entry_pc(&self) -> u64 {
        self.pc
    }
}

impl WeirdGate for TsxOr {
    fn name(&self) -> &'static str {
        "TSX_OR"
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

/// The combined `AND`/`OR` circuit of Figure 3: one transaction computing
/// `out_and := a & b` **and** `out_or := a | b` simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsxAndOr {
    pc: u64,
    in_a: u64,
    in_b: u64,
    out_and: u64,
    out_or: u64,
    threshold: u64,
}

impl TsxAndOr {
    /// Describes the circuit with freshly allocated registers.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec(lay: &mut Layout) -> Result<GateSpec<Self>> {
        let in_a = lay.alloc_var()?;
        let in_b = lay.alloc_var()?;
        let out_and = lay.alloc_var()?;
        let out_or = lay.alloc_var()?;
        Self::spec_wired(lay, in_a, in_b, out_and, out_or)
    }

    /// Describes the circuit over existing registers.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec_wired(
        lay: &mut Layout,
        in_a: u64,
        in_b: u64,
        out_and: u64,
        out_or: u64,
    ) -> Result<GateSpec<Self>> {
        let (pc, unit) = emit_tx(lay, 9, |a| {
            a.push(Inst::Load {
                dst: R_A,
                addr: in_a as u32,
            });
            a.push(Inst::Load {
                dst: R_B,
                addr: in_b as u32,
            });
            emit_deref(a, R_A, R_T0, out_or); // d3 := d0
            emit_deref(a, R_B, R_T1, out_or); // d3 := d1
            a.push(Inst::Alu {
                op: AluOp::Add,
                dst: R_T2,
                a: R_A,
                b: Operand::Reg(R_B),
            });
            emit_deref(a, R_T2, R_T2, out_and); // d2 := d0 & d1
        })?;
        Ok(GateSpec::new(
            Self {
                pc,
                in_a,
                in_b,
                out_and,
                out_or,
                threshold: 0,
            },
            vec![unit],
        ))
    }

    /// First input register address.
    pub fn in_a(&self) -> u64 {
        self.in_a
    }

    /// Second input register address.
    pub fn in_b(&self) -> u64 {
        self.in_b
    }

    /// AND-output register address.
    pub fn out_and(&self) -> u64 {
        self.out_and
    }

    /// OR-output register address.
    pub fn out_or(&self) -> u64 {
        self.out_or
    }

    /// Initializes both output registers to 0.
    pub fn prepare<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.flush_addr(self.out_and);
        s.flush_addr(self.out_or);
    }

    /// Runs the transaction only.
    pub fn activate<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.run_at(self.pc);
    }

    /// Full protocol; returns `(a & b, a | b)`.
    pub fn execute<S: Substrate + ?Sized>(&self, s: &mut S, a: bool, b: bool) -> (bool, bool) {
        let (and, or) = self.execute_readings(s, a, b);
        (and.bit, or.bit)
    }

    /// Full protocol, reporting both raw output-read delays.
    pub fn execute_readings<S: Substrate + ?Sized>(
        &self,
        s: &mut S,
        a: bool,
        b: bool,
    ) -> (GateReading, GateReading) {
        self.prepare(s);
        set_dc(s, self.in_a, a);
        set_dc(s, self.in_b, b);
        self.activate(s);
        (
            decode(s, self.out_and, self.threshold),
            decode(s, self.out_or, self.threshold),
        )
    }
}

impl TsxAndOr {
    /// Entry pc of the gate's transaction (circuit-plan compilation).
    pub fn entry_pc(&self) -> u64 {
        self.pc
    }
}

impl WeirdGate for TsxAndOr {
    fn name(&self) -> &'static str {
        "TSX_AND_OR"
    }

    fn arity(&self) -> usize {
        2
    }

    /// Truth of the AND output (the generic interface exposes one output;
    /// use [`TsxAndOr::execute`] for both).
    fn truth(&self, inputs: &[bool]) -> bool {
        inputs[0] & inputs[1]
    }

    fn execute_timed(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<GateReading> {
        check_arity(self.name(), 2, inputs)?;
        let (and, _) = self.execute_readings(s, inputs[0], inputs[1]);
        Ok(and)
    }
}

/// The TSX `NOT` gate: a speculative `clflush` with an address dependency
/// on the input.
///
/// The output is *pre-set to 1*; `flush [*in + ADDR(out)]` only issues if
/// the input loads in time, so `out = !in`. (Our construction — the paper
/// uses a NOT inside its XOR but does not spell it out.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsxNot {
    pc: u64,
    input: u64,
    out: u64,
    threshold: u64,
}

impl TsxNot {
    /// Describes the gate with freshly allocated registers.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec(lay: &mut Layout) -> Result<GateSpec<Self>> {
        let input = lay.alloc_var()?;
        let out = lay.alloc_var()?;
        Self::spec_wired(lay, input, out)
    }

    /// Describes the gate over existing registers.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec_wired(lay: &mut Layout, input: u64, out: u64) -> Result<GateSpec<Self>> {
        let (pc, unit) = emit_tx(lay, 2, |a| {
            a.push(Inst::Load {
                dst: R_A,
                addr: input as u32,
            });
            a.push(Inst::FlushInd {
                base: R_A,
                offset: out as u32,
            });
        })?;
        Ok(GateSpec::new(
            Self {
                pc,
                input,
                out,
                threshold: 0,
            },
            vec![unit],
        ))
    }

    /// Input register address.
    pub fn input(&self) -> u64 {
        self.input
    }

    /// Output register address.
    pub fn out(&self) -> u64 {
        self.out
    }

    /// Initializes the output register to **1** (touch) — the inverted
    /// default this gate requires.
    pub fn prepare<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.timed_read(self.out);
    }

    /// Runs the transaction only.
    pub fn activate<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.run_at(self.pc);
    }

    /// Full protocol with an explicit input bit.
    pub fn execute<S: Substrate + ?Sized>(&self, s: &mut S, input: bool) -> bool {
        self.execute_reading(s, input).bit
    }

    /// Full protocol, reporting the raw output-read delay.
    pub fn execute_reading<S: Substrate + ?Sized>(&self, s: &mut S, input: bool) -> GateReading {
        self.prepare(s);
        set_dc(s, self.input, input);
        self.activate(s);
        decode(s, self.out, self.threshold)
    }
}

impl TsxNot {
    /// Entry pc of the gate's transaction (circuit-plan compilation).
    pub fn entry_pc(&self) -> u64 {
        self.pc
    }
}

impl WeirdGate for TsxNot {
    fn name(&self) -> &'static str {
        "TSX_NOT"
    }

    fn arity(&self) -> usize {
        1
    }

    fn truth(&self, inputs: &[bool]) -> bool {
        !inputs[0]
    }

    fn execute_timed(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<GateReading> {
        check_arity(self.name(), 1, inputs)?;
        Ok(self.execute_reading(s, inputs[0]))
    }
}

/// The TSX `XOR` circuit (§4.1): `AND_OR` + `NOT` + `AND` chained through
/// DC-WR intermediates that are never read architecturally.
///
/// `xor(a,b) = (a | b) & !(a & b)` — three transactions, no visible
/// intermediate values. This is the gate the weird-obfuscation scheme's
/// one-time-pad decode runs on (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsxXor {
    and_or: TsxAndOr,
    not: TsxNot,
    and2: TsxAnd,
}

impl TsxXor {
    /// Describes the circuit with freshly allocated registers.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec(lay: &mut Layout) -> Result<GateSpec<Self>> {
        let in_a = lay.alloc_var()?;
        let in_b = lay.alloc_var()?;
        let out = lay.alloc_var()?;
        Self::spec_wired(lay, in_a, in_b, out)
    }

    /// Describes the circuit over existing input/output registers,
    /// allocating private intermediates.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec_wired(lay: &mut Layout, in_a: u64, in_b: u64, out: u64) -> Result<GateSpec<Self>> {
        let d_and = lay.alloc_var()?;
        let d_or = lay.alloc_var()?;
        let d_not = lay.alloc_var()?;
        let mut units = Vec::new();
        let gate = Self {
            and_or: TsxAndOr::spec_wired(lay, in_a, in_b, d_and, d_or)?.into_gate(&mut units),
            not: TsxNot::spec_wired(lay, d_and, d_not)?.into_gate(&mut units),
            and2: TsxAnd::spec_wired(lay, d_or, d_not, out)?.into_gate(&mut units),
        };
        Ok(GateSpec::new(gate, units))
    }

    /// First input register address.
    pub fn in_a(&self) -> u64 {
        self.and_or.in_a()
    }

    /// Second input register address.
    pub fn in_b(&self) -> u64 {
        self.and_or.in_b()
    }

    /// Output register address.
    pub fn out(&self) -> u64 {
        self.and2.out()
    }

    /// Initializes all outputs and intermediates.
    pub fn prepare<S: Substrate + ?Sized>(&self, s: &mut S) {
        self.and_or.prepare(s);
        self.not.prepare(s);
        self.and2.prepare(s);
    }

    /// Activates the three transactions in dataflow order. All
    /// intermediate values live only in cache state.
    pub fn activate<S: Substrate + ?Sized>(&self, s: &mut S) {
        self.and_or.activate(s);
        self.not.activate(s);
        self.and2.activate(s);
    }

    /// Full protocol with explicit input bits.
    pub fn execute<S: Substrate + ?Sized>(&self, s: &mut S, a: bool, b: bool) -> bool {
        self.execute_reading(s, a, b).bit
    }

    /// Full protocol, reporting the raw output-read delay.
    pub fn execute_reading<S: Substrate + ?Sized>(
        &self,
        s: &mut S,
        a: bool,
        b: bool,
    ) -> GateReading {
        self.prepare(s);
        set_dc(s, self.and_or.in_a(), a);
        set_dc(s, self.and_or.in_b(), b);
        self.activate(s);
        decode(s, self.and2.out, self.and2.threshold)
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

    fn execute_timed(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<GateReading> {
        check_arity(self.name(), 2, inputs)?;
        Ok(self.execute_reading(s, inputs[0], inputs[1]))
    }
}

bind_on_out!(
    TsxAssign => out,
    TsxAnd => out,
    TsxOr => out,
    TsxAndOr => out_and,
    TsxNot => out,
);

impl Bind for TsxXor {
    fn out_line(&self) -> u64 {
        self.and2.out
    }

    fn with_threshold(self, threshold: u64) -> Self {
        Self {
            and_or: self.and_or.with_threshold(threshold),
            not: self.not.with_threshold(threshold),
            and2: self.and2.with_threshold(threshold),
        }
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

    #[test]
    fn assign_truth_table() {
        let (mut m, mut lay) = setup();
        let g = TsxAssign::spec(&mut lay).unwrap().instantiate(&mut m);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None);
    }

    #[test]
    fn and_truth_table() {
        let (mut m, mut lay) = setup();
        let g = TsxAnd::spec(&mut lay).unwrap().instantiate(&mut m);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None);
    }

    #[test]
    fn or_truth_table() {
        let (mut m, mut lay) = setup();
        let g = TsxOr::spec(&mut lay).unwrap().instantiate(&mut m);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None);
    }

    #[test]
    fn not_truth_table() {
        let (mut m, mut lay) = setup();
        let g = TsxNot::spec(&mut lay).unwrap().instantiate(&mut m);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None);
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
        let g = TsxAndOr::spec(&mut lay).unwrap().instantiate(&mut m);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(g.execute(&mut m, a, b), (a & b, a | b), "inputs ({a},{b})");
        }
    }

    #[test]
    fn gates_are_reusable() {
        let (mut m, mut lay) = setup();
        let g = TsxXor::spec(&mut lay).unwrap().instantiate(&mut m);
        for i in 0..100 {
            let a = (i >> 1) % 2 == 0;
            let b = i % 2 == 0;
            assert_eq!(g.execute(&mut m, a, b), a ^ b, "iteration {i}");
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
        let spec = TsxAnd::spec(&mut lay).unwrap();

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
        let first = g_flat.execute_reading(&mut f, false, false);
        assert!(!first.bit, "flat reads sit at the threshold: 0");
        for (a, b) in [(false, true), (true, false), (true, true)] {
            assert_eq!(
                g_flat.execute_reading(&mut f, a, b),
                first,
                "flat backend: output bit and delay are input-independent"
            );
        }
    }

    /// The paper's central claim for TSX gates: the transaction aborts, so
    /// the analyzer sees only `xbegin` + abort; the chain never commits.
    #[test]
    fn aborted_gate_body_is_architecturally_invisible() {
        let (mut m, mut lay) = setup();
        let g = TsxAnd::spec(&mut lay).unwrap().instantiate(&mut m);
        g.prepare(&mut m);
        set_dc(&mut m, g.in_a(), true);
        set_dc(&mut m, g.in_b(), true);
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
        let g = TsxXor::spec(&mut lay).unwrap().instantiate(&mut m);
        let mut prints = Vec::new();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            g.prepare(&mut m);
            set_dc(&mut m, g.in_a(), a);
            set_dc(&mut m, g.in_b(), b);
            *m.tracer_mut() = Tracer::new();
            g.activate(&mut m);
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
        let g = TsxAssign::spec(&mut lay).unwrap().instantiate(&mut m);
        g.prepare(&mut m);
        set_dc(&mut m, g.input(), true);
        g.activate(&mut m);
        g.activate(&mut m);
        g.activate(&mut m);
        let r = decode(&mut m, g.out(), g.threshold);
        assert!(r.bit);
    }
}
