//! The micro-ISA executed by the simulated machine.
//!
//! The ISA is deliberately small — the paper's gates only need loads,
//! stores, flushes, conditional branches with memory operands, arithmetic
//! for address computation, `rdtscp`, and the TSX pair — but it has a real
//! binary encoding (8 bytes per instruction) so that *data can become code*:
//! the `wm_apt` demo decrypts a payload into simulated memory and jumps into
//! it, and garbage bytes decode to faulting instructions exactly as on x86.
//!
//! Addresses are 32-bit (a 4 GiB simulated address space); registers are
//! `r0`–`r15`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Size of every instruction in bytes.
pub const INST_SIZE: u64 = 8;
/// Number of architectural registers.
pub const NUM_REGS: usize = 16;

/// A register index (`0..NUM_REGS`).
pub type Reg = u8;

/// Second source of an ALU instruction: register or 32-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand (zero-extended to 64 bits).
    Imm(u32),
}

/// Binary ALU operation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (by `b & 63`).
    Shl,
    /// Logical shift right (by `b & 63`).
    Shr,
}

/// One instruction of the micro-ISA.
///
/// # Examples
///
/// ```
/// use uwm_sim::isa::{Inst, Operand};
/// let i = Inst::Mov { dst: 0, src: Operand::Imm(42) };
/// let bytes = i.encode();
/// assert_eq!(Inst::decode(&bytes), i);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Does nothing (one ALU cycle).
    Nop,
    /// Stops the machine (normal program termination).
    Halt,
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = a <op> b`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Second source operand.
        b: Operand,
    },
    /// `dst = a * b`; contends for the multiplier unit.
    Mul {
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Second source operand.
        b: Operand,
    },
    /// `dst = a / b`; **faults** when the divisor evaluates to zero.
    Div {
        /// Destination register.
        dst: Reg,
        /// Dividend register.
        a: Reg,
        /// Divisor operand.
        b: Operand,
    },
    /// `dst = mem64[addr]` (absolute address).
    Load {
        /// Destination register.
        dst: Reg,
        /// Absolute byte address.
        addr: u32,
    },
    /// `dst = mem64[base + offset]` (register-indirect).
    LoadInd {
        /// Destination register.
        dst: Reg,
        /// Base register.
        base: Reg,
        /// Byte offset added to the base.
        offset: u32,
    },
    /// `mem64[addr] = src`.
    Store {
        /// Absolute byte address.
        addr: u32,
        /// Source register.
        src: Reg,
    },
    /// `mem64[base + offset] = src`.
    StoreInd {
        /// Base register.
        base: Reg,
        /// Byte offset.
        offset: u32,
        /// Source register.
        src: Reg,
    },
    /// `clflush` of the line containing `addr` (data *and* code copies).
    Flush {
        /// Absolute byte address.
        addr: u32,
    },
    /// `clflush` of the line containing `base + offset`. The address
    /// dependency on `base` is what lets the TSX `NOT` gate race.
    FlushInd {
        /// Base register.
        base: Reg,
        /// Byte offset.
        offset: u32,
    },
    /// Prefetches the code line containing `addr` into L1I (the Table 1
    /// "`call code`" write of an IC-WR, without executing it).
    TouchCode {
        /// Absolute byte address of code.
        addr: u32,
    },
    /// Unconditional jump to an absolute target; trains the BTB.
    Jmp {
        /// Absolute target address.
        target: u32,
    },
    /// Indirect jump through a register; predicted via the BTB.
    JmpInd {
        /// Register holding the target address.
        base: Reg,
    },
    /// Branch if `mem64[cond_addr] == 0` to `pc + INST_SIZE * (1 + rel)`.
    ///
    /// The condition is a *memory operand*: resolving the branch costs a
    /// data-cache access of `cond_addr`, which is what opens a long
    /// speculative window when the condition was flushed (§3.2.1).
    Brz {
        /// Address of the 64-bit condition word.
        cond_addr: u32,
        /// Signed instruction-count displacement of the taken target,
        /// relative to the next instruction.
        rel: i16,
    },
    /// `dst =` current cycle counter (serializing).
    Rdtscp {
        /// Destination register.
        dst: Reg,
    },
    /// Begins a transaction; on abort, control transfers to `handler` with
    /// all architectural effects rolled back.
    Xbegin {
        /// Absolute abort-handler address.
        handler: u32,
    },
    /// Commits the current transaction.
    Xend,
    /// A VMX-class instruction (Table 1's VMX weird register): latency
    /// depends on whether the VMX machinery is warm.
    Vmx,
    /// Serializing fence; drains timing state (used between experiments).
    Fence,
    /// An undecodable byte pattern; faults when executed.
    Invalid,
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

// Opcode 0x00 is deliberately unassigned so that zeroed memory decodes to
// `Invalid` and faults, as running off into unmapped memory should.
const OP_NOP: u8 = 0x19;
const OP_HALT: u8 = 0x01;
const OP_MOV_R: u8 = 0x02;
const OP_MOV_I: u8 = 0x03;
const OP_ALU_R: u8 = 0x04; // op in `a2` high nibble
const OP_ALU_I: u8 = 0x05;
const OP_MUL_R: u8 = 0x06;
const OP_MUL_I: u8 = 0x07;
const OP_DIV_R: u8 = 0x08;
const OP_DIV_I: u8 = 0x09;
const OP_LOAD: u8 = 0x0A;
const OP_LOAD_IND: u8 = 0x0B;
const OP_STORE: u8 = 0x0C;
const OP_STORE_IND: u8 = 0x0D;
const OP_FLUSH: u8 = 0x0E;
const OP_FLUSH_IND: u8 = 0x0F;
const OP_TOUCH_CODE: u8 = 0x10;
const OP_JMP: u8 = 0x11;
const OP_JMP_IND: u8 = 0x12;
const OP_BRZ: u8 = 0x13;
const OP_RDTSCP: u8 = 0x14;
const OP_XBEGIN: u8 = 0x15;
const OP_XEND: u8 = 0x16;
const OP_VMX: u8 = 0x17;
const OP_FENCE: u8 = 0x18;

fn alu_code(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::And => 2,
        AluOp::Or => 3,
        AluOp::Xor => 4,
        AluOp::Shl => 5,
        AluOp::Shr => 6,
    }
}

fn alu_from(code: u8) -> Option<AluOp> {
    Some(match code {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::And,
        3 => AluOp::Or,
        4 => AluOp::Xor,
        5 => AluOp::Shl,
        6 => AluOp::Shr,
        _ => return None,
    })
}

impl Inst {
    /// Encodes the instruction into its 8-byte representation:
    /// `[opcode, b1, b2, b3, imm32-le]`.
    pub fn encode(&self) -> [u8; INST_SIZE as usize] {
        let (op, b1, b2, b3, imm): (u8, u8, u8, u8, u32) = match *self {
            Inst::Nop => (OP_NOP, 0, 0, 0, 0),
            Inst::Halt => (OP_HALT, 0, 0, 0, 0),
            Inst::Mov {
                dst,
                src: Operand::Reg(r),
            } => (OP_MOV_R, dst, r, 0, 0),
            Inst::Mov {
                dst,
                src: Operand::Imm(i),
            } => (OP_MOV_I, dst, 0, 0, i),
            Inst::Alu {
                op,
                dst,
                a,
                b: Operand::Reg(r),
            } => (OP_ALU_R, dst, a, alu_code(op), r as u32),
            Inst::Alu {
                op,
                dst,
                a,
                b: Operand::Imm(i),
            } => (OP_ALU_I, dst, a, alu_code(op), i),
            Inst::Mul {
                dst,
                a,
                b: Operand::Reg(r),
            } => (OP_MUL_R, dst, a, 0, r as u32),
            Inst::Mul {
                dst,
                a,
                b: Operand::Imm(i),
            } => (OP_MUL_I, dst, a, 0, i),
            Inst::Div {
                dst,
                a,
                b: Operand::Reg(r),
            } => (OP_DIV_R, dst, a, 0, r as u32),
            Inst::Div {
                dst,
                a,
                b: Operand::Imm(i),
            } => (OP_DIV_I, dst, a, 0, i),
            Inst::Load { dst, addr } => (OP_LOAD, dst, 0, 0, addr),
            Inst::LoadInd { dst, base, offset } => (OP_LOAD_IND, dst, base, 0, offset),
            Inst::Store { addr, src } => (OP_STORE, 0, src, 0, addr),
            Inst::StoreInd { base, offset, src } => (OP_STORE_IND, base, src, 0, offset),
            Inst::Flush { addr } => (OP_FLUSH, 0, 0, 0, addr),
            Inst::FlushInd { base, offset } => (OP_FLUSH_IND, base, 0, 0, offset),
            Inst::TouchCode { addr } => (OP_TOUCH_CODE, 0, 0, 0, addr),
            Inst::Jmp { target } => (OP_JMP, 0, 0, 0, target),
            Inst::JmpInd { base } => (OP_JMP_IND, base, 0, 0, 0),
            Inst::Brz { cond_addr, rel } => {
                let r = rel as u16;
                (OP_BRZ, (r & 0xFF) as u8, (r >> 8) as u8, 0, cond_addr)
            }
            Inst::Rdtscp { dst } => (OP_RDTSCP, dst, 0, 0, 0),
            Inst::Xbegin { handler } => (OP_XBEGIN, 0, 0, 0, handler),
            Inst::Xend => (OP_XEND, 0, 0, 0, 0),
            Inst::Vmx => (OP_VMX, 0, 0, 0, 0),
            Inst::Fence => (OP_FENCE, 0, 0, 0, 0),
            Inst::Invalid => (0xFF, 0xFF, 0xFF, 0xFF, 0xFFFF_FFFF),
        };
        let mut out = [0u8; INST_SIZE as usize];
        out[0] = op;
        out[1] = b1;
        out[2] = b2;
        out[3] = b3;
        out[4..8].copy_from_slice(&imm.to_le_bytes());
        out
    }

    /// Decodes 8 bytes into an instruction. Any pattern that is not a valid
    /// encoding (including out-of-range registers) decodes to
    /// [`Inst::Invalid`], which faults when executed — garbage data
    /// "executed as code" behaves as it would on real hardware.
    pub fn decode(bytes: &[u8; INST_SIZE as usize]) -> Inst {
        let (op, b1, b2, b3) = (bytes[0], bytes[1], bytes[2], bytes[3]);
        let imm = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let reg_ok = |r: u8| (r as usize) < NUM_REGS;
        let imm_reg = || {
            if imm < NUM_REGS as u32 {
                Some(imm as Reg)
            } else {
                None
            }
        };
        // Decoding is strict: every unused field must be zero, so a single
        // corrupted byte turns an instruction into `Invalid` rather than a
        // near-miss variant — matters for trigger-protected code (`wm_apt`).
        match op {
            OP_NOP if (b1, b2, b3, imm) == (0, 0, 0, 0) => Inst::Nop,
            OP_HALT if (b1, b2, b3, imm) == (0, 0, 0, 0) => Inst::Halt,
            OP_MOV_R if reg_ok(b1) && reg_ok(b2) && b3 == 0 && imm == 0 => Inst::Mov {
                dst: b1,
                src: Operand::Reg(b2),
            },
            OP_MOV_I if reg_ok(b1) && b2 == 0 && b3 == 0 => Inst::Mov {
                dst: b1,
                src: Operand::Imm(imm),
            },
            OP_ALU_R => match (alu_from(b3), imm_reg()) {
                (Some(aop), Some(r)) if reg_ok(b1) && reg_ok(b2) => Inst::Alu {
                    op: aop,
                    dst: b1,
                    a: b2,
                    b: Operand::Reg(r),
                },
                _ => Inst::Invalid,
            },
            OP_ALU_I => match alu_from(b3) {
                Some(aop) if reg_ok(b1) && reg_ok(b2) => Inst::Alu {
                    op: aop,
                    dst: b1,
                    a: b2,
                    b: Operand::Imm(imm),
                },
                _ => Inst::Invalid,
            },
            OP_MUL_R => match imm_reg() {
                Some(r) if reg_ok(b1) && reg_ok(b2) && b3 == 0 => Inst::Mul {
                    dst: b1,
                    a: b2,
                    b: Operand::Reg(r),
                },
                _ => Inst::Invalid,
            },
            OP_MUL_I if reg_ok(b1) && reg_ok(b2) && b3 == 0 => Inst::Mul {
                dst: b1,
                a: b2,
                b: Operand::Imm(imm),
            },
            OP_DIV_R => match imm_reg() {
                Some(r) if reg_ok(b1) && reg_ok(b2) && b3 == 0 => Inst::Div {
                    dst: b1,
                    a: b2,
                    b: Operand::Reg(r),
                },
                _ => Inst::Invalid,
            },
            OP_DIV_I if reg_ok(b1) && reg_ok(b2) && b3 == 0 => Inst::Div {
                dst: b1,
                a: b2,
                b: Operand::Imm(imm),
            },
            OP_LOAD if reg_ok(b1) && b2 == 0 && b3 == 0 => Inst::Load { dst: b1, addr: imm },
            OP_LOAD_IND if reg_ok(b1) && reg_ok(b2) && b3 == 0 => Inst::LoadInd {
                dst: b1,
                base: b2,
                offset: imm,
            },
            OP_STORE if b1 == 0 && reg_ok(b2) && b3 == 0 => Inst::Store { addr: imm, src: b2 },
            OP_STORE_IND if reg_ok(b1) && reg_ok(b2) && b3 == 0 => Inst::StoreInd {
                base: b1,
                offset: imm,
                src: b2,
            },
            OP_FLUSH if (b1, b2, b3) == (0, 0, 0) => Inst::Flush { addr: imm },
            OP_FLUSH_IND if reg_ok(b1) && b2 == 0 && b3 == 0 => Inst::FlushInd {
                base: b1,
                offset: imm,
            },
            OP_TOUCH_CODE if (b1, b2, b3) == (0, 0, 0) => Inst::TouchCode { addr: imm },
            OP_JMP if (b1, b2, b3) == (0, 0, 0) => Inst::Jmp { target: imm },
            OP_JMP_IND if reg_ok(b1) && b2 == 0 && b3 == 0 && imm == 0 => Inst::JmpInd { base: b1 },
            OP_BRZ if b3 == 0 => Inst::Brz {
                cond_addr: imm,
                rel: (b1 as u16 | ((b2 as u16) << 8)) as i16,
            },
            OP_RDTSCP if reg_ok(b1) && b2 == 0 && b3 == 0 && imm == 0 => Inst::Rdtscp { dst: b1 },
            OP_XBEGIN if (b1, b2, b3) == (0, 0, 0) => Inst::Xbegin { handler: imm },
            OP_XEND if (b1, b2, b3, imm) == (0, 0, 0, 0) => Inst::Xend,
            OP_VMX if (b1, b2, b3, imm) == (0, 0, 0, 0) => Inst::Vmx,
            OP_FENCE if (b1, b2, b3, imm) == (0, 0, 0, 0) => Inst::Fence,
            _ => Inst::Invalid,
        }
    }
}

/// A program: a sparse map from instruction addresses to instructions.
///
/// Programs are usually built with an [`Assembler`]; `wm_apt` additionally
/// decodes instructions straight out of simulated memory at run time.
///
/// The instruction map is copy-on-write behind an [`Arc`]: cloning a
/// program (a machine snapshot, a restore, a pooled shard binding one
/// compiled image) is a pointer copy, and only a mutation of a shared
/// program copies the map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    insts: Arc<BTreeMap<u64, Inst>>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// The instruction at `pc`, if any.
    pub fn get(&self, pc: u64) -> Option<Inst> {
        self.insts.get(&pc).copied()
    }

    /// Places `inst` at `pc`, replacing any previous instruction.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not a multiple of [`INST_SIZE`].
    pub fn put(&mut self, pc: u64, inst: Inst) {
        assert_eq!(
            pc % INST_SIZE,
            0,
            "instructions must be {INST_SIZE}-byte aligned"
        );
        Arc::make_mut(&mut self.insts).insert(pc, inst);
    }

    /// Merges another program's instructions into this one. Later
    /// definitions win on address clashes. Merging into an empty program
    /// shares `other`'s map instead of copying it.
    pub fn merge(&mut self, other: &Program) {
        if other.is_empty() {
            return;
        }
        if self.insts.is_empty() {
            self.insts = Arc::clone(&other.insts);
        } else {
            Arc::make_mut(&mut self.insts).extend(other.iter());
        }
    }

    /// True when both programs share one instruction map (no copy has
    /// been made since one was cloned from the other).
    pub fn shares_image(&self, other: &Program) -> bool {
        Arc::ptr_eq(&self.insts, &other.insts)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Iterates over `(address, instruction)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Inst)> + '_ {
        self.insts.iter().map(|(&a, &i)| (a, i))
    }
}

impl FromIterator<(u64, Inst)> for Program {
    fn from_iter<T: IntoIterator<Item = (u64, Inst)>>(iter: T) -> Self {
        let mut p = Program::new();
        for (a, i) in iter {
            p.put(a, i);
        }
        p
    }
}

impl Extend<(u64, Inst)> for Program {
    fn extend<T: IntoIterator<Item = (u64, Inst)>>(&mut self, iter: T) {
        for (a, i) in iter {
            self.put(a, i);
        }
    }
}

/// Errors produced while assembling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssembleError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A `Brz` displacement does not fit in 16 bits.
    BranchOutOfRange {
        /// The offending label.
        label: String,
        /// The displacement in instructions.
        displacement: i64,
    },
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssembleError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AssembleError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AssembleError::BranchOutOfRange {
                label,
                displacement,
            } => {
                write!(
                    f,
                    "branch to `{label}` out of range ({displacement} instructions)"
                )
            }
        }
    }
}

impl std::error::Error for AssembleError {}

#[allow(clippy::enum_variant_names)] // the shared postfix is the point: each fixes up one target kind
enum Fixup {
    BrzTarget { index: usize, label: String },
    JmpTarget { index: usize, label: String },
    TouchTarget { index: usize, label: String },
    FlushTarget { index: usize, label: String },
    XbeginTarget { index: usize, label: String },
}

/// A two-pass assembler with labels and alignment control.
///
/// # Examples
///
/// ```
/// use uwm_sim::isa::{Assembler, Inst, Operand};
/// let mut a = Assembler::new(0x1000);
/// a.push(Inst::Mov { dst: 0, src: Operand::Imm(1) });
/// a.jmp("end");
/// a.push(Inst::Mov { dst: 0, src: Operand::Imm(2) }); // skipped
/// a.label("end").unwrap();
/// a.push(Inst::Halt);
/// let prog = a.finish().unwrap();
/// assert_eq!(prog.len(), 4);
/// ```
pub struct Assembler {
    base: u64,
    insts: Vec<(u64, Inst)>,
    next: u64,
    labels: std::collections::HashMap<String, u64>,
    fixups: Vec<Fixup>,
}

impl fmt::Debug for Assembler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Assembler")
            .field("base", &self.base)
            .field("insts", &self.insts.len())
            .field("labels", &self.labels.len())
            .field("pending_fixups", &self.fixups.len())
            .finish()
    }
}

impl Assembler {
    /// Starts assembling at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not [`INST_SIZE`]-aligned.
    pub fn new(base: u64) -> Self {
        assert_eq!(base % INST_SIZE, 0, "base must be {INST_SIZE}-byte aligned");
        Self {
            base,
            insts: Vec::new(),
            next: base,
            labels: std::collections::HashMap::new(),
            fixups: Vec::new(),
        }
    }

    /// The address the next instruction will be placed at.
    pub fn pc(&self) -> u64 {
        self.next
    }

    /// The base address given to [`Assembler::new`].
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Appends an instruction; returns its address.
    pub fn push(&mut self, inst: Inst) -> u64 {
        let at = self.next;
        self.insts.push((at, inst));
        self.next += INST_SIZE;
        at
    }

    /// Defines `name` at the current pc.
    ///
    /// # Errors
    ///
    /// Returns [`AssembleError::DuplicateLabel`] if `name` already exists.
    pub fn label(&mut self, name: &str) -> Result<u64, AssembleError> {
        if self.labels.contains_key(name) {
            return Err(AssembleError::DuplicateLabel(name.to_owned()));
        }
        self.labels.insert(name.to_owned(), self.next);
        Ok(self.next)
    }

    /// Address of a previously defined label.
    pub fn resolve(&self, name: &str) -> Option<u64> {
        self.labels.get(name).copied()
    }

    /// Pads with [`Inst::Nop`] until the pc is `align`-byte aligned.
    ///
    /// # Panics
    ///
    /// Panics unless `align` is a power-of-two multiple of [`INST_SIZE`].
    pub fn align_to(&mut self, align: u64) {
        assert!(align.is_power_of_two() && align >= INST_SIZE);
        while !self.next.is_multiple_of(align) {
            self.push(Inst::Nop);
        }
    }

    /// Emits `Brz` whose taken-target is `label` (resolved at finish).
    pub fn brz(&mut self, cond_addr: u32, label: &str) -> u64 {
        let at = self.push(Inst::Brz { cond_addr, rel: 0 });
        self.fixups.push(Fixup::BrzTarget {
            index: self.insts.len() - 1,
            label: label.to_owned(),
        });
        at
    }

    /// Emits `Jmp` to `label` (resolved at finish).
    pub fn jmp(&mut self, label: &str) -> u64 {
        let at = self.push(Inst::Jmp { target: 0 });
        self.fixups.push(Fixup::JmpTarget {
            index: self.insts.len() - 1,
            label: label.to_owned(),
        });
        at
    }

    /// Emits `TouchCode` of `label`'s address (resolved at finish).
    pub fn touch_code(&mut self, label: &str) -> u64 {
        let at = self.push(Inst::TouchCode { addr: 0 });
        self.fixups.push(Fixup::TouchTarget {
            index: self.insts.len() - 1,
            label: label.to_owned(),
        });
        at
    }

    /// Emits `Flush` of `label`'s address (resolved at finish) — used to
    /// flush *code* lines, the IC-WR write of Table 1.
    pub fn flush_label(&mut self, label: &str) -> u64 {
        let at = self.push(Inst::Flush { addr: 0 });
        self.fixups.push(Fixup::FlushTarget {
            index: self.insts.len() - 1,
            label: label.to_owned(),
        });
        at
    }

    /// Emits `Xbegin` whose abort handler is `label` (resolved at finish).
    pub fn xbegin(&mut self, label: &str) -> u64 {
        let at = self.push(Inst::Xbegin { handler: 0 });
        self.fixups.push(Fixup::XbeginTarget {
            index: self.insts.len() - 1,
            label: label.to_owned(),
        });
        at
    }

    /// Resolves fixups and produces the [`Program`].
    ///
    /// # Errors
    ///
    /// Returns an error for undefined labels or out-of-range branches.
    pub fn finish(mut self) -> Result<Program, AssembleError> {
        for fixup in &self.fixups {
            match fixup {
                Fixup::BrzTarget { index, label } => {
                    let target = *self
                        .labels
                        .get(label)
                        .ok_or_else(|| AssembleError::UndefinedLabel(label.clone()))?;
                    let (at, inst) = self.insts[*index];
                    let disp = (target as i64 - (at + INST_SIZE) as i64) / INST_SIZE as i64;
                    if disp < i16::MIN as i64 || disp > i16::MAX as i64 {
                        return Err(AssembleError::BranchOutOfRange {
                            label: label.clone(),
                            displacement: disp,
                        });
                    }
                    if let Inst::Brz { cond_addr, .. } = inst {
                        self.insts[*index].1 = Inst::Brz {
                            cond_addr,
                            rel: disp as i16,
                        };
                    }
                }
                Fixup::JmpTarget { index, label }
                | Fixup::TouchTarget { index, label }
                | Fixup::FlushTarget { index, label }
                | Fixup::XbeginTarget { index, label } => {
                    let target = *self
                        .labels
                        .get(label)
                        .ok_or_else(|| AssembleError::UndefinedLabel(label.clone()))?;
                    let t32 = target as u32;
                    self.insts[*index].1 = match (self.insts[*index].1, fixup) {
                        (Inst::Jmp { .. }, Fixup::JmpTarget { .. }) => Inst::Jmp { target: t32 },
                        (Inst::TouchCode { .. }, Fixup::TouchTarget { .. }) => {
                            Inst::TouchCode { addr: t32 }
                        }
                        (Inst::Flush { .. }, Fixup::FlushTarget { .. }) => {
                            Inst::Flush { addr: t32 }
                        }
                        (Inst::Xbegin { .. }, Fixup::XbeginTarget { .. }) => {
                            Inst::Xbegin { handler: t32 }
                        }
                        (other, _) => other,
                    };
                }
            }
        }
        Ok(self.insts.into_iter().collect())
    }
}

/// Computes the taken-target of a `Brz` at `pc` with displacement `rel`.
pub fn brz_target(pc: u64, rel: i16) -> u64 {
    (pc as i64 + INST_SIZE as i64 * (1 + rel as i64)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_insts() -> Vec<Inst> {
        vec![
            Inst::Nop,
            Inst::Halt,
            Inst::Mov {
                dst: 3,
                src: Operand::Reg(4),
            },
            Inst::Mov {
                dst: 15,
                src: Operand::Imm(0xDEAD_BEEF),
            },
            Inst::Alu {
                op: AluOp::Add,
                dst: 1,
                a: 2,
                b: Operand::Imm(7),
            },
            Inst::Alu {
                op: AluOp::Xor,
                dst: 1,
                a: 2,
                b: Operand::Reg(3),
            },
            Inst::Alu {
                op: AluOp::Shl,
                dst: 0,
                a: 0,
                b: Operand::Imm(5),
            },
            Inst::Mul {
                dst: 2,
                a: 3,
                b: Operand::Reg(4),
            },
            Inst::Mul {
                dst: 2,
                a: 3,
                b: Operand::Imm(9),
            },
            Inst::Div {
                dst: 2,
                a: 3,
                b: Operand::Imm(0),
            },
            Inst::Div {
                dst: 2,
                a: 3,
                b: Operand::Reg(5),
            },
            Inst::Load {
                dst: 7,
                addr: 0x4000,
            },
            Inst::LoadInd {
                dst: 7,
                base: 8,
                offset: 16,
            },
            Inst::Store {
                addr: 0x4000,
                src: 7,
            },
            Inst::StoreInd {
                base: 7,
                offset: 8,
                src: 9,
            },
            Inst::Flush { addr: 0x4040 },
            Inst::FlushInd { base: 2, offset: 0 },
            Inst::TouchCode { addr: 0x8000 },
            Inst::Jmp { target: 0x8000 },
            Inst::JmpInd { base: 5 },
            Inst::Brz {
                cond_addr: 0x4000,
                rel: -3,
            },
            Inst::Brz {
                cond_addr: 0x4000,
                rel: 200,
            },
            Inst::Rdtscp { dst: 0 },
            Inst::Xbegin { handler: 0x9000 },
            Inst::Xend,
            Inst::Vmx,
            Inst::Fence,
            Inst::Invalid,
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for inst in all_insts() {
            let bytes = inst.encode();
            assert_eq!(Inst::decode(&bytes), inst, "roundtrip failed for {inst:?}");
        }
    }

    #[test]
    fn garbage_decodes_to_invalid_or_valid_never_panics() {
        // Exhaustive over opcode byte; pseudo-random over the rest.
        for op in 0..=255u8 {
            let bytes = [op, 0x33, 0x77, 0x05, 0x01, 0x02, 0x03, 0x04];
            let _ = Inst::decode(&bytes); // must not panic
        }
    }

    #[test]
    fn out_of_range_register_is_invalid() {
        let bad = [OP_RDTSCP, 16, 0, 0, 0, 0, 0, 0];
        assert_eq!(Inst::decode(&bad), Inst::Invalid);
    }

    #[test]
    fn brz_target_math() {
        // rel = 0 → next instruction; rel = 2 → skip two.
        assert_eq!(brz_target(0x100, 0), 0x108);
        assert_eq!(brz_target(0x100, 2), 0x118);
        assert_eq!(brz_target(0x100, -1), 0x100);
    }

    #[test]
    fn assembler_resolves_forward_and_backward() {
        let mut a = Assembler::new(0);
        a.label("top").unwrap();
        a.push(Inst::Nop);
        a.brz(0x4000, "end");
        a.jmp("top");
        a.label("end").unwrap();
        a.push(Inst::Halt);
        let p = a.finish().unwrap();
        match p.get(8).unwrap() {
            Inst::Brz { rel, .. } => assert_eq!(brz_target(8, rel), 24),
            other => panic!("expected Brz, got {other:?}"),
        }
        assert_eq!(p.get(16), Some(Inst::Jmp { target: 0 }));
    }

    #[test]
    fn assembler_errors() {
        let mut a = Assembler::new(0);
        a.jmp("nowhere");
        assert_eq!(
            a.finish().unwrap_err(),
            AssembleError::UndefinedLabel("nowhere".into())
        );

        let mut a = Assembler::new(0);
        a.label("x").unwrap();
        assert!(matches!(
            a.label("x"),
            Err(AssembleError::DuplicateLabel(_))
        ));
    }

    #[test]
    fn align_pads_with_nops() {
        let mut a = Assembler::new(0);
        a.push(Inst::Halt);
        a.align_to(64);
        assert_eq!(a.pc(), 64);
        let p = a.finish().unwrap();
        assert_eq!(p.get(8), Some(Inst::Nop));
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn program_merge_and_iter() {
        let mut a = Program::new();
        a.put(0, Inst::Nop);
        let mut b = Program::new();
        b.put(8, Inst::Halt);
        b.put(0, Inst::Fence); // clash: b wins
        a.merge(&b);
        assert_eq!(a.get(0), Some(Inst::Fence));
        let addrs: Vec<u64> = a.iter().map(|(a, _)| a).collect();
        assert_eq!(addrs, vec![0, 8]);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_put_panics() {
        let mut p = Program::new();
        p.put(3, Inst::Nop);
    }
}
