//! [`FlatEmulator`]: an architectural-only [`Substrate`].
//!
//! This is the "fast emulator" adversary of the paper's §7: it executes
//! the ISA faithfully — same registers, memory, transactions and faults as
//! the microarchitectural simulator — but models *no* microarchitecture.
//! Every memory access costs the same flat latency, branches resolve
//! instantly and perfectly, flushes and code touches change nothing, and a
//! fault inside a transaction rolls back immediately with **no**
//! post-fault speculative window.
//!
//! Weird gates therefore stop computing here: their output reads come back
//! with a constant (hit-like) latency regardless of inputs. The emulation
//! detector instantiates the same gate spec on a [`FlatEmulator`] and a
//! real `Machine` and compares decoded bits against the gate's truth table
//! to tell the two apart.

use super::{Substrate, SubstrateSnapshot};
use uwm_sim::isa::{brz_target, AluOp, Inst, Operand, Program, Reg, INST_SIZE, NUM_REGS};
use uwm_sim::machine::{FaultCause, RunOutcome};
use uwm_sim::memory::Memory;
use uwm_sim::predecode::CodeCache;
use uwm_sim::timing::LatencyConfig;

/// Alias stride matching the default simulator predictor (1024 entries ×
/// 8-byte instructions), so a [`crate::layout::Layout`] built for the
/// default `Machine` instantiates unchanged on the flat backend.
pub const DEFAULT_ALIAS_STRIDE: u64 = 8192;

/// Transaction bookkeeping: architectural rollback only.
#[derive(Debug, Clone)]
struct FlatTx {
    handler: u64,
    saved_regs: [u64; NUM_REGS],
    undo_log: Vec<(u64, u64)>,
}

/// A purely architectural interpreter implementing [`Substrate`].
///
/// # Examples
///
/// ```
/// use uwm_core::substrate::{FlatEmulator, Substrate};
///
/// let mut f = FlatEmulator::new();
/// f.flush_addr(0x10_0000);
/// // No caches: a "flushed" line still reads with hit-like latency.
/// assert!(f.timed_read(0x10_0000) < 20);
/// ```
#[derive(Debug, Clone)]
pub struct FlatEmulator {
    lat: LatencyConfig,
    regs: [u64; NUM_REGS],
    mem: Memory,
    program: Program,
    code: CodeCache,
    cycles: u64,
    tx: Option<FlatTx>,
    step_limit: u64,
}

impl Default for FlatEmulator {
    fn default() -> Self {
        Self::new()
    }
}

impl FlatEmulator {
    /// An emulator with the default latency model and alias stride.
    pub fn new() -> Self {
        Self {
            lat: LatencyConfig::default(),
            regs: [0; NUM_REGS],
            mem: Memory::new(),
            program: Program::new(),
            code: CodeCache::new(),
            cycles: 0,
            tx: None,
            step_limit: 10_000_000,
        }
    }

    /// Architectural register read (tests, demos).
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r as usize]
    }

    /// Restores every field from `snap` in place (see
    /// [`Memory::restore_from`]); the program image is a shared pointer
    /// copy.
    fn restore_fields(&mut self, snap: &FlatEmulator) {
        self.lat.clone_from(&snap.lat);
        self.regs = snap.regs;
        self.mem.restore_from(&snap.mem);
        self.program.clone_from(&snap.program);
        self.code.restore_from(&snap.code, false);
        self.tx.clone_from(&snap.tx);
        self.step_limit = snap.step_limit;
        self.cycles = snap.cycles;
    }

    fn operand(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.regs[r as usize],
            Operand::Imm(i) => i as u64,
        }
    }

    fn store(&mut self, addr: u64, value: u64) {
        self.cycles += self.lat.l1;
        if let Some(tx) = self.tx.as_mut() {
            tx.undo_log.push((addr, self.mem.read_u64(addr)));
        }
        self.mem.write_u64(addr, value);
        self.code.invalidate_bytes(addr, 8); // self-modifying code
    }

    /// Rolls the active transaction back: registers restored, stores
    /// undone, control continues at the abort handler. Unlike the
    /// simulator there is no post-abort speculative window — the defining
    /// difference the detector measures.
    fn tx_rollback(&mut self) -> u64 {
        let tx = self.tx.take().expect("rollback requires an active tx");
        self.regs = tx.saved_regs;
        for &(addr, old) in tx.undo_log.iter().rev() {
            self.mem.write_u64(addr, old);
            self.code.invalidate_bytes(addr, 8);
        }
        self.cycles += self.lat.xabort;
        tx.handler
    }

    /// Fetches via the predecode cache, falling back to the program map
    /// and then to decoding simulated memory (same contract as the
    /// microarchitectural machine's fetch).
    fn fetch(&mut self, pc: u64) -> Inst {
        if let Some(i) = self.code.lookup(pc) {
            return i;
        }
        if let Some(i) = self.program.get(pc) {
            self.code.install_static(pc, i);
            return i;
        }
        let inst = Inst::decode(&self.mem.read_array(pc));
        self.code.install_dynamic(pc, inst);
        inst
    }

    /// Executes one instruction; `Ok(Some(next_pc))` continues, `Ok(None)`
    /// halts, `Err(cause)` faults.
    fn step(&mut self, pc: u64) -> Result<Option<u64>, FaultCause> {
        self.cycles += 1; // flat fetch
        let inst = self.fetch(pc);
        let next = pc + INST_SIZE;
        match inst {
            Inst::Nop => {
                self.cycles += self.lat.alu;
                Ok(Some(next))
            }
            Inst::Halt => {
                if self.tx.is_some() {
                    return Ok(Some(self.tx_rollback()));
                }
                Ok(None)
            }
            Inst::Mov { dst, src } => {
                let v = self.operand(src);
                self.cycles += self.lat.alu;
                self.regs[dst as usize] = v;
                Ok(Some(next))
            }
            Inst::Alu { op, dst, a, b } => {
                let av = self.regs[a as usize];
                let bv = self.operand(b);
                let v = match op {
                    AluOp::Add => av.wrapping_add(bv),
                    AluOp::Sub => av.wrapping_sub(bv),
                    AluOp::And => av & bv,
                    AluOp::Or => av | bv,
                    AluOp::Xor => av ^ bv,
                    AluOp::Shl => av << (bv & 63),
                    AluOp::Shr => av >> (bv & 63),
                };
                self.cycles += self.lat.alu;
                self.regs[dst as usize] = v;
                Ok(Some(next))
            }
            Inst::Mul { dst, a, b } => {
                let v = self.regs[a as usize].wrapping_mul(self.operand(b));
                self.cycles += self.lat.mul;
                self.regs[dst as usize] = v;
                Ok(Some(next))
            }
            Inst::Div { dst, a, b } => {
                let divisor = self.operand(b);
                if divisor == 0 {
                    return Err(FaultCause::DivByZero);
                }
                self.cycles += self.lat.div;
                self.regs[dst as usize] = self.regs[a as usize] / divisor;
                Ok(Some(next))
            }
            Inst::Load { dst, addr } => {
                self.cycles += self.lat.l1;
                self.regs[dst as usize] = self.mem.read_u64(addr as u64);
                Ok(Some(next))
            }
            Inst::LoadInd { dst, base, offset } => {
                let addr = self.regs[base as usize].wrapping_add(offset as u64);
                self.cycles += self.lat.l1;
                self.regs[dst as usize] = self.mem.read_u64(addr);
                Ok(Some(next))
            }
            Inst::Store { addr, src } => {
                self.store(addr as u64, self.regs[src as usize]);
                Ok(Some(next))
            }
            Inst::StoreInd { base, offset, src } => {
                let addr = self.regs[base as usize].wrapping_add(offset as u64);
                self.store(addr, self.regs[src as usize]);
                Ok(Some(next))
            }
            // No caches to flush or warm: timing cost only.
            Inst::Flush { .. } | Inst::FlushInd { .. } => {
                self.cycles += self.lat.clflush;
                Ok(Some(next))
            }
            Inst::TouchCode { .. } => {
                self.cycles += self.lat.l1;
                Ok(Some(next))
            }
            Inst::Jmp { target } => {
                self.cycles += self.lat.alu;
                Ok(Some(target as u64))
            }
            Inst::JmpInd { base } => {
                self.cycles += self.lat.alu;
                Ok(Some(self.regs[base as usize]))
            }
            Inst::Brz { cond_addr, rel } => {
                // Resolved instantly and perfectly: no prediction, no
                // misprediction window, no wrong-path execution.
                self.cycles += self.lat.alu + self.lat.l1;
                let taken = self.mem.read_u64(cond_addr as u64) == 0;
                Ok(Some(if taken { brz_target(pc, rel) } else { next }))
            }
            Inst::Rdtscp { dst } => {
                self.cycles += self.lat.rdtscp;
                self.regs[dst as usize] = self.cycles;
                Ok(Some(next))
            }
            Inst::Xbegin { handler } => {
                if self.tx.is_some() {
                    return Err(FaultCause::TxMisuse);
                }
                self.cycles += self.lat.xbegin;
                self.tx = Some(FlatTx {
                    handler: handler as u64,
                    saved_regs: self.regs,
                    undo_log: Vec::new(),
                });
                Ok(Some(next))
            }
            Inst::Xend => match self.tx.take() {
                Some(_) => {
                    self.cycles += self.lat.xend;
                    Ok(Some(next))
                }
                None => Err(FaultCause::TxMisuse),
            },
            Inst::Vmx => {
                self.cycles += self.lat.vmx_warm;
                Ok(Some(next))
            }
            Inst::Fence => {
                self.cycles += 20;
                Ok(Some(next))
            }
            Inst::Invalid => Err(FaultCause::InvalidInstruction),
        }
    }
}

impl Substrate for FlatEmulator {
    fn backend_name(&self) -> &'static str {
        "flat-emulator"
    }

    fn install_program(&mut self, program: &Program) {
        self.program.merge(program);
        self.code.rebuild(&self.program);
    }

    fn warm_code_range(&mut self, base: u64, end: u64) {
        // No caches to warm, but predecode the range (no timing effect).
        let mut pc = base - base % INST_SIZE;
        while pc < end {
            if self.code.lookup(pc).is_none() {
                self.fetch(pc);
            }
            pc += INST_SIZE;
        }
    }

    fn run_at(&mut self, mut pc: u64) -> RunOutcome {
        let mut steps = 0u64;
        loop {
            if steps >= self.step_limit {
                return RunOutcome::StepLimit;
            }
            steps += 1;
            match self.step(pc) {
                Ok(Some(next)) => pc = next,
                Ok(None) => return RunOutcome::Halted,
                Err(cause) => {
                    if self.tx.is_some() {
                        // Immediate rollback: no speculative window in
                        // which gate code could leave cache footprints.
                        pc = self.tx_rollback();
                    } else {
                        return RunOutcome::Fault { pc, cause };
                    }
                }
            }
        }
    }

    fn flush_addr(&mut self, _addr: u64) {
        self.cycles += self.lat.clflush;
    }

    fn timed_read(&mut self, addr: u64) -> u64 {
        let _ = self.mem.read_u64(addr);
        self.cycles += self.lat.l1;
        self.lat.l1
    }

    fn timed_read_tsc(&mut self, addr: u64) -> u64 {
        let d = self.timed_read(addr) + self.lat.rdtscp;
        self.cycles += self.lat.rdtscp;
        d
    }

    fn touch_code(&mut self, _addr: u64) {
        self.cycles += self.lat.l1;
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn idle(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    fn write_word(&mut self, addr: u64, value: u64) {
        self.mem.write_u64(addr, value);
        self.code.invalidate_bytes(addr, 8);
    }

    fn read_word(&self, addr: u64) -> u64 {
        self.mem.read_u64(addr)
    }

    fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[r as usize] = value;
    }

    fn latency(&self) -> &LatencyConfig {
        &self.lat
    }

    fn alias_stride(&self) -> u64 {
        DEFAULT_ALIAS_STRIDE
    }

    fn snapshot(&self) -> SubstrateSnapshot {
        SubstrateSnapshot(Box::new(self.clone()))
    }

    fn restore(&mut self, snap: &SubstrateSnapshot) {
        let f = snap
            .downcast_ref::<FlatEmulator>()
            .expect("snapshot was taken from the flat-emulator backend");
        self.restore_fields(f);
    }

    fn reseed(&mut self, _seed: u64) {
        // Fully deterministic backend: nothing to reseed.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwm_sim::isa::Assembler;

    #[test]
    fn timed_reads_are_flat() {
        let mut f = FlatEmulator::new();
        let hot = f.timed_read(0x10_0000);
        f.flush_addr(0x10_0000);
        let after_flush = f.timed_read(0x10_0000);
        assert_eq!(hot, after_flush, "no cache state to evict");
    }

    #[test]
    fn transactions_roll_back_architecturally() {
        // xbegin; store 1 -> A; div-by-zero faults; handler halts.
        let a_addr = 0x10_0000u64;
        let mut a = Assembler::new(0x1000);
        a.xbegin("handler");
        a.push(Inst::Mov {
            dst: 1,
            src: Operand::Imm(1),
        });
        a.push(Inst::Store {
            addr: a_addr as u32,
            src: 1,
        });
        a.push(Inst::Div {
            dst: 2,
            a: 2,
            b: Operand::Imm(0),
        });
        a.push(Inst::Xend);
        a.label("handler").unwrap();
        a.push(Inst::Halt);
        let prog = a.finish().unwrap();

        let mut f = FlatEmulator::new();
        f.write_word(a_addr, 7);
        f.install_program(&prog);
        assert_eq!(f.run_at(0x1000), RunOutcome::Halted);
        assert_eq!(f.read_word(a_addr), 7, "aborted store undone");
        assert_eq!(f.reg(1), 0, "registers restored");
    }

    #[test]
    fn faults_outside_tx_surface() {
        let mut a = Assembler::new(0);
        a.push(Inst::Div {
            dst: 1,
            a: 1,
            b: Operand::Imm(0),
        });
        a.push(Inst::Halt);
        let mut f = FlatEmulator::new();
        f.install_program(&a.finish().unwrap());
        assert_eq!(
            f.run_at(0),
            RunOutcome::Fault {
                pc: 0,
                cause: FaultCause::DivByZero
            }
        );
    }

    #[test]
    fn halt_inside_tx_aborts_to_handler() {
        let out = 0x10_0040u64;
        let mut a = Assembler::new(0);
        a.xbegin("handler");
        a.push(Inst::Halt); // syscall-class event: abort, do not halt
        a.label("handler").unwrap();
        a.push(Inst::Mov {
            dst: 3,
            src: Operand::Imm(9),
        });
        a.push(Inst::Store {
            addr: out as u32,
            src: 3,
        });
        a.push(Inst::Halt);
        let mut f = FlatEmulator::new();
        f.install_program(&a.finish().unwrap());
        assert_eq!(f.run_at(0), RunOutcome::Halted);
        assert_eq!(f.read_word(out), 9);
    }

    /// The simulator's post-fault TSX leak (an assignment gate `d3 := d0`
    /// with `d0` cached) fills `d3` on a `Machine`; here neither a miss
    /// nor the leak program changes any read latency.
    #[test]
    fn uniform_timing_and_no_post_fault_leak() {
        let mut f = FlatEmulator::new();
        let miss = f.timed_read(0x4000);
        let hit = f.timed_read(0x4000);
        assert_eq!(miss, hit, "no hit/miss distinction");

        let d0 = 0x4000u32;
        let d3 = 0x4400u32;
        f.flush_addr(d3 as u64);
        let mut a = Assembler::new(0);
        a.xbegin("handler");
        a.push(Inst::Div {
            dst: 1,
            a: 1,
            b: Operand::Imm(0),
        });
        a.push(Inst::Load { dst: 2, addr: d0 });
        a.push(Inst::Alu {
            op: AluOp::Add,
            dst: 2,
            a: 2,
            b: Operand::Imm(d3),
        });
        a.push(Inst::LoadInd {
            dst: 3,
            base: 2,
            offset: 0,
        });
        a.push(Inst::Xend);
        a.label("handler").unwrap();
        a.push(Inst::Halt);
        f.install_program(&a.finish().unwrap());
        assert_eq!(f.run_at(0), RunOutcome::Halted);
        assert_eq!(f.reg(3), 0, "architectural register rolled back");
        assert_eq!(f.timed_read(d3 as u64), miss, "d3 reads like any line");
    }

    #[test]
    fn cycles_are_monotonic() {
        let mut f = FlatEmulator::new();
        let c0 = f.cycles();
        f.idle(100);
        f.timed_read(0);
        assert!(f.cycles() >= c0 + 100);
    }
}
