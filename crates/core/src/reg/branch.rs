//! Predictor-state weird registers: BP-WR (direction) and BTB-WR (target).

use crate::error::Result;
use crate::layout::Layout;
use crate::reg::WeirdRegister;
use crate::substrate::Substrate;
use uwm_sim::isa::{Assembler, Inst};

/// Branch-direction-predictor weird register (Table 1, BranchScope-style).
///
/// The bit is the trained direction of a private conditional branch:
/// writing trains the branch taken (0) or not-taken (1); reading executes
/// the branch not-taken with a warm condition and times it — a correctly
/// predicted execution is fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpWr {
    branch_pc: u64,
    cond: u64,
    threshold: u64,
    train_iters: u32,
}

impl BpWr {
    /// Builds the register's private branch stub.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn build<S: Substrate + ?Sized>(s: &mut S, lay: &mut Layout) -> Result<Self> {
        let cond = lay.alloc_var()?;
        let branch_pc = lay.alloc_app_code(64)?;
        let mut a = Assembler::new(branch_pc);
        // Taken target == fall-through: both land on the Halt; only the
        // predictor outcome differs.
        a.push(Inst::Brz {
            cond_addr: cond as u32,
            rel: 0,
        });
        a.push(Inst::Halt);
        s.install_program(&a.finish()?);
        s.warm_code_range(branch_pc, branch_pc + 16);
        Ok(Self {
            branch_pc,
            cond,
            threshold: 20,
            train_iters: 4,
        })
    }

    /// Address of the branch carrying the state (for aliasing experiments).
    pub fn branch_pc(&self) -> u64 {
        self.branch_pc
    }

    fn run_branch<S: Substrate + ?Sized>(&self, s: &mut S, cond_value: u64) {
        s.write_word(self.cond, cond_value);
        s.timed_read(self.cond); // keep resolution fast: warm condition
        s.run_at(self.branch_pc);
    }
}

impl WeirdRegister for BpWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        // bit=1 → train not-taken (condition non-zero); bit=0 → taken.
        let v = if bit { 1 } else { 0 };
        for _ in 0..self.train_iters {
            self.run_branch(s, v);
        }
    }

    fn read(&self, s: &mut dyn Substrate) -> bool {
        // Execute not-taken and time it: fast ⇒ predictor agreed ⇒ bit 1.
        s.write_word(self.cond, 1);
        s.timed_read(self.cond);
        let before = s.cycles();
        s.run_at(self.branch_pc);
        let delay = s.cycles() - before;
        delay < self.threshold
    }

    fn name(&self) -> &'static str {
        "bp"
    }
}

/// Branch-target-buffer weird register (Jump-over-ASLR-style).
///
/// The bit is *which target* the BTB remembers for a private indirect
/// jump: writing executes the jump to target B (bit 0) or C (bit 1);
/// reading executes the jump to B and times it — a BTB entry holding C
/// mispredicts and pays a front-end bubble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbWr {
    jmp_pc: u64,
    target_b: u64,
    target_c: u64,
    threshold: u64,
}

/// Scratch register the jump stub reads its target from.
const TARGET_REG: u8 = 10;

impl BtbWr {
    /// Builds the register's private indirect-jump stub and two targets.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn build<S: Substrate + ?Sized>(s: &mut S, lay: &mut Layout) -> Result<Self> {
        let jmp_pc = lay.alloc_app_code(64)?;
        let target_b = lay.alloc_app_code(64)?;
        let target_c = lay.alloc_app_code(64)?;
        let mut a = Assembler::new(jmp_pc);
        a.push(Inst::JmpInd { base: TARGET_REG });
        s.install_program(&a.finish()?);
        for t in [target_b, target_c] {
            let mut a = Assembler::new(t);
            a.push(Inst::Halt);
            s.install_program(&a.finish()?);
        }
        Ok(Self {
            jmp_pc,
            target_b,
            target_c,
            threshold: 8,
        })
    }

    fn jump_to<S: Substrate + ?Sized>(&self, s: &mut S, target: u64) -> u64 {
        s.set_reg(TARGET_REG, target);
        s.touch_code(self.jmp_pc); // isolate the BTB effect from I-cache state
        s.touch_code(target);
        let before = s.cycles();
        s.run_at(self.jmp_pc);
        s.cycles() - before
    }
}

impl WeirdRegister for BtbWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        let target = if bit { self.target_c } else { self.target_b };
        self.jump_to(s, target);
    }

    fn read(&self, s: &mut dyn Substrate) -> bool {
        // Jump to B: fast ⇒ BTB held B ⇒ bit 0; slow ⇒ held C ⇒ bit 1.
        let delay = self.jump_to(s, self.target_b);
        delay >= self.threshold + 2 * s.latency().l1 + s.latency().alu
    }

    fn name(&self) -> &'static str {
        "btb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwm_sim::machine::{Machine, MachineConfig};

    fn setup() -> (Machine, Layout) {
        let m = Machine::new(MachineConfig::quiet(), 0);
        let lay = Layout::new(m.predictor().alias_stride());
        (m, lay)
    }

    #[test]
    fn bp_read_is_perturbing_toward_not_taken() {
        let (mut m, mut lay) = setup();
        let r = BpWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, false);
        assert!(!r.read(&mut m));
        // Reads execute the branch not-taken; enough of them re-train it.
        let _ = r.read(&mut m);
        let _ = r.read(&mut m);
        assert!(r.read(&mut m), "reads decohere a stored 0 toward 1");
    }

    #[test]
    fn btb_read_after_read_stays_zero() {
        let (mut m, mut lay) = setup();
        let r = BtbWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, true);
        assert!(r.read(&mut m));
        // The read executed jmp→B, overwriting the entry: decoherence.
        assert!(!r.read(&mut m));
    }

    #[test]
    fn bp_and_btb_coexist() {
        let (mut m, mut lay) = setup();
        let bp = BpWr::build(&mut m, &mut lay).unwrap();
        let btb = BtbWr::build(&mut m, &mut lay).unwrap();
        bp.write(&mut m, true);
        btb.write(&mut m, false);
        assert!(bp.read(&mut m));
        assert!(!btb.read(&mut m));
    }
}
