//! Predictor-state weird registers: BP-WR (direction) and BTB-WR (target).

use crate::error::Result;
use crate::layout::Layout;
use crate::reg::{timed_run, Cut, WeirdRegister};
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
    cut: Cut,
}

/// Branch executions per write.
const BP_TRAIN_ITERS: u32 = 4;

impl BpWr {
    /// Builds the register's private branch stub and calibrates it.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn build(s: &mut dyn Substrate, lay: &mut Layout) -> Result<Self> {
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
        let mut r = Self {
            branch_pc,
            cond,
            cut: Cut::default(),
        };
        r.cut = Cut::calibrate(&r, s);
        Ok(r)
    }

    /// Address of the branch carrying the state (for aliasing experiments).
    pub fn branch_pc(&self) -> u64 {
        self.branch_pc
    }

    /// Sets the condition (warm, so resolution is fast) and times one
    /// execution of the branch.
    fn run_branch(&self, s: &mut dyn Substrate, cond_value: u64) -> u64 {
        s.write_word(self.cond, cond_value);
        s.timed_read(self.cond);
        timed_run(s, self.branch_pc)
    }
}

impl WeirdRegister for BpWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        // bit=1 → train not-taken (condition non-zero); bit=0 → taken.
        for _ in 0..BP_TRAIN_ITERS {
            self.run_branch(s, u64::from(bit));
        }
    }

    /// Executes the branch not-taken: fast when the predictor agreed.
    fn read_delay(&self, s: &mut dyn Substrate) -> u64 {
        self.run_branch(s, 1)
    }

    fn read(&self, s: &mut dyn Substrate) -> bool {
        self.cut.decode(self.read_delay(s))
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
    cut: Cut,
}

/// Scratch register the jump stub reads its target from.
const TARGET_REG: u8 = 10;

impl BtbWr {
    /// Builds the register's private indirect-jump stub and two targets,
    /// and calibrates it.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn build(s: &mut dyn Substrate, lay: &mut Layout) -> Result<Self> {
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
        let mut r = Self {
            jmp_pc,
            target_b,
            target_c,
            cut: Cut::default(),
        };
        r.cut = Cut::calibrate(&r, s);
        Ok(r)
    }

    fn jump_to(&self, s: &mut dyn Substrate, target: u64) -> u64 {
        s.set_reg(TARGET_REG, target);
        s.touch_code(self.jmp_pc); // isolate the BTB effect from I-cache state
        s.touch_code(target);
        timed_run(s, self.jmp_pc)
    }
}

impl WeirdRegister for BtbWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        let target = if bit { self.target_c } else { self.target_b };
        self.jump_to(s, target);
    }

    /// Jumps to B: fast when the BTB held B (bit 0), slow when it held C.
    fn read_delay(&self, s: &mut dyn Substrate) -> u64 {
        self.jump_to(s, self.target_b)
    }

    fn read(&self, s: &mut dyn Substrate) -> bool {
        self.cut.decode(self.read_delay(s))
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
