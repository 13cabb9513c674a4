//! Contention-based weird registers: MUL-WR, ROB-WR, VMX-WR.
//!
//! These are the *volatile* registers of Table 1: the stored value decays
//! within a few thousand cycles, which hurts reliability but improves
//! stealth (§3.1, property 1).

use crate::error::Result;
use crate::layout::Layout;
use crate::reg::{timed_run, Cut, WeirdRegister};
use crate::substrate::Substrate;
use uwm_sim::isa::{Assembler, Inst, Operand};

/// Multiplier-port contention weird register.
///
/// Writing 1 hammers the multiplier with a burst of `mul` instructions;
/// writing 0 lets the pipeline drain. Reading times a single `mul`: a
/// backed-up multiplier shows a queuing delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MulWr {
    burst_pc: u64,
    probe_pc: u64,
    cut: Cut,
}

/// `mul` instructions issued per write-1 burst.
const MUL_BURST: usize = 24;

impl MulWr {
    /// Builds the burst and probe stubs and calibrates the register.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn build(s: &mut dyn Substrate, lay: &mut Layout) -> Result<Self> {
        let burst_pc = lay.alloc_app_code((MUL_BURST as u64 + 1) * 8)?;
        let mut a = Assembler::new(burst_pc);
        for _ in 0..MUL_BURST {
            a.push(Inst::Mul {
                dst: 1,
                a: 1,
                b: Operand::Imm(3),
            });
        }
        a.push(Inst::Halt);
        let burst_end = a.pc();
        s.install_program(&a.finish()?);
        s.warm_code_range(burst_pc, burst_end);

        let probe_pc = lay.alloc_app_code(64)?;
        let mut a = Assembler::new(probe_pc);
        a.push(Inst::Mul {
            dst: 2,
            a: 2,
            b: Operand::Imm(3),
        });
        a.push(Inst::Halt);
        s.install_program(&a.finish()?);
        s.warm_code_range(probe_pc, probe_pc + 16);

        let mut r = Self {
            burst_pc,
            probe_pc,
            cut: Cut::default(),
        };
        r.cut = Cut::calibrate(&r, s);
        Ok(r)
    }
}

impl WeirdRegister for MulWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        if bit {
            s.run_at(self.burst_pc);
        } else {
            // "Execute nops": give the pipeline time to drain.
            s.idle(uwm_sim::contention::MUL_QUEUE_CAP);
        }
    }

    /// Times one `mul`: slow when the multiplier is backed up.
    fn read_delay(&self, s: &mut dyn Substrate) -> u64 {
        s.touch_code(self.probe_pc); // isolate contention from I-cache state
        timed_run(s, self.probe_pc)
    }

    fn read(&self, s: &mut dyn Substrate) -> bool {
        self.cut.decode(self.read_delay(s))
    }

    fn name(&self) -> &'static str {
        "mul"
    }
}

/// Reorder-buffer pressure weird register.
///
/// Writing 1 issues a burst of cache-missing loads whose long latencies
/// park in the ROB; reading times a serializing `fence`, which must wait
/// for the buffer to drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobWr {
    burst_pc: u64,
    probe_pc: u64,
    /// First of the miss-target variables (one line each).
    targets: u64,
    cut: Cut,
}

/// Cache-missing loads per write-1 burst.
const ROB_BURST: usize = 8;

impl RobWr {
    /// Builds the burst/probe stubs and their private miss targets, and
    /// calibrates the register.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn build(s: &mut dyn Substrate, lay: &mut Layout) -> Result<Self> {
        let targets = lay.alloc_var()?;
        for _ in 1..ROB_BURST {
            lay.alloc_var()?; // reserve the rest of the line run
        }
        let burst_pc = lay.alloc_app_code((ROB_BURST as u64 + 1) * 8)?;
        let mut a = Assembler::new(burst_pc);
        for i in 0..ROB_BURST {
            a.push(Inst::Load {
                dst: 1,
                addr: (targets + i as u64 * 64) as u32,
            });
        }
        a.push(Inst::Halt);
        let burst_end = a.pc();
        s.install_program(&a.finish()?);
        s.warm_code_range(burst_pc, burst_end);

        let probe_pc = lay.alloc_app_code(64)?;
        let mut a = Assembler::new(probe_pc);
        a.push(Inst::Fence);
        a.push(Inst::Halt);
        s.install_program(&a.finish()?);
        s.warm_code_range(probe_pc, probe_pc + 16);

        let mut r = Self {
            burst_pc,
            probe_pc,
            targets,
            cut: Cut::default(),
        };
        r.cut = Cut::calibrate(&r, s);
        Ok(r)
    }
}

impl WeirdRegister for RobWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        if bit {
            // Ensure the loads actually miss: flush the targets first.
            for i in 0..ROB_BURST as u64 {
                s.flush_addr(self.targets + i * 64);
            }
            s.run_at(self.burst_pc);
        } else {
            // Long enough for the deepest burst to drain completely.
            s.idle(20_000);
        }
    }

    /// Times a `fence`: slow while the burst's misses occupy the ROB.
    fn read_delay(&self, s: &mut dyn Substrate) -> u64 {
        s.touch_code(self.probe_pc);
        timed_run(s, self.probe_pc)
    }

    fn read(&self, s: &mut dyn Substrate) -> bool {
        self.cut.decode(self.read_delay(s))
    }

    fn name(&self) -> &'static str {
        "rob"
    }
}

/// VMX warm-up weird register (NetSpectre-style).
///
/// Writing 1 executes a VMX-class instruction, leaving the VMX machinery
/// powered/warm for a while; reading times a single VMX instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmxWr {
    probe_pc: u64,
    cut: Cut,
}

impl VmxWr {
    /// Builds the probe stub and calibrates the register.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn build(s: &mut dyn Substrate, lay: &mut Layout) -> Result<Self> {
        let probe_pc = lay.alloc_app_code(64)?;
        let mut a = Assembler::new(probe_pc);
        a.push(Inst::Vmx);
        a.push(Inst::Halt);
        s.install_program(&a.finish()?);
        s.warm_code_range(probe_pc, probe_pc + 16);
        let mut r = Self {
            probe_pc,
            cut: Cut::default(),
        };
        r.cut = Cut::calibrate(&r, s);
        Ok(r)
    }
}

impl WeirdRegister for VmxWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        if bit {
            s.run_at(self.probe_pc);
        } else {
            s.idle(uwm_sim::contention::VMX_WARM_WINDOW + 1);
        }
    }

    /// Times one VMX instruction: fast while the machinery is warm.
    fn read_delay(&self, s: &mut dyn Substrate) -> u64 {
        s.touch_code(self.probe_pc);
        timed_run(s, self.probe_pc)
    }

    fn read(&self, s: &mut dyn Substrate) -> bool {
        self.cut.decode(self.read_delay(s))
    }

    fn name(&self) -> &'static str {
        "vmx"
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
    fn mul_value_decays_volatility() {
        let (mut m, mut lay) = setup();
        let r = MulWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, true);
        assert!(r.read(&mut m));
        m.idle(10_000);
        assert!(!r.read(&mut m), "contention must decay to 0");
    }

    #[test]
    fn rob_value_decays() {
        let (mut m, mut lay) = setup();
        let r = RobWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, true);
        assert!(r.read(&mut m));
        m.idle(100_000);
        assert!(!r.read(&mut m));
    }

    #[test]
    fn vmx_warm_window_carries_the_bit() {
        let (mut m, mut lay) = setup();
        let r = VmxWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, true);
        assert!(r.read(&mut m));
        r.write(&mut m, false);
        assert!(!r.read(&mut m), "cold after the warm window passes");
        // Reading warmed it again: decoherence.
        assert!(r.read(&mut m));
    }

    #[test]
    fn vmx_read_zero_is_destructive() {
        let (mut m, mut lay) = setup();
        let r = VmxWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, false);
        assert!(!r.read(&mut m));
        assert!(r.read(&mut m), "the probe itself warmed the machinery");
    }
}
