//! Cache-residency weird registers: DC-WR and IC-WR.

use crate::error::Result;
use crate::layout::Layout;
use crate::reg::{delay_to_bit, WeirdRegister};
use crate::substrate::Substrate;
use uwm_sim::isa::{Assembler, Inst};

/// Default hit/miss decision threshold in cycles. Roughly midway between
/// an L1 hit and a DRAM miss; [`crate::skelly::calibrate_threshold`]
/// computes a machine-specific value.
pub const DEFAULT_THRESHOLD: u64 = 100;

/// Data-cache weird register (§3.1's running example).
///
/// The bit is the L1-residency of a private variable: `flush` writes 0,
/// a load writes 1, and a timed load reads the bit (destroying a stored 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcWr {
    addr: u64,
    threshold: u64,
}

impl DcWr {
    /// Allocates a fresh variable and wraps it as a DC-WR.
    ///
    /// # Errors
    ///
    /// Fails when the variable region is exhausted.
    pub fn build<S: Substrate + ?Sized>(_s: &mut S, lay: &mut Layout) -> Result<Self> {
        Ok(Self::at(lay.alloc_var()?, DEFAULT_THRESHOLD))
    }

    /// Wraps an existing line-aligned variable address.
    pub fn at(addr: u64, threshold: u64) -> Self {
        Self { addr, threshold }
    }

    /// The variable's address (used to wire gates to this register).
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Raw timed-read delay (the Figure 7/8 measurement primitive).
    pub fn read_delay<S: Substrate + ?Sized>(&self, s: &mut S) -> u64 {
        s.timed_read(self.addr)
    }
}

impl WeirdRegister for DcWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        if bit {
            s.timed_read(self.addr);
        } else {
            s.flush_addr(self.addr);
        }
    }

    fn read(&self, s: &mut dyn Substrate) -> bool {
        delay_to_bit(self.read_delay(s), self.threshold)
    }

    fn name(&self) -> &'static str {
        "dc"
    }
}

/// Instruction-cache weird register.
///
/// The bit is the L1I-residency of a small code stub. Writing 1 executes
/// (or prefetches) the stub; writing 0 flushes its line; reading times a
/// code fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcWr {
    code_addr: u64,
    threshold: u64,
}

impl IcWr {
    /// Allocates a one-line code stub and wraps it as an IC-WR.
    ///
    /// # Errors
    ///
    /// Fails if layout space is exhausted or assembly fails.
    pub fn build<S: Substrate + ?Sized>(s: &mut S, lay: &mut Layout) -> Result<Self> {
        let code_addr = lay.alloc_app_code(64)?;
        let mut a = Assembler::new(code_addr);
        a.push(Inst::Halt); // `call code` lands here and returns immediately
        s.install_program(&a.finish()?);
        Ok(Self {
            code_addr,
            threshold: DEFAULT_THRESHOLD,
        })
    }

    /// Wraps an existing code line.
    pub fn at(code_addr: u64, threshold: u64) -> Self {
        Self {
            code_addr,
            threshold,
        }
    }

    /// Address of the code line carrying the bit.
    pub fn code_addr(&self) -> u64 {
        self.code_addr
    }

    /// Raw timed code-fetch delay.
    pub fn read_delay<S: Substrate + ?Sized>(&self, s: &mut S) -> u64 {
        let before = s.cycles();
        s.touch_code(self.code_addr);
        s.cycles() - before
    }
}

impl WeirdRegister for IcWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        if bit {
            s.touch_code(self.code_addr);
        } else {
            s.flush_addr(self.code_addr);
        }
    }

    fn read(&self, s: &mut dyn Substrate) -> bool {
        delay_to_bit(self.read_delay(s), self.threshold)
    }

    fn name(&self) -> &'static str {
        "ic"
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
    fn dc_read_is_destructive() {
        let (mut m, mut lay) = setup();
        let r = DcWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, false);
        assert!(!r.read(&mut m), "first read sees the 0");
        assert!(r.read(&mut m), "…but the read itself cached the line");
    }

    #[test]
    fn dc_delay_separates_levels() {
        let (mut m, mut lay) = setup();
        let r = DcWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, false);
        let miss = r.read_delay(&mut m);
        let hit = r.read_delay(&mut m);
        assert!(miss > 4 * hit, "miss {miss} vs hit {hit}");
    }

    #[test]
    fn ic_independent_of_dc_for_distinct_lines() {
        let (mut m, mut lay) = setup();
        let dc = DcWr::build(&mut m, &mut lay).unwrap();
        let ic = IcWr::build(&mut m, &mut lay).unwrap();
        dc.write(&mut m, true);
        ic.write(&mut m, false);
        assert!(!ic.read(&mut m));
        assert!(dc.read(&mut m));
    }

    #[test]
    fn two_dc_registers_do_not_interfere() {
        let (mut m, mut lay) = setup();
        let a = DcWr::build(&mut m, &mut lay).unwrap();
        let b = DcWr::build(&mut m, &mut lay).unwrap();
        a.write(&mut m, true);
        b.write(&mut m, false);
        assert!(!b.read(&mut m));
        assert!(a.read(&mut m));
    }
}
