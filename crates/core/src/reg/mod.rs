//! Weird registers (§3.1): data stored in microarchitectural state.
//!
//! Each type here realizes one row of the paper's Table 1. A weird register
//! is written by *doing things* to the machine (touching, flushing,
//! training, contending) and read by *timing things* — never by reading an
//! architectural location. Reads are invasive: they usually destroy or
//! perturb the stored value ("state decoherence").
//!
//! # Decoding
//!
//! Each register has one timed probe, [`WeirdRegister::read_delay`], and
//! decodes it against a cut calibrated on its own backend when it is
//! built: the register writes 0 and 1 and times the probe after each,
//! the cut is the midpoint of the two median delays, and the side with
//! the faster median reads as 1. No register compares against a frozen
//! constant, so each reads correctly on any backend whose 0 and 1 delays
//! differ — the same rule gates follow ([`crate::gate`]).

mod branch;
mod cache;
mod contention;

pub use branch::{BpWr, BtbWr};
pub use cache::{DcWr, IcWr};
pub use contention::{MulWr, RobWr, VmxWr};

use crate::gate::CALIBRATION_SAMPLES;
use crate::substrate::Substrate;

/// A one-bit storage entity encoded in microarchitectural state.
///
/// Implementations differ in which MA resource they use, how volatile the
/// stored value is, and how invasive a read is — see the paper's Table 1.
/// Registers are backend-agnostic: they run against any
/// [`Substrate`] (`&mut Machine` coerces at every call site).
///
/// # Examples
///
/// ```
/// use uwm_core::layout::Layout;
/// use uwm_core::reg::{DcWr, WeirdRegister};
/// use uwm_sim::machine::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::quiet(), 0);
/// let mut lay = Layout::new(m.predictor().alias_stride());
/// let r = DcWr::build(&mut m, &mut lay).unwrap();
/// r.write(&mut m, true);
/// assert!(r.read(&mut m));
/// r.write(&mut m, false);
/// assert!(!r.read(&mut m));
/// ```
pub trait WeirdRegister {
    /// Stores `bit` into the MA resource.
    fn write(&self, s: &mut dyn Substrate, bit: bool);

    /// Times the register's one probe and returns the delay in cycles.
    /// **Invasive**: the probe itself changes MA state (usually toward
    /// `1` for cache-residency registers).
    fn read_delay(&self, s: &mut dyn Substrate) -> u64;

    /// Recovers the stored bit: [`WeirdRegister::read_delay`] decoded
    /// against the register's calibrated cut. Invasive like the probe.
    fn read(&self, s: &mut dyn Substrate) -> bool;

    /// Short human-readable name ("dc", "ic", "bp", …).
    fn name(&self) -> &'static str;
}

/// A register's decision cut between its 0 and 1 probe delays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cut {
    threshold: u64,
    /// Whether a delay below `threshold` reads as 1.
    fast_is_one: bool,
}

impl Cut {
    /// Writes 0 and 1 to `reg` in turn, timing the probe after each
    /// write [`CALIBRATION_SAMPLES`] times; the cut is the midpoint of the
    /// two medians, and the faster side reads as 1.
    fn calibrate(reg: &dyn WeirdRegister, s: &mut dyn Substrate) -> Self {
        let mut zeros = [0u64; CALIBRATION_SAMPLES];
        let mut ones = [0u64; CALIBRATION_SAMPLES];
        for (zero, one) in zeros.iter_mut().zip(&mut ones) {
            reg.write(s, false);
            *zero = reg.read_delay(s);
            reg.write(s, true);
            *one = reg.read_delay(s);
        }
        zeros.sort_unstable();
        ones.sort_unstable();
        let mid = CALIBRATION_SAMPLES / 2;
        let (zero, one) = (zeros[mid], ones[mid]);
        Self {
            threshold: zero.min(one) + zero.abs_diff(one) / 2,
            fast_is_one: one < zero,
        }
    }

    fn decode(self, delay: u64) -> bool {
        (delay < self.threshold) == self.fast_is_one
    }
}

/// Times one `run_at(pc)`: the probe of the code-running registers.
fn timed_run(s: &mut dyn Substrate, pc: u64) -> u64 {
    let before = s.cycles();
    s.run_at(pc);
    s.cycles() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use uwm_sim::machine::{Machine, MachineConfig};

    fn assert_all_round_trip(cfg: MachineConfig) {
        let mut m = Machine::new(cfg, 0);
        let mut lay = Layout::new(m.predictor().alias_stride());
        let regs: Vec<Box<dyn WeirdRegister>> = vec![
            Box::new(DcWr::build(&mut m, &mut lay).unwrap()),
            Box::new(IcWr::build(&mut m, &mut lay).unwrap()),
            Box::new(BpWr::build(&mut m, &mut lay).unwrap()),
            Box::new(BtbWr::build(&mut m, &mut lay).unwrap()),
            Box::new(MulWr::build(&mut m, &mut lay).unwrap()),
            Box::new(RobWr::build(&mut m, &mut lay).unwrap()),
            Box::new(VmxWr::build(&mut m, &mut lay).unwrap()),
        ];
        for r in &regs {
            for &bit in &[false, true, true, false] {
                r.write(&mut m, bit);
                assert_eq!(r.read(&mut m), bit, "register `{}` bit {bit}", r.name());
            }
        }
    }

    /// All seven WR types satisfy the round-trip contract under quiet
    /// noise, at default latencies and at four and eight times every
    /// latency: each decodes against the cut it calibrated on its own
    /// machine.
    #[test]
    fn all_registers_round_trip() {
        assert_all_round_trip(MachineConfig::quiet());
        assert_all_round_trip(crate::skelly::quiet_scaled_latency(4));
        assert_all_round_trip(crate::skelly::quiet_scaled_latency(8));
    }
}
