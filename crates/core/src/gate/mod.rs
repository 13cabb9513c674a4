//! Weird gates (§3.2): boolean logic computed by microarchitectural races.
//!
//! Two families are implemented, mirroring the paper:
//!
//! * [`bp`] — gates built from intentional branch mispredictions racing the
//!   speculative window against instruction-cache residency (Figures 1–2).
//!   Accurate (Table 5) but slow: every activation retrains the predictor.
//! * [`tsx`] — gates built from post-fault speculative execution inside
//!   aborted transactions (Figure 3, §4): one gate type,
//!   [`tsx::TsxGate`], over the op table [`tsx::TsxOp`]. Fast and
//!   composable into [weird circuits](crate::circuit) with no
//!   architectural intermediates.
//!
//! Every gate's boolean function is *never* computed by an architectural
//! instruction: the inputs select which cache fills win a race, and the
//! output is a cache line's residency.
//!
//! # Specs and instances
//!
//! Gate construction is split in two:
//!
//! 1. A **spec** ([`GateSpec`]) is machine-independent: wiring addresses
//!    allocated from a [`crate::layout::Layout`] plus the assembled program
//!    templates. Build one with a gate's `spec`: `BpAnd::spec(&mut lay)`,
//!    `TsxGate::spec(&mut lay, TsxOp::And)`.
//! 2. An **instance** is the gate bound to a backend:
//!    `spec.instantiate(&mut substrate)` installs and warms the programs on
//!    any [`Substrate`], calibrates the hit/miss threshold on the gate's
//!    output line, and returns the runnable gate value. This is the only
//!    gate constructor: `BpAnd::spec(&mut lay)?.instantiate(&mut s)` builds
//!    and binds in one expression.
//!
//! A bound gate, BP or TSX, runs only through [`WeirdGate`]:
//! [`WeirdGate::execute_timed`] runs the full protocol and reports the
//! reading, [`WeirdGate::execute`] the bit alone.
//!
//! The same spec can be instantiated on any number of backends (the
//! emulation detector does exactly this) or on every shard of a
//! [`crate::exec::ShardedExecutor`].
//!
//! # Decoding
//!
//! A weird register can only be read against the hit/miss boundary of the
//! backend it lives on (§6.2). This module owns that boundary:
//! [`calibrate_threshold`] measures it, and every gate and circuit output
//! is decoded by one function against the threshold its bound gate or
//! circuit carries; a redundancy vote takes the bit of its median-delay
//! reading. No decision uses a frozen constant, so a gate is correct on any
//! backend whose hits and misses differ.

/// Implements the binding step for gates with a `threshold` field and one
/// output line (`$gate => $out`). A spec's gate holds threshold 0 until
/// [`GateSpec::instantiate`] calibrates it.
macro_rules! bind_on_out {
    ($($gate:ty => $out:ident),* $(,)?) => {$(
        impl crate::gate::sealed::Bind for $gate {
            fn out_line(&self) -> u64 {
                self.$out
            }

            fn with_threshold(self, threshold: u64) -> Self {
                Self { threshold, ..self }
            }
        }
    )*};
}

pub mod bp;
pub mod tsx;

use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::substrate::Substrate;
use uwm_sim::isa::Program;

/// Timed reads per side when calibrating a threshold (odd, so the median
/// is a real sample).
pub(crate) const CALIBRATION_SAMPLES: usize = 33;

/// Calibrates the hit/miss decision threshold on `s` by sampling timed
/// misses and hits of a scratch line and returning the midpoint of the
/// medians — the boundary visible in the paper's Figures 7–8.
pub fn calibrate_threshold<S: Substrate + ?Sized>(s: &mut S, probe: u64, samples: usize) -> u64 {
    assert!(samples > 0, "need at least one sample");
    let mut misses = Vec::with_capacity(samples);
    let mut hits = Vec::with_capacity(samples);
    for _ in 0..samples {
        s.flush_addr(probe);
        misses.push(s.timed_read_tsc(probe));
        hits.push(s.timed_read_tsc(probe));
    }
    misses.sort_unstable();
    hits.sort_unstable();
    let miss_med = misses[misses.len() / 2];
    let hit_med = hits[hits.len() / 2];
    hit_med + (miss_med.saturating_sub(hit_med)) / 2
}

/// Times one read of `line` and decodes it against `threshold`: a hit-like
/// (faster) read is logic 1. The one place a delay meets a threshold.
pub(crate) fn decode<S: Substrate + ?Sized>(s: &mut S, line: u64, threshold: u64) -> GateReading {
    let delay = s.timed_read_tsc(line);
    GateReading {
        bit: delay < threshold,
        delay,
    }
}

/// Writes a DC-WR (a data-cache line): touch for 1, flush for 0.
pub(crate) fn set_dc<S: Substrate + ?Sized>(s: &mut S, addr: u64, bit: bool) {
    if bit {
        s.timed_read(addr);
    } else {
        s.flush_addr(addr);
    }
}

pub(crate) mod sealed {
    /// The binding step of [`super::GateSpec::instantiate`]: which line a
    /// gate's threshold is calibrated on, and how the calibrated value
    /// enters the gate. Implemented by every gate and by the skelly's gate
    /// set, which calibrates once for all ten.
    pub trait Bind {
        /// The output line the threshold is calibrated on (a gate's first
        /// output).
        fn out_line(&self) -> u64;

        /// The gate, decoding every output against `threshold`.
        fn with_threshold(self, threshold: u64) -> Self
        where
            Self: Sized;
    }
}

/// One assembled program fragment of a gate spec, with an optional code
/// range to warm at instantiation time.
///
/// The program is `Arc`-shared: cloning a spec (or pooling its units into
/// a circuit) never copies instructions, and binding the spec to a backend
/// installs from the shared reference.
#[derive(Debug, Clone)]
pub struct ProgramUnit {
    /// The assembled instructions, shared between all clones of the spec.
    pub program: Arc<Program>,
    /// `Some((base, end))` if the fragment's code must be resident before
    /// first activation (gate bodies racing the I-cache).
    pub warm: Option<(u64, u64)>,
}

/// A machine-independent description of a built gate: the gate's wiring
/// (a `Copy` value of addresses) plus the program fragments it needs
/// installed, in install order.
///
/// # Examples
///
/// ```
/// use uwm_core::gate::tsx::{TsxGate, TsxOp};
/// use uwm_core::gate::WeirdGate;
/// use uwm_core::layout::Layout;
/// use uwm_sim::machine::{Machine, MachineConfig};
///
/// let mut lay = Layout::new(8192);
/// let spec = TsxGate::spec(&mut lay, TsxOp::And).unwrap(); // no machine involved
/// let mut m = Machine::new(MachineConfig::quiet(), 0);
/// let gate = spec.instantiate(&mut m);
/// assert!(gate.execute(&mut m, &[true, true]).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct GateSpec<G> {
    gate: G,
    units: Vec<ProgramUnit>,
}

impl<G: Copy> GateSpec<G> {
    /// Wraps a wired gate value and its program fragments.
    pub(crate) fn new(gate: G, units: Vec<ProgramUnit>) -> Self {
        Self { gate, units }
    }

    /// Appends the spec's program fragments to `units` and returns the
    /// wired gate value (composites — circuits, skelly — pool fragments).
    pub(crate) fn into_gate(self, units: &mut Vec<ProgramUnit>) -> G {
        units.extend(self.units);
        self.gate
    }
}

impl<G: sealed::Bind + Copy> GateSpec<G> {
    /// Binds the spec to an execution backend: installs every program
    /// fragment and warms the declared code ranges, in build order, then
    /// calibrates the hit/miss threshold on the gate's output line and
    /// returns the runnable gate, decoding against that threshold.
    pub fn instantiate<S: Substrate + ?Sized>(&self, s: &mut S) -> G {
        for u in &self.units {
            s.install_program(&u.program);
            if let Some((base, end)) = u.warm {
                s.warm_code_range(base, end);
            }
        }
        let threshold = calibrate_threshold(s, self.gate.out_line(), CALIBRATION_SAMPLES);
        self.gate.with_threshold(threshold)
    }
}

/// Common interface over all weird gates, and the one way to execute one.
///
/// Every gate — BP or TSX — runs its full protocol through
/// [`WeirdGate::execute_timed`]; callers, generic harnesses (accuracy
/// sweeps, redundancy voting, benchmarks) and circuits alike. It is
/// object-safe and backend-agnostic: callers drive gates through
/// `&mut dyn Substrate`. It is sealed: only this crate's gates, which
/// carry their backend's calibrated threshold, implement it.
pub trait WeirdGate: sealed::Bind {
    /// Gate name as used in the paper's tables (e.g. `"AND"`, `"TSX_XOR"`).
    fn name(&self) -> &'static str;

    /// Number of boolean inputs.
    fn arity(&self) -> usize;

    /// Reference boolean semantics (ground truth for accuracy counting).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    fn truth(&self, inputs: &[bool]) -> bool;

    /// Full gate protocol: initialize outputs, store `inputs` into the
    /// input weird registers, activate the gate, read the output register.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arity`] when `inputs.len() != self.arity()`.
    fn execute(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<bool> {
        Ok(self.execute_timed(s, inputs)?.bit)
    }

    /// Like [`WeirdGate::execute`], but also reports the raw output-read
    /// delay (the measurement behind Tables 6–7 and Figures 7–8).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arity`] when `inputs.len() != self.arity()`.
    fn execute_timed(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<GateReading>;
}

/// Result of one timed gate execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateReading {
    /// The logic value read from the output weird register.
    pub bit: bool,
    /// Raw read delay in cycles.
    pub delay: u64,
}

/// Validates a count of inputs (or wired registers) against a gate's.
pub(crate) fn check_arity(gate: &'static str, expected: usize, got: usize) -> Result<()> {
    if got == expected {
        Ok(())
    } else {
        Err(CoreError::Arity {
            gate,
            expected,
            got,
        })
    }
}

/// Exhaustive truth-table check of a gate under quiet noise; returns the
/// first failing input combination, if any. Test/diagnostic helper.
pub fn verify_truth_table(
    gate: &dyn WeirdGate,
    s: &mut dyn Substrate,
) -> Result<Option<Vec<bool>>> {
    let n = gate.arity();
    for bits in 0..(1u32 << n) {
        let inputs: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        let got = gate.execute(s, &inputs)?;
        if got != gate.truth(&inputs) {
            return Ok(Some(inputs));
        }
    }
    Ok(None)
}
