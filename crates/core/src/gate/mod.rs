//! Weird gates (§3.2): boolean logic computed by microarchitectural races.
//!
//! Two families are implemented, mirroring the paper:
//!
//! * [`bp`] — gates built from intentional branch mispredictions racing the
//!   speculative window against instruction-cache residency (Figures 1–2).
//!   Accurate (Table 5) but slow: every activation retrains the predictor.
//! * [`tsx`] — gates built from post-fault speculative execution inside
//!   aborted transactions (Figure 3, §4). Fast and composable into
//!   [weird circuits](crate::circuit) with no architectural intermediates.
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
//!    templates. Build one with `Gate::spec(&mut lay)`.
//! 2. An **instance** is the gate bound to a backend:
//!    `spec.instantiate(&mut substrate)` installs and warms the programs on
//!    any [`Substrate`] and returns the runnable gate value. This is the
//!    only gate constructor: `Gate::spec(&mut lay)?.instantiate(&mut s)`
//!    builds and binds in one expression.
//!
//! The same spec can be instantiated on any number of backends (the
//! emulation detector does exactly this) or on every shard of a
//! [`crate::exec::ShardedExecutor`].

pub mod bp;
pub mod tsx;

use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::substrate::Substrate;
use uwm_sim::isa::Program;

/// Default decision threshold (cycles) separating hit-like from miss-like
/// output reads, `rdtscp` overhead included. See
/// [`crate::skelly::calibrate_threshold`] for a machine-specific value.
pub const READ_THRESHOLD: u64 = 130;

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
/// use uwm_core::gate::tsx::TsxAnd;
/// use uwm_core::layout::Layout;
/// use uwm_sim::machine::{Machine, MachineConfig};
///
/// let mut lay = Layout::new(8192);
/// let spec = TsxAnd::spec(&mut lay).unwrap(); // no machine involved
/// let mut m = Machine::new(MachineConfig::quiet(), 0);
/// let gate = spec.instantiate(&mut m);
/// assert!(gate.execute_reading(&mut m, true, true).bit);
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

    /// The wired gate value (addresses only; not runnable until
    /// instantiated somewhere).
    pub fn gate(&self) -> G {
        self.gate
    }

    /// The program fragments, in install order.
    pub fn units(&self) -> &[ProgramUnit] {
        &self.units
    }

    /// Binds the spec to an execution backend: installs every program
    /// fragment and warms the declared code ranges, in build order, then
    /// returns the runnable gate.
    pub fn instantiate<S: Substrate + ?Sized>(&self, s: &mut S) -> G {
        for u in &self.units {
            s.install_program(&u.program);
            if let Some((base, end)) = u.warm {
                s.warm_code_range(base, end);
            }
        }
        self.gate
    }

    /// Splits the spec into the gate value and its program fragments
    /// (composite structures — circuits, skelly — pool fragments).
    pub(crate) fn into_parts(self) -> (G, Vec<ProgramUnit>) {
        (self.gate, self.units)
    }

    /// Merges another spec's fragments after this one's, combining the two
    /// gate values (composite gate construction).
    pub(crate) fn zip<H: Copy, K: Copy>(
        self,
        other: GateSpec<H>,
        f: impl FnOnce(G, H) -> K,
    ) -> GateSpec<K> {
        let mut units = self.units;
        units.extend(other.units);
        GateSpec {
            gate: f(self.gate, other.gate),
            units,
        }
    }
}

/// Common interface over all weird gates.
///
/// The inherent methods of each gate type (e.g.
/// [`bp::BpAnd::execute`]) are the ergonomic API; this trait exists for
/// generic harnesses (accuracy sweeps, redundancy voting, benchmarks). It
/// is object-safe and backend-agnostic: harnesses drive gates through
/// `&mut dyn Substrate`.
pub trait WeirdGate {
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

/// Validates an input slice against a gate's arity.
pub(crate) fn check_arity(gate: &'static str, expected: usize, inputs: &[bool]) -> Result<()> {
    if inputs.len() == expected {
        Ok(())
    } else {
        Err(CoreError::Arity {
            gate,
            expected,
            got: inputs.len(),
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
