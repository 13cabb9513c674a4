//! The `skelly` framework (§6.2): ergonomic, reliable μWM computation.
//!
//! `skelly` abstracts away the microarchitectural bookkeeping a weird-gate
//! programmer would otherwise fight by hand: it owns an execution backend
//! (any [`Substrate`]; the simulated `Machine` by default), maps every gate
//! to dedicated cache-aligned memory, calibrates the timing
//! threshold, executes gates redundantly (median + vote), and exposes plain
//! boolean functions — `and(a, b)`, a full adder, 32-bit logic — whose
//! *implementations never execute the corresponding ALU instruction*.

mod logic32;
mod redundancy;

pub use redundancy::{CounterBank, GateCounters, Redundancy};

use crate::error::Result;
use crate::gate::bp::{BpAnd, BpAndAndOr, BpNand, BpOr};
use crate::gate::tsx::{TsxAnd, TsxAndOr, TsxAssign, TsxNot, TsxOr, TsxXor};
use crate::gate::{GateReading, GateSpec, WeirdGate};
use crate::layout::Layout;
use crate::substrate::flat::DEFAULT_ALIAS_STRIDE;
use crate::substrate::Substrate;
use uwm_sim::machine::{Machine, MachineConfig};

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

/// The machine-independent half of a [`Skelly`]: one [`GateSpec`] per gate,
/// built against a shared [`Layout`] in a fixed order, plus the calibration
/// probe address.
///
/// A spec is built **once** and bound many times — on every shard of a
/// [`crate::exec::ShardedExecutor`], on freshly seeded machines for
/// repeatability studies, or on another backend altogether
/// ([`SkellySpec::bind`]). Binding replays the gates' program installs and
/// code warming in build order, so every instance sees the identical
/// backend-visible construction sequence.
///
/// # Examples
///
/// ```
/// use uwm_core::skelly::SkellySpec;
/// use uwm_sim::machine::MachineConfig;
///
/// let spec = SkellySpec::new().unwrap();
/// let mut a = spec.instantiate(MachineConfig::quiet(), 1);
/// let mut b = spec.instantiate(MachineConfig::quiet(), 2);
/// assert!(a.and(true, true) && b.and(true, true));
/// ```
#[derive(Debug, Clone)]
pub struct SkellySpec {
    lay: Layout,
    probe: u64,
    bp_and: GateSpec<BpAnd>,
    bp_or: GateSpec<BpOr>,
    bp_nand: GateSpec<BpNand>,
    bp_aao: GateSpec<BpAndAndOr>,
    tsx_assign: GateSpec<TsxAssign>,
    tsx_and: GateSpec<TsxAnd>,
    tsx_or: GateSpec<TsxOr>,
    tsx_and_or: GateSpec<TsxAndOr>,
    tsx_not: GateSpec<TsxNot>,
    tsx_xor: GateSpec<TsxXor>,
}

impl SkellySpec {
    /// Builds every gate spec against a fresh layout with the standard
    /// branch-alias stride.
    ///
    /// # Errors
    ///
    /// Fails if gate construction exhausts the layout or assembly fails.
    pub fn new() -> Result<Self> {
        let mut lay = Layout::new(DEFAULT_ALIAS_STRIDE);
        let bp_and = BpAnd::spec(&mut lay)?;
        let bp_or = BpOr::spec(&mut lay)?;
        let bp_nand = BpNand::spec(&mut lay)?;
        let bp_aao = BpAndAndOr::spec(&mut lay)?;
        let tsx_assign = TsxAssign::spec(&mut lay)?;
        let tsx_and = TsxAnd::spec(&mut lay)?;
        let tsx_or = TsxOr::spec(&mut lay)?;
        let tsx_and_or = TsxAndOr::spec(&mut lay)?;
        let tsx_not = TsxNot::spec(&mut lay)?;
        let tsx_xor = TsxXor::spec(&mut lay)?;
        let probe = lay.alloc_var()?;
        Ok(Self {
            lay,
            probe,
            bp_and,
            bp_or,
            bp_nand,
            bp_aao,
            tsx_assign,
            tsx_and,
            tsx_or,
            tsx_and_or,
            tsx_not,
            tsx_xor,
        })
    }

    /// Binds the spec to a freshly constructed machine (see
    /// [`SkellySpec::bind`]).
    pub fn instantiate(&self, cfg: MachineConfig, seed: u64) -> Skelly {
        self.bind(Machine::new(cfg, seed))
    }

    /// Binds the spec to backend `m`: installs and warms every gate
    /// program in build order, calibrates the timing threshold, and
    /// returns the runnable framework that owns `m`.
    pub fn bind<S: Substrate>(&self, mut m: S) -> Skelly<S> {
        debug_assert_eq!(
            m.alias_stride(),
            self.lay.alias_stride(),
            "spec stride must match the backend's predictor"
        );
        let bp_and = self.bp_and.instantiate(&mut m);
        let bp_or = self.bp_or.instantiate(&mut m);
        let bp_nand = self.bp_nand.instantiate(&mut m);
        let bp_aao = self.bp_aao.instantiate(&mut m);
        let tsx_assign = self.tsx_assign.instantiate(&mut m);
        let tsx_and = self.tsx_and.instantiate(&mut m);
        let tsx_or = self.tsx_or.instantiate(&mut m);
        let tsx_and_or = self.tsx_and_or.instantiate(&mut m);
        let tsx_not = self.tsx_not.instantiate(&mut m);
        let tsx_xor = self.tsx_xor.instantiate(&mut m);
        let threshold = calibrate_threshold(&mut m, self.probe, 33);
        Skelly {
            m,
            lay: self.lay.clone(),
            threshold,
            red: Redundancy::default(),
            counters: CounterBank::new(),
            bp_and,
            bp_or,
            bp_nand,
            bp_aao,
            tsx_assign,
            tsx_and,
            tsx_or,
            tsx_and_or,
            tsx_not,
            tsx_xor,
        }
    }
}

/// One pre-built instance of every weird gate, plus the machinery to run
/// them reliably, on backend `S` (the simulated [`Machine`] unless bound
/// otherwise with [`SkellySpec::bind`]).
///
/// # Examples
///
/// ```
/// use uwm_core::skelly::Skelly;
/// let mut sk = Skelly::quiet(7).unwrap();
/// assert!(sk.xor(true, false));
/// assert!(!sk.xor(true, true));
/// assert_eq!(sk.add32(0xFFFF_FFFF, 1), 0, "wrap-around addition");
/// ```
#[derive(Debug)]
pub struct Skelly<S: Substrate = Machine> {
    m: S,
    lay: Layout,
    threshold: u64,
    red: Redundancy,
    counters: CounterBank,
    bp_and: BpAnd,
    bp_or: BpOr,
    bp_nand: BpNand,
    bp_aao: BpAndAndOr,
    tsx_assign: TsxAssign,
    tsx_and: TsxAnd,
    tsx_or: TsxOr,
    tsx_and_or: TsxAndOr,
    tsx_not: TsxNot,
    tsx_xor: TsxXor,
}

impl Skelly {
    /// Builds the framework on a machine with the given configuration and
    /// noise seed: builds a [`SkellySpec`] (layout allocation and gate
    /// assembly, machine-free) and instantiates it once.
    ///
    /// To build many instances — one per executor shard — build the spec
    /// once with [`SkellySpec::new`] and call
    /// [`SkellySpec::instantiate`] per shard instead.
    ///
    /// # Errors
    ///
    /// Fails if gate construction exhausts the layout or assembly fails.
    pub fn new(cfg: MachineConfig, seed: u64) -> Result<Self> {
        Ok(SkellySpec::new()?.instantiate(cfg, seed))
    }

    /// A noise-free instance (deterministic; handy in tests and docs).
    ///
    /// # Errors
    ///
    /// See [`Skelly::new`].
    pub fn quiet(seed: u64) -> Result<Self> {
        Self::new(MachineConfig::quiet(), seed)
    }

    /// A default-noise instance, matching the paper's experimental setup.
    ///
    /// # Errors
    ///
    /// See [`Skelly::new`].
    pub fn noisy(seed: u64) -> Result<Self> {
        Self::new(MachineConfig::default(), seed)
    }
}

impl<S: Substrate> Skelly<S> {
    /// Sets the redundancy used by the logical operations.
    pub fn set_redundancy(&mut self, red: Redundancy) {
        self.red = red;
    }

    /// The active redundancy parameters.
    pub fn redundancy(&self) -> Redundancy {
        self.red
    }

    /// The calibrated hit/miss threshold in cycles.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// The underlying backend (analyzer probes, cycle counts).
    pub fn machine(&self) -> &S {
        &self.m
    }

    /// Mutable access to the underlying backend.
    pub fn machine_mut(&mut self) -> &mut S {
        &mut self.m
    }

    /// Mutable access to the layout (for building additional structures —
    /// circuits, application code — on the same machine).
    pub fn layout_mut(&mut self) -> &mut Layout {
        &mut self.lay
    }

    /// Splits the framework into backend + layout borrows (for wiring
    /// circuits that need both at once).
    pub fn machine_and_layout(&mut self) -> (&mut S, &mut Layout) {
        (&mut self.m, &mut self.lay)
    }

    /// Accuracy statistics accumulated by the voted operations.
    pub fn counters(&self) -> &CounterBank {
        &self.counters
    }

    /// Clears accumulated statistics.
    pub fn reset_counters(&mut self) {
        self.counters.clear();
    }

    // ------------------------------------------------------------------
    // Voted logical operations (BP/IC gate family — §6.3's gates)
    // ------------------------------------------------------------------

    fn vote(&mut self, gate: &dyn WeirdGate, inputs: &[bool]) -> bool {
        self.red
            .vote(gate, &mut self.m, inputs, &mut self.counters)
            .expect("arity is fixed by the caller")
    }

    /// `a & b` on the branch-predictor AND gate (Figure 1).
    pub fn and(&mut self, a: bool, b: bool) -> bool {
        let g = self.bp_and;
        self.vote(&g, &[a, b])
    }

    /// `a | b` on the branch-predictor OR gate (Figure 2).
    pub fn or(&mut self, a: bool, b: bool) -> bool {
        let g = self.bp_or;
        self.vote(&g, &[a, b])
    }

    /// `!(a & b)` on the NAND gate.
    pub fn nand(&mut self, a: bool, b: bool) -> bool {
        let g = self.bp_nand;
        self.vote(&g, &[a, b])
    }

    /// `!a`, as `nand(a, a)`.
    pub fn not(&mut self, a: bool) -> bool {
        self.nand(a, a)
    }

    /// `(a & b) | (c & d)` on the composed AND-AND-OR gate.
    pub fn and_and_or(&mut self, a: bool, b: bool, c: bool, d: bool) -> bool {
        let g = self.bp_aao;
        self.vote(&g, &[a, b, c, d])
    }

    /// `a ^ b` from four NAND gates — the construction behind the NAND
    /// counts dominating the paper's Table 4.
    pub fn xor(&mut self, a: bool, b: bool) -> bool {
        let n1 = self.nand(a, b);
        let n2 = self.nand(a, n1);
        let n3 = self.nand(b, n1);
        self.nand(n2, n3)
    }

    // ------------------------------------------------------------------
    // Voted TSX operations
    // ------------------------------------------------------------------

    /// `a` through the TSX assignment gate.
    pub fn tsx_assign(&mut self, a: bool) -> bool {
        let g = self.tsx_assign;
        self.vote(&g, &[a])
    }

    /// `a & b` on the TSX AND gate.
    pub fn tsx_and(&mut self, a: bool, b: bool) -> bool {
        let g = self.tsx_and;
        self.vote(&g, &[a, b])
    }

    /// `a | b` on the TSX OR gate.
    pub fn tsx_or(&mut self, a: bool, b: bool) -> bool {
        let g = self.tsx_or;
        self.vote(&g, &[a, b])
    }

    /// `!a` on the TSX NOT gate.
    pub fn tsx_not(&mut self, a: bool) -> bool {
        let g = self.tsx_not;
        self.vote(&g, &[a])
    }

    /// `a ^ b` on the three-transaction TSX XOR circuit (§4.1).
    pub fn tsx_xor(&mut self, a: bool, b: bool) -> bool {
        let g = self.tsx_xor;
        self.vote(&g, &[a, b])
    }

    // ------------------------------------------------------------------
    // Harness access
    // ------------------------------------------------------------------

    /// Executes a gate by its paper-table name with raw (unvoted) timing —
    /// the entry point the evaluation harness sweeps over. Names: `AND`,
    /// `OR`, `NAND`, `AND_AND_OR`, `TSX_ASSIGN`, `TSX_AND`, `TSX_OR`,
    /// `TSX_AND_OR`, `TSX_NOT`, `TSX_XOR`.
    ///
    /// # Errors
    ///
    /// Returns an arity error for wrong input counts; panics on an unknown
    /// name (a harness bug, not an input condition).
    pub fn execute_named(&mut self, name: &str, inputs: &[bool]) -> Result<GateReading> {
        match name {
            "AND" => {
                let g = self.bp_and;
                g.execute_timed(&mut self.m, inputs)
            }
            "OR" => {
                let g = self.bp_or;
                g.execute_timed(&mut self.m, inputs)
            }
            "NAND" => {
                let g = self.bp_nand;
                g.execute_timed(&mut self.m, inputs)
            }
            "AND_AND_OR" => {
                let g = self.bp_aao;
                g.execute_timed(&mut self.m, inputs)
            }
            "TSX_ASSIGN" => {
                let g = self.tsx_assign;
                g.execute_timed(&mut self.m, inputs)
            }
            "TSX_AND" => {
                let g = self.tsx_and;
                g.execute_timed(&mut self.m, inputs)
            }
            "TSX_OR" => {
                let g = self.tsx_or;
                g.execute_timed(&mut self.m, inputs)
            }
            "TSX_AND_OR" => {
                let g = self.tsx_and_or;
                g.execute_timed(&mut self.m, inputs)
            }
            "TSX_NOT" => {
                let g = self.tsx_not;
                g.execute_timed(&mut self.m, inputs)
            }
            "TSX_XOR" => {
                let g = self.tsx_xor;
                g.execute_timed(&mut self.m, inputs)
            }
            other => panic!("unknown gate name `{other}`"),
        }
    }

    /// Reference truth for a named gate (see [`Skelly::execute_named`]).
    pub fn truth_named(&self, name: &str, inputs: &[bool]) -> bool {
        match name {
            "AND" | "TSX_AND" | "TSX_AND_OR" => inputs[0] & inputs[1],
            "OR" | "TSX_OR" => inputs[0] | inputs[1],
            "NAND" => !(inputs[0] & inputs[1]),
            "AND_AND_OR" => (inputs[0] & inputs[1]) | (inputs[2] & inputs[3]),
            "TSX_ASSIGN" => inputs[0],
            "TSX_NOT" => !inputs[0],
            "TSX_XOR" => inputs[0] ^ inputs[1],
            other => panic!("unknown gate name `{other}`"),
        }
    }

    /// The TSX AND-OR gate instance (both-outputs measurements, Table 6).
    pub fn tsx_and_or_gate(&self) -> TsxAndOr {
        self.tsx_and_or
    }

    /// The TSX XOR circuit instance (Table 7 measurements).
    pub fn tsx_xor_gate(&self) -> TsxXor {
        self.tsx_xor
    }

    /// Arity of a named gate (see [`Skelly::execute_named`]).
    pub fn arity_named(&self, name: &str) -> usize {
        match name {
            "AND_AND_OR" => 4,
            "TSX_ASSIGN" | "TSX_NOT" => 1,
            _ => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::FlatEmulator;

    #[test]
    fn construction_calibrates_sane_threshold() {
        let sk = Skelly::quiet(0).unwrap();
        let lat = sk.machine().latency().clone();
        assert!(sk.threshold() > lat.l1 + lat.rdtscp);
        assert!(sk.threshold() < lat.dram + lat.rdtscp);
    }

    #[test]
    fn boolean_ops_quiet() {
        let mut sk = Skelly::quiet(1).unwrap();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(sk.and(a, b), a & b);
            assert_eq!(sk.or(a, b), a | b);
            assert_eq!(sk.nand(a, b), !(a & b));
            assert_eq!(sk.xor(a, b), a ^ b);
            assert_eq!(sk.tsx_and(a, b), a & b);
            assert_eq!(sk.tsx_or(a, b), a | b);
            assert_eq!(sk.tsx_xor(a, b), a ^ b);
        }
        assert!(sk.not(false));
        assert!(sk.tsx_not(false));
        assert!(sk.tsx_assign(true));
        assert!(sk.and_and_or(true, true, false, false));
    }

    #[test]
    fn voted_ops_survive_default_noise() {
        let mut sk = Skelly::noisy(42).unwrap();
        sk.set_redundancy(Redundancy::paper());
        let mut wrong = 0;
        for i in 0..50 {
            let a = i % 2 == 0;
            let b = i % 3 == 0;
            if sk.tsx_xor(a, b) != (a ^ b) {
                wrong += 1;
            }
        }
        assert_eq!(wrong, 0, "paper redundancy must mask default noise");
        let c = sk.counters().get("TSX_XOR").unwrap();
        assert_eq!(c.vote_accuracy(), 1.0);
    }

    #[test]
    fn counters_accumulate_per_gate() {
        let mut sk = Skelly::quiet(3).unwrap();
        sk.and(true, true);
        sk.and(true, false);
        sk.or(false, false);
        let and = sk.counters().get("AND").unwrap();
        assert_eq!(and.raw_total, 2);
        assert!(sk.counters().get("OR").is_some());
        assert!(sk.counters().get("NAND").is_none());
        sk.reset_counters();
        assert!(sk.counters().get("AND").is_none());
    }

    #[test]
    fn one_spec_yields_identical_instances_per_seed() {
        let spec = SkellySpec::new().unwrap();
        let mut a = spec.instantiate(MachineConfig::default(), 9);
        let mut b = spec.instantiate(MachineConfig::default(), 9);
        assert_eq!(a.threshold(), b.threshold());
        for name in ["AND", "TSX_AND", "TSX_XOR"] {
            for bits in 0..4u32 {
                let inputs = vec![bits & 1 == 1, bits >> 1 & 1 == 1];
                let ra = a.execute_named(name, &inputs).unwrap();
                let rb = b.execute_named(name, &inputs).unwrap();
                assert_eq!(ra, rb, "gate {name}, inputs {inputs:?}");
            }
        }
        assert_eq!(a.machine().cycles(), b.machine().cycles());
    }

    #[test]
    fn spec_matches_direct_construction() {
        let spec = SkellySpec::new().unwrap();
        let mut direct = Skelly::quiet(11).unwrap();
        let mut via_spec = spec.instantiate(MachineConfig::quiet(), 11);
        let mut bound = spec.bind(Machine::new(MachineConfig::quiet(), 11));
        assert_eq!(direct.threshold(), via_spec.threshold());
        assert_eq!(bound.threshold(), via_spec.threshold());
        for inputs in [[true, false], [true, true]] {
            let rd = direct.execute_named("TSX_AND_OR", &inputs).unwrap();
            let rs = via_spec.execute_named("TSX_AND_OR", &inputs).unwrap();
            let rb = bound.execute_named("TSX_AND_OR", &inputs).unwrap();
            assert_eq!(rd, rs);
            assert_eq!(rb, rs);
        }
        assert_eq!(bound.machine().cycles(), via_spec.machine().cycles());

        // The same spec bound to the flat emulator degenerates: every read
        // takes the constant hit latency, so every register decodes as 1.
        let mut flat = spec.bind(FlatEmulator::new());
        let lat = flat.machine().latency().clone();
        let r = flat.execute_named("TSX_ASSIGN", &[false]).unwrap();
        assert_eq!(r.delay, lat.l1 + lat.rdtscp);
        assert!(r.bit, "the flat emulator reads a 0 input as 1");
    }

    #[test]
    fn execute_named_covers_all_gates() {
        let mut sk = Skelly::quiet(5).unwrap();
        for name in [
            "AND",
            "OR",
            "NAND",
            "AND_AND_OR",
            "TSX_ASSIGN",
            "TSX_AND",
            "TSX_OR",
            "TSX_AND_OR",
            "TSX_NOT",
            "TSX_XOR",
        ] {
            let arity = sk.arity_named(name);
            let inputs = vec![true; arity];
            let r = sk.execute_named(name, &inputs).unwrap();
            assert_eq!(r.bit, sk.truth_named(name, &inputs), "gate {name}");
        }
    }
}
