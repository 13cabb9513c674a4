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

pub use crate::gate::calibrate_threshold;

use crate::error::Result;
use crate::gate::bp::{BpAnd, BpAndAndOr, BpNand, BpOr};
use crate::gate::sealed::Bind;
use crate::gate::tsx::{TsxGate, TsxOp, TsxXor};
use crate::gate::{GateReading, GateSpec, WeirdGate};
use crate::layout::Layout;
use crate::substrate::flat::DEFAULT_ALIAS_STRIDE;
use crate::substrate::Substrate;
use uwm_sim::machine::{Machine, MachineConfig};

/// The machine-independent half of a [`Skelly`]: every gate built against
/// a shared [`Layout`] in a fixed order, their program fragments in that
/// order, and the calibration probe address.
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
    gates: GateSpec<Gates>,
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
        let mut units = Vec::new();
        // Fields are evaluated in the order written: that is the layout
        // allocation and install order.
        let gates = Gates {
            bp_and: BpAnd::spec(&mut lay)?.into_gate(&mut units),
            bp_or: BpOr::spec(&mut lay)?.into_gate(&mut units),
            bp_nand: BpNand::spec(&mut lay)?.into_gate(&mut units),
            bp_aao: BpAndAndOr::spec(&mut lay)?.into_gate(&mut units),
            tsx_assign: TsxGate::spec(&mut lay, TsxOp::Assign)?.into_gate(&mut units),
            tsx_and: TsxGate::spec(&mut lay, TsxOp::And)?.into_gate(&mut units),
            tsx_or: TsxGate::spec(&mut lay, TsxOp::Or)?.into_gate(&mut units),
            tsx_and_or: TsxGate::spec(&mut lay, TsxOp::AndOr)?.into_gate(&mut units),
            tsx_not: TsxGate::spec(&mut lay, TsxOp::Not)?.into_gate(&mut units),
            tsx_xor: TsxXor::spec(&mut lay)?.into_gate(&mut units),
            probe: lay.alloc_var()?,
            threshold: 0,
        };
        Ok(Self {
            lay,
            gates: GateSpec::new(gates, units),
        })
    }

    /// Binds the spec to a freshly constructed machine (see
    /// [`SkellySpec::bind`]).
    pub fn instantiate(&self, cfg: MachineConfig, seed: u64) -> Skelly {
        self.bind(Machine::new(cfg, seed))
    }

    /// Binds the spec to backend `m`: installs and warms every gate
    /// program in build order, calibrates the timing threshold once on the
    /// probe line, and returns the runnable framework that owns `m`, every
    /// gate decoding against that one threshold.
    pub fn bind<S: Substrate>(&self, mut m: S) -> Skelly<S> {
        debug_assert_eq!(
            m.alias_stride(),
            self.lay.alias_stride(),
            "spec stride must match the backend's predictor"
        );
        let gates = self.gates.instantiate(&mut m);
        Skelly {
            m,
            lay: self.lay.clone(),
            red: Redundancy::default(),
            counters: CounterBank::new(),
            gates,
        }
    }
}

/// One instance of every weird gate, bound together: the skelly calibrates
/// once, on its own probe line, and every gate decodes against that value.
#[derive(Debug, Clone, Copy)]
struct Gates {
    bp_and: BpAnd,
    bp_or: BpOr,
    bp_nand: BpNand,
    bp_aao: BpAndAndOr,
    tsx_assign: TsxGate,
    tsx_and: TsxGate,
    tsx_or: TsxGate,
    tsx_and_or: TsxGate,
    tsx_not: TsxGate,
    tsx_xor: TsxXor,
    probe: u64,
    threshold: u64,
}

impl Bind for Gates {
    fn out_line(&self) -> u64 {
        self.probe
    }

    fn with_threshold(self, threshold: u64) -> Self {
        Self {
            bp_and: self.bp_and.with_threshold(threshold),
            bp_or: self.bp_or.with_threshold(threshold),
            bp_nand: self.bp_nand.with_threshold(threshold),
            bp_aao: self.bp_aao.with_threshold(threshold),
            tsx_assign: self.tsx_assign.with_threshold(threshold),
            tsx_and: self.tsx_and.with_threshold(threshold),
            tsx_or: self.tsx_or.with_threshold(threshold),
            tsx_and_or: self.tsx_and_or.with_threshold(threshold),
            tsx_not: self.tsx_not.with_threshold(threshold),
            tsx_xor: self.tsx_xor.with_threshold(threshold),
            probe: self.probe,
            threshold,
        }
    }
}

impl Gates {
    /// The gate with paper-table name `name`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name (a harness bug, not an input condition).
    fn named(&self, name: &str) -> &dyn WeirdGate {
        match name {
            "AND" => &self.bp_and,
            "OR" => &self.bp_or,
            "NAND" => &self.bp_nand,
            "AND_AND_OR" => &self.bp_aao,
            "TSX_ASSIGN" => &self.tsx_assign,
            "TSX_AND" => &self.tsx_and,
            "TSX_OR" => &self.tsx_or,
            "TSX_AND_OR" => &self.tsx_and_or,
            "TSX_NOT" => &self.tsx_not,
            "TSX_XOR" => &self.tsx_xor,
            other => panic!("unknown gate name `{other}`"),
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
    red: Redundancy,
    counters: CounterBank,
    gates: Gates,
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
        self.gates.threshold
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

    fn vote(&mut self, gate: fn(&Gates) -> &dyn WeirdGate, inputs: &[bool]) -> bool {
        self.red
            .vote(gate(&self.gates), &mut self.m, inputs, &mut self.counters)
            .expect("arity is fixed by the caller")
    }

    /// `a & b` on the branch-predictor AND gate (Figure 1).
    pub fn and(&mut self, a: bool, b: bool) -> bool {
        self.vote(|g| &g.bp_and, &[a, b])
    }

    /// `a | b` on the branch-predictor OR gate (Figure 2).
    pub fn or(&mut self, a: bool, b: bool) -> bool {
        self.vote(|g| &g.bp_or, &[a, b])
    }

    /// `!(a & b)` on the NAND gate.
    pub fn nand(&mut self, a: bool, b: bool) -> bool {
        self.vote(|g| &g.bp_nand, &[a, b])
    }

    /// `!a`, as `nand(a, a)`.
    pub fn not(&mut self, a: bool) -> bool {
        self.nand(a, a)
    }

    /// `(a & b) | (c & d)` on the composed AND-AND-OR gate.
    pub fn and_and_or(&mut self, a: bool, b: bool, c: bool, d: bool) -> bool {
        self.vote(|g| &g.bp_aao, &[a, b, c, d])
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
        self.vote(|g| &g.tsx_assign, &[a])
    }

    /// `a & b` on the TSX AND gate.
    pub fn tsx_and(&mut self, a: bool, b: bool) -> bool {
        self.vote(|g| &g.tsx_and, &[a, b])
    }

    /// `a | b` on the TSX OR gate.
    pub fn tsx_or(&mut self, a: bool, b: bool) -> bool {
        self.vote(|g| &g.tsx_or, &[a, b])
    }

    /// `!a` on the TSX NOT gate.
    pub fn tsx_not(&mut self, a: bool) -> bool {
        self.vote(|g| &g.tsx_not, &[a])
    }

    /// `a ^ b` on the three-transaction TSX XOR circuit (§4.1).
    pub fn tsx_xor(&mut self, a: bool, b: bool) -> bool {
        self.vote(|g| &g.tsx_xor, &[a, b])
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
        self.gates.named(name).execute_timed(&mut self.m, inputs)
    }

    /// Reference truth for a named gate (see [`Skelly::execute_named`]).
    pub fn truth_named(&self, name: &str, inputs: &[bool]) -> bool {
        self.gates.named(name).truth(inputs)
    }

    /// Arity of a named gate (see [`Skelly::execute_named`]).
    pub fn arity_named(&self, name: &str) -> usize {
        self.gates.named(name).arity()
    }

    /// The TSX AND-OR gate instance (both-outputs measurements, Table 6).
    pub fn tsx_and_or_gate(&self) -> TsxGate {
        self.gates.tsx_and_or
    }

    /// The TSX XOR circuit instance (Table 7 measurements).
    pub fn tsx_xor_gate(&self) -> TsxXor {
        self.gates.tsx_xor
    }
}

/// A quiet machine with every latency `factor` times the default: the
/// boundary between fast and slow reads moves far from the default one,
/// so only gates, circuits and registers decoding against their own
/// calibrated cut work.
#[cfg(test)]
pub(crate) fn quiet_scaled_latency(factor: u64) -> MachineConfig {
    use uwm_sim::timing::LatencyConfig;

    let d = LatencyConfig::default();
    MachineConfig {
        latency: LatencyConfig {
            l1: factor * d.l1,
            l2: factor * d.l2,
            l3: factor * d.l3,
            dram: factor * d.dram,
            alu: factor * d.alu,
            mul: factor * d.mul,
            div: factor * d.div,
            rdtscp: factor * d.rdtscp,
            clflush: factor * d.clflush,
            mispredict_penalty: factor * d.mispredict_penalty,
            btb_miss_penalty: factor * d.btb_miss_penalty,
            xbegin: factor * d.xbegin,
            xend: factor * d.xend,
            xabort: factor * d.xabort,
            tsx_spec_window: factor * d.tsx_spec_window,
            spec_window_slack: factor * d.spec_window_slack,
            vmx_warm: factor * d.vmx_warm,
            vmx_cold: factor * d.vmx_cold,
        },
        ..MachineConfig::quiet()
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
        // takes the constant hit latency, which is also the calibrated
        // threshold, so the output no longer depends on the input.
        let mut flat = spec.bind(FlatEmulator::new());
        let lat = flat.machine().latency().clone();
        let zero = flat.execute_named("TSX_ASSIGN", &[false]).unwrap();
        let one = flat.execute_named("TSX_ASSIGN", &[true]).unwrap();
        assert_eq!(zero.delay, lat.l1 + lat.rdtscp);
        assert_eq!(zero, one, "the flat emulator reads every input alike");
    }

    /// Gates and circuits decode against their own calibrated threshold
    /// on a machine with every latency four times the default.
    #[test]
    fn scaled_latency_decodes_against_calibrated_threshold() {
        use crate::circuit::{adder32_inputs, adder32_outputs, adder32_spec};
        use crate::gate::bp::BpAnd;
        use crate::gate::verify_truth_table;

        let cfg = super::quiet_scaled_latency(4);

        assert_named_truth_tables(&mut Skelly::new(cfg.clone(), 0).unwrap());

        let mut m = Machine::new(cfg.clone(), 0);
        let mut lay = Layout::new(m.predictor().alias_stride());
        let and = BpAnd::spec(&mut lay).unwrap().instantiate(&mut m);
        assert_eq!(verify_truth_table(&and, &mut m).unwrap(), None);

        let mut m = Machine::new(cfg, 0);
        let mut lay = Layout::new(m.predictor().alias_stride());
        let adder = adder32_spec(&mut lay).unwrap().instantiate(&mut m);
        let out = adder.run(&mut m, &adder32_inputs(1234, 4321)).unwrap();
        assert_eq!(adder32_outputs(&out), (5555, false));
    }

    /// Every named gate decodes its full truth table through
    /// [`Skelly::execute_named`].
    fn assert_named_truth_tables(sk: &mut Skelly) {
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
            let n = sk.arity_named(name);
            for bits in 0..1u32 << n {
                let inputs: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                let r = sk.execute_named(name, &inputs).unwrap();
                assert_eq!(r.bit, sk.truth_named(name, &inputs), "{name} {inputs:?}");
            }
        }
    }

    #[test]
    fn execute_named_covers_all_gates() {
        assert_named_truth_tables(&mut Skelly::quiet(5).unwrap());
    }
}
