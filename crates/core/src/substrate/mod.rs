//! The [`Substrate`] abstraction: what weird gates need from an execution
//! backend.
//!
//! Gates never manipulate a concrete machine directly. They are described
//! by machine-independent *specs* ([`crate::gate::GateSpec`]) — wiring
//! addresses plus assembled program templates — and bound to a backend by
//! `spec.instantiate(&mut substrate)`. The [`Substrate`] trait is the
//! complete contract of that binding: program loading (one path,
//! [`Substrate::install_program`]), code warming, timed reads, cache
//! flushes, and a cycle source.
//!
//! Two implementations ship with the workspace:
//!
//! * [`uwm_sim::machine::Machine`] — the full microarchitectural
//!   simulator (caches, speculation, TSX, predictors). Weird gates
//!   *compute* on it.
//! * [`FlatEmulator`] — the one flat interpreter: independent, purely
//!   architectural, with constant memory latency and no speculative
//!   windows. Weird gates *degenerate* on it, which is exactly what the
//!   paper's §7 emulation detector exploits: the same gate spec
//!   instantiated on both backends distinguishes them. Because it shares
//!   no code with `Machine`'s interpreter, it is also the oracle of the
//!   architectural differential test (`tests/backend_differential.rs`).

pub mod flat;

pub use flat::{FlatEmulator, DEFAULT_ALIAS_STRIDE};

use std::any::Any;
use std::fmt;

use uwm_sim::isa::{Program, Reg};
use uwm_sim::machine::{Machine, MachineSnapshot, RunOutcome};
use uwm_sim::timing::LatencyConfig;

/// An opaque capture of a backend's complete state, produced by
/// [`Substrate::snapshot`] and consumed by [`Substrate::restore`].
///
/// The capture is backend-specific (a boxed [`MachineSnapshot`], or a
/// boxed copy of the [`FlatEmulator`]), which keeps the trait object-safe:
/// batch runners hold `&mut dyn Substrate` and still snapshot/restore.
/// Restoring a snapshot into a *different* backend type panics — snapshots
/// are not a serialization format.
pub struct SubstrateSnapshot(Box<dyn Any + Send>);

impl fmt::Debug for SubstrateSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SubstrateSnapshot").finish()
    }
}

impl SubstrateSnapshot {
    /// Recovers the concrete backend state, if the types match.
    pub(crate) fn downcast_ref<T: 'static>(&self) -> Option<&T> {
        self.0.downcast_ref()
    }
}

/// Execution backend contract for weird gates, registers, and circuits.
///
/// Everything a gate does at runtime goes through this trait, so any type
/// implementing it can host an instantiated [`crate::gate::GateSpec`].
/// Methods mirror the primitive operations of the paper's weird-machine
/// construction: encode a bit (timed read vs. flush), activate a program,
/// and decode a bit (timed read against a threshold).
pub trait Substrate {
    /// Short backend identifier (diagnostics, experiment labels).
    fn backend_name(&self) -> &'static str;

    /// Installs an assembled program fragment, merging it with any code
    /// already loaded. Installing into an empty backend shares the
    /// fragment's instruction image instead of copying it.
    fn install_program(&mut self, program: &Program);

    /// Warms the instruction-side state for `[base, end)` so gate code
    /// itself never misses (its residency must stay input-independent).
    fn warm_code_range(&mut self, base: u64, end: u64);

    /// Runs installed code starting at `pc` until halt, fault, or limit.
    fn run_at(&mut self, pc: u64) -> RunOutcome;

    /// Evicts the cache line holding `addr` (stores a weird-register 0).
    fn flush_addr(&mut self, addr: u64);

    /// Loads `addr` and returns the access latency in cycles (stores a
    /// weird-register 1 and/or senses residency).
    fn timed_read(&mut self, addr: u64) -> u64;

    /// Like [`Substrate::timed_read`] but includes timestamp-read overhead
    /// — the latency a real attacker observes through `rdtscp` pairs.
    fn timed_read_tsc(&mut self, addr: u64) -> u64;

    /// Touches `addr` on the instruction side (IC-WR writes, code warming).
    fn touch_code(&mut self, addr: u64);

    /// Monotonic cycle counter.
    fn cycles(&self) -> u64;

    /// Advances time without touching gate state (contention drain).
    fn idle(&mut self, cycles: u64);

    /// Architectural 64-bit store (gate condition variables, payload data).
    fn write_word(&mut self, addr: u64, value: u64);

    /// Architectural 64-bit load.
    fn read_word(&self, addr: u64) -> u64;

    /// Sets an architectural register (pre-loading pointer operands).
    fn set_reg(&mut self, r: Reg, value: u64);

    /// The backend's latency model (threshold calibration, diagnostics).
    fn latency(&self) -> &LatencyConfig;

    /// Distance between a branch and its predictor-aliased twin; gate
    /// layouts are built for a specific stride.
    fn alias_stride(&self) -> u64;

    /// Captures the backend's complete state — architectural and
    /// microarchitectural, plus clock, randomness, statistics and trace —
    /// so that a later [`Substrate::restore`] replays every subsequent
    /// observable bit for bit.
    fn snapshot(&self) -> SubstrateSnapshot;

    /// Restores the exact state captured by [`Substrate::snapshot`].
    ///
    /// The determinism contract of batch evaluation rests on this being a
    /// *full* restore: after `restore(&snap)` the backend is
    /// indistinguishable from the one that took the snapshot, so
    /// `restore + reseed(s) + work` produces the same observables as a
    /// fresh backend built the same way and reseeded with `s`.
    ///
    /// The *cost* is not that of a full copy. On `Machine` the program
    /// image is shared, state is copied in place, and a backend restored
    /// from the same snapshot as last time copies back only the cache sets
    /// dirtied since (see [`Machine::restore_from`] for the lineage rule).
    ///
    /// # Panics
    ///
    /// Panics if `snap` came from a different backend type.
    fn restore(&mut self, snap: &SubstrateSnapshot);

    /// Restarts the backend's randomness from `seed`, as if it had been
    /// constructed with that seed. Deterministic backends (the flat
    /// emulator) treat this as a no-op.
    fn reseed(&mut self, seed: u64);
}

impl Substrate for Machine {
    fn backend_name(&self) -> &'static str {
        "uwm-sim"
    }

    fn install_program(&mut self, program: &Program) {
        self.add_program(program);
    }

    fn warm_code_range(&mut self, base: u64, end: u64) {
        Machine::warm_code_range(self, base, end);
    }

    fn run_at(&mut self, pc: u64) -> RunOutcome {
        Machine::run_at(self, pc)
    }

    fn flush_addr(&mut self, addr: u64) {
        Machine::flush_addr(self, addr);
    }

    fn timed_read(&mut self, addr: u64) -> u64 {
        Machine::timed_read(self, addr)
    }

    fn timed_read_tsc(&mut self, addr: u64) -> u64 {
        Machine::timed_read_tsc(self, addr)
    }

    fn touch_code(&mut self, addr: u64) {
        Machine::touch_code(self, addr);
    }

    fn cycles(&self) -> u64 {
        Machine::cycles(self)
    }

    fn idle(&mut self, cycles: u64) {
        Machine::idle(self, cycles);
    }

    fn write_word(&mut self, addr: u64, value: u64) {
        self.mem_mut().write_u64(addr, value);
    }

    fn read_word(&self, addr: u64) -> u64 {
        self.mem().read_u64(addr)
    }

    fn set_reg(&mut self, r: Reg, value: u64) {
        Machine::set_reg(self, r, value);
    }

    fn latency(&self) -> &LatencyConfig {
        Machine::latency(self)
    }

    fn alias_stride(&self) -> u64 {
        self.predictor().alias_stride()
    }

    fn snapshot(&self) -> SubstrateSnapshot {
        SubstrateSnapshot(Box::new(Machine::snapshot(self)))
    }

    fn restore(&mut self, snap: &SubstrateSnapshot) {
        let m = snap
            .downcast_ref::<MachineSnapshot>()
            .expect("snapshot was taken from the uwm-sim backend");
        self.restore_from(m);
    }

    fn reseed(&mut self, seed: u64) {
        self.reseed_noise(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwm_sim::isa::{Assembler, Inst, Operand};
    use uwm_sim::machine::MachineConfig;

    fn as_substrate(s: &mut dyn Substrate) -> &mut dyn Substrate {
        s
    }

    #[test]
    fn machine_is_a_substrate() {
        let mut m = Machine::new(MachineConfig::quiet(), 0);
        let s = as_substrate(&mut m);
        assert_eq!(s.backend_name(), "uwm-sim");
        s.write_word(0x10_0000, 42);
        assert_eq!(s.read_word(0x10_0000), 42);
        let miss = s.timed_read(0x20_0000);
        let hit = s.timed_read(0x20_0000);
        assert!(miss > hit, "machine timing is state-dependent");
    }

    #[test]
    fn both_backends_run_the_same_program() {
        let mut a = Assembler::new(0x100);
        a.push(Inst::Mov {
            dst: 1,
            src: Operand::Imm(7),
        });
        a.push(Inst::Store {
            addr: 0x10_0000,
            src: 1,
        });
        a.push(Inst::Halt);
        let prog = a.finish().unwrap();

        let mut m = Machine::new(MachineConfig::quiet(), 0);
        let mut f = FlatEmulator::new();
        for s in [&mut m as &mut dyn Substrate, &mut f as &mut dyn Substrate] {
            s.install_program(&prog);
            assert_eq!(s.run_at(0x100), RunOutcome::Halted);
            assert_eq!(s.read_word(0x10_0000), 7, "{}", s.backend_name());
        }
    }
}
