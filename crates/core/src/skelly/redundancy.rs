//! Reliability machinery: s-sample medians and best-k-of-n voting (§5.2).
//!
//! Single weird-gate executions are 92–99.99 % accurate; a SHA-1 needs
//! hundreds of thousands of them, so `skelly` executes each logical gate
//! redundantly: `s` timed executions → the bit of the median-delay reading
//! → one vote; `n` votes → k-threshold decision. The paper's SHA-1 runs used
//! `s = 10, k = 3, n = 5`. The voter knows no threshold: each reading is
//! already decoded by the gate against its backend's calibrated one.

use std::collections::BTreeMap;

use crate::error::Result;
use crate::gate::WeirdGate;
use crate::substrate::Substrate;

/// Redundancy parameters for voted gate execution.
///
/// # Examples
///
/// ```
/// use uwm_core::skelly::Redundancy;
/// let r = Redundancy::paper();
/// assert_eq!((r.samples, r.k, r.votes), (10, 3, 5));
/// assert_eq!(r.raw_executions(), 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Redundancy {
    /// Timed executions per vote (`s`); the bit of the median-delay
    /// reading becomes the vote.
    pub samples: usize,
    /// Votes per logical gate execution (`n`).
    pub votes: usize,
    /// Minimum number of 1-votes for the output to be 1 (`k`). With
    /// `votes = 5, k = 3` this is a straight majority.
    pub k: usize,
}

impl Default for Redundancy {
    /// No redundancy: one raw execution per logical gate.
    fn default() -> Self {
        Self {
            samples: 1,
            votes: 1,
            k: 1,
        }
    }
}

impl Redundancy {
    /// The conservative parameters of the paper's SHA-1 experiments
    /// (`s = 10, k = 3, n = 5`).
    pub fn paper() -> Self {
        Self {
            samples: 10,
            votes: 5,
            k: 3,
        }
    }

    /// Raw gate executions per logical operation.
    pub fn raw_executions(&self) -> usize {
        self.samples * self.votes
    }

    /// Executes `gate` redundantly and returns the voted output bit,
    /// recording accuracy statistics in `bank`.
    ///
    /// Every raw execution runs the gate's full protocol (initialize,
    /// encode, activate, read). Re-preparing a gate costs far less than
    /// rewinding a machine to a prepared state would, so the voter never
    /// snapshots.
    ///
    /// # Errors
    ///
    /// Propagates gate arity errors.
    ///
    /// # Panics
    ///
    /// Panics if `samples`, `votes`, or `k` is zero, or `k > votes`.
    pub fn vote(
        &self,
        gate: &dyn WeirdGate,
        s: &mut dyn Substrate,
        inputs: &[bool],
        bank: &mut CounterBank,
    ) -> Result<bool> {
        assert!(
            self.samples > 0 && self.votes > 0,
            "redundancy must be positive"
        );
        assert!(self.k > 0 && self.k <= self.votes, "need 0 < k <= votes");
        let expected = gate.truth(inputs);
        let counters = bank.entry(gate.name());
        let mut ones = 0usize;
        let mut readings = Vec::with_capacity(self.samples);
        for _ in 0..self.votes {
            readings.clear();
            for _ in 0..self.samples {
                let r = gate.execute_timed(s, inputs)?;
                counters.raw_total += 1;
                if r.bit == expected {
                    counters.raw_correct += 1;
                }
                readings.push(r);
            }
            // A reading's bit is monotone in its delay, so the bit of the
            // median-delay reading is the gate's own decision on the median.
            readings.sort_unstable_by_key(|r| r.delay);
            let vote = readings[readings.len() / 2].bit;
            counters.medians_total += 1;
            if vote == expected {
                counters.medians_correct += 1;
            }
            if vote {
                ones += 1;
            }
        }
        let out = ones >= self.k;
        counters.votes_total += 1;
        if out == expected {
            counters.votes_correct += 1;
        }
        Ok(out)
    }
}

/// Per-gate execution statistics — the raw material of the paper's
/// Table 4 ("Correct After Median" / "Correct After Vote").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateCounters {
    /// Raw gate executions.
    pub raw_total: u64,
    /// Raw executions whose bit matched the reference truth.
    pub raw_correct: u64,
    /// Median decisions taken.
    pub medians_total: u64,
    /// Median decisions that matched the reference truth.
    pub medians_correct: u64,
    /// Voted (logical) gate executions.
    pub votes_total: u64,
    /// Voted executions that matched the reference truth.
    pub votes_correct: u64,
}

impl GateCounters {
    /// Adds another counter set into this one (shard merging).
    pub fn merge(&mut self, other: &GateCounters) {
        self.raw_total += other.raw_total;
        self.raw_correct += other.raw_correct;
        self.medians_total += other.medians_total;
        self.medians_correct += other.medians_correct;
        self.votes_total += other.votes_total;
        self.votes_correct += other.votes_correct;
    }

    /// Fraction of medians that were correct (1.0 when none were taken).
    pub fn median_accuracy(&self) -> f64 {
        if self.medians_total == 0 {
            1.0
        } else {
            self.medians_correct as f64 / self.medians_total as f64
        }
    }

    /// Fraction of votes that were correct (1.0 when none were taken).
    pub fn vote_accuracy(&self) -> f64 {
        if self.votes_total == 0 {
            1.0
        } else {
            self.votes_correct as f64 / self.votes_total as f64
        }
    }
}

/// Statistics per gate name, ordered for stable reporting.
#[derive(Debug, Clone, Default)]
pub struct CounterBank {
    counters: BTreeMap<&'static str, GateCounters>,
}

impl CounterBank {
    /// An empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// The (possibly fresh) counters for `gate`.
    pub fn entry(&mut self, gate: &'static str) -> &mut GateCounters {
        self.counters.entry(gate).or_default()
    }

    /// Read-only counters for `gate`, if it ever executed.
    pub fn get(&self, gate: &str) -> Option<&GateCounters> {
        self.counters.get(gate)
    }

    /// Iterates `(gate name, counters)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &GateCounters)> {
        self.counters.iter().map(|(&k, v)| (k, v))
    }

    /// Merges another bank into this one, gate by gate — the deterministic
    /// reduction step after a [`crate::exec::ShardedExecutor`] run.
    pub fn merge(&mut self, other: &CounterBank) {
        for (name, c) in other.iter() {
            self.entry(name).merge(c);
        }
    }

    /// Drops all statistics.
    pub fn clear(&mut self) {
        self.counters.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateReading;
    use uwm_sim::machine::Machine;

    /// A fake gate with a programmable error pattern.
    #[derive(Debug)]
    struct FlakyGate {
        fail_every: u64,
        calls: std::cell::Cell<u64>,
    }

    impl crate::gate::sealed::Bind for FlakyGate {
        fn out_line(&self) -> u64 {
            0
        }
        fn with_threshold(self, _threshold: u64) -> Self {
            self
        }
    }

    impl WeirdGate for FlakyGate {
        fn name(&self) -> &'static str {
            "FLAKY"
        }
        fn arity(&self) -> usize {
            1
        }
        fn truth(&self, inputs: &[bool]) -> bool {
            inputs[0]
        }
        fn execute_timed(&self, _s: &mut dyn Substrate, inputs: &[bool]) -> Result<GateReading> {
            let n = self.calls.get();
            self.calls.set(n + 1);
            let fail = self.fail_every != 0 && n.is_multiple_of(self.fail_every);
            let bit = inputs[0] ^ fail;
            Ok(GateReading {
                bit,
                delay: if bit { 40 } else { 230 },
            })
        }
    }

    fn machine() -> Machine {
        Machine::new(uwm_sim::machine::MachineConfig::quiet(), 0)
    }

    #[test]
    fn voting_corrects_sporadic_errors() {
        let gate = FlakyGate {
            fail_every: 7,
            calls: 0.into(),
        };
        let red = Redundancy::paper();
        let mut bank = CounterBank::new();
        let mut m = machine();
        for i in 0..40 {
            let input = i % 2 == 0;
            let out = red.vote(&gate, &mut m, &[input], &mut bank).unwrap();
            assert_eq!(out, input, "vote {i} must mask a 1/7 error rate");
        }
        let c = bank.get("FLAKY").unwrap();
        assert!(c.raw_correct < c.raw_total, "raw errors did happen");
        assert_eq!(c.vote_accuracy(), 1.0);
        assert_eq!(c.raw_total, 40 * 50);
    }

    #[test]
    fn no_redundancy_passes_raw_bits_through() {
        let gate = FlakyGate {
            fail_every: 2,
            calls: 0.into(),
        };
        let red = Redundancy::default();
        let mut bank = CounterBank::new();
        let mut m = machine();
        let mut wrong = 0;
        for _ in 0..20 {
            if !red.vote(&gate, &mut m, &[true], &mut bank).unwrap() {
                wrong += 1;
            }
        }
        assert_eq!(wrong, 10, "every other call fails by construction");
    }

    #[test]
    fn k_threshold_is_respected() {
        // With k = votes, a single 0-vote forces output 0.
        let gate = FlakyGate {
            fail_every: 5,
            calls: 0.into(),
        };
        let red = Redundancy {
            samples: 1,
            votes: 5,
            k: 5,
        };
        let mut bank = CounterBank::new();
        let mut m = machine();
        let out = red.vote(&gate, &mut m, &[true], &mut bank).unwrap();
        assert!(!out, "one failed sample among five must veto under k=5");
    }

    #[test]
    #[should_panic(expected = "k <= votes")]
    fn invalid_k_panics() {
        let gate = FlakyGate {
            fail_every: 0,
            calls: 0.into(),
        };
        let red = Redundancy {
            samples: 1,
            votes: 3,
            k: 4,
        };
        let mut m = machine();
        let _ = red.vote(&gate, &mut m, &[true], &mut CounterBank::new());
    }

    #[test]
    fn paper_redundancy_votes_a_real_gate_correctly() {
        use crate::gate::tsx::{TsxGate, TsxOp};
        use crate::layout::Layout;
        // A real gate on a noisy machine, voted at the paper's redundancy.
        let mut m = Machine::new(uwm_sim::machine::MachineConfig::default(), 11);
        let mut lay = Layout::new(m.predictor().alias_stride());
        let g = TsxGate::spec(&mut lay, TsxOp::And)
            .unwrap()
            .instantiate(&mut m);
        let red = Redundancy::paper();
        let mut bank = CounterBank::new();
        for bits in 0..4u32 {
            let inputs = [bits & 1 == 1, bits & 2 == 2];
            let out = red.vote(&g, &mut m, &inputs, &mut bank).unwrap();
            assert_eq!(out, inputs[0] & inputs[1], "inputs {inputs:?}");
        }
        let c = bank.get("TSX_AND").unwrap();
        assert_eq!(c.raw_total, 4 * 50, "s*n raw executions per logical op");
        assert_eq!(c.vote_accuracy(), 1.0);
    }

    #[test]
    fn counter_bank_iterates_in_name_order() {
        let mut bank = CounterBank::new();
        bank.entry("Z").raw_total = 1;
        bank.entry("A").raw_total = 2;
        let names: Vec<_> = bank.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["A", "Z"]);
    }
}
