//! `adder_batch`: the batch engine.
//!
//! The compiled 345-gate `adder32_spec` plan streamed through
//! `BatchRunner::run_observed` with seeded random operand pairs and one
//! pooled machine per shard. Every item restores the pool's warm
//! snapshot and reseeds, so `Substrate::restore` and the
//! circuit/batch/exec layers carry a large share of the work here and
//! none on `gate_sweep`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use uwm_core::batch::{BatchObservation, BatchRunner};
use uwm_core::circuit::{adder32_inputs, adder32_outputs, adder32_spec, CircuitPlan, CircuitSpec};
use uwm_core::exec::{batch_seed, ShardedExecutor};
use uwm_core::gate::GateReading;
use uwm_core::layout::Layout;
use uwm_core::substrate::{Substrate, DEFAULT_ALIAS_STRIDE};
use uwm_rng::rngs::StdRng;
use uwm_rng::{Rng, SeedableRng};
use uwm_sim::machine::{Machine, MachineConfig};

use crate::common::{closed_loop, derive, shards, Hash64, Outcome, Record, SimCounts};
use crate::trace::Tracer;
use crate::{ItemTrace, Metrics};

/// Operand pairs per closed-loop round (one `BatchRunner` call). Round 0
/// fixes the accuracy and is the one the checks re-evaluate.
const ROUND_ITEMS: usize = 1024;
/// Items of round 0 whose readings and counts form the fingerprint.
const FINGERPRINT_ITEMS: usize = 256;
/// Items of round 0 re-evaluated serially on fresh machines.
const SERIAL_SAMPLE: usize = 16;
/// Items run through the engine at one and at two shards for the scaling
/// ratio.
const SCALING_ITEMS: usize = 256;

const MACHINE_SALT: u64 = 0x6164_6465_0001;
const OPERAND_SALT: u64 = 0x6164_6465_0002;
const NOISE_SALT: u64 = 0x6164_6465_0003;
const SAMPLE_SALT: u64 = 0x6164_6465_0004;

fn circuit_spec() -> CircuitSpec {
    let mut lay = Layout::new(DEFAULT_ALIAS_STRIDE);
    adder32_spec(&mut lay).expect("the adder fits a fresh layout")
}

/// The pool machine every shard (and every serial re-evaluation) starts
/// from; per-item noise comes from the runner's reseed.
fn machine(seed: u64) -> Machine {
    Machine::new(MachineConfig::default(), derive(seed, MACHINE_SALT, 0))
}

/// Base seed of round `r`'s runner; item `i` of the round is reseeded
/// with `batch_seed(round_seed, i)`.
fn round_seed(seed: u64, r: usize) -> u64 {
    derive(seed, NOISE_SALT, r)
}

fn operands(seed: u64, r: usize, n: usize) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(derive(seed, OPERAND_SALT, r));
    (0..n).map(|_| (rng.gen(), rng.gen())).collect()
}

/// Output bits (32 sum bits and the carry) that differ from `a + b`.
fn wrong_bits((a, b): (u32, u32), bits: &[bool]) -> u32 {
    let (sum, carry) = adder32_outputs(bits);
    let (want, want_carry) = a.overflowing_add(b);
    (sum ^ want).count_ones() + u32::from(carry != want_carry)
}

fn hash_readings(readings: &[GateReading]) -> u64 {
    let mut h = Hash64::default();
    for r in readings {
        h.add(u64::from(r.bit));
        h.add(r.delay);
    }
    h.value()
}

/// One round through the batch engine, with its items per second. A
/// returned error or a panic yields `None`.
fn run_round(
    plan: &CircuitPlan,
    shards: usize,
    seed: u64,
    r: usize,
    pairs: &[(u32, u32)],
) -> (Option<Vec<BatchObservation>>, f64) {
    let inputs: Vec<Vec<bool>> = pairs.iter().map(|&(a, b)| adder32_inputs(a, b)).collect();
    let runner = BatchRunner::new(
        plan.clone(),
        ShardedExecutor::new(shards),
        round_seed(seed, r),
    );
    let t = Instant::now();
    let obs = catch_unwind(AssertUnwindSafe(|| {
        runner.run_observed(|| machine(seed), &inputs).ok()
    }))
    .ok()
    .flatten();
    (obs, pairs.len() as f64 / t.elapsed().as_secs_f64())
}

/// Everything before the first item can run: build and compile the
/// plan, bind it to a fresh machine and snapshot the warm state.
pub fn setup(seed: u64) -> impl Sized {
    let plan = circuit_spec().compile();
    let mut m = machine(seed);
    let circuit = plan.instantiate(&mut m);
    (circuit, Substrate::snapshot(&m))
}

/// The untraced, timed workload.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let plan = circuit_spec().compile();
    let gates = plan.gate_count() as f64;
    let mut out = Outcome::default();
    let mut round0 = Vec::new();
    let timed = closed_loop(budget, 1, |r| {
        let pairs = operands(seed, r, ROUND_ITEMS);
        let (obs, _) = run_round(&plan, shards(), seed, r, &pairs);
        out.attempted += pairs.len() as u64;
        let Some(obs) = obs else {
            out.failed += pairs.len() as u64;
            return;
        };
        if r == 0 {
            for (&p, o) in pairs.iter().zip(&obs) {
                out.bits_right += 33 - u64::from(wrong_bits(p, &o.bits()));
                out.bits_total += 33;
            }
            round0 = obs;
        }
    });
    out.items_per_s = out.attempted as f64 / timed.seconds;
    out.peak_rss_mib = timed.peak_rss_mib;
    out.gate_evals_per_s = out.items_per_s * gates;
    if round0.len() != ROUND_ITEMS {
        out.check_failures.push("adder_batch round 0 failed".into());
        return out;
    }

    // Round 0 again through the engine on one shard and on the workload's
    // shard count: every observation must repeat exactly.
    let pairs = operands(seed, 0, ROUND_ITEMS);
    for n in [1, shards()] {
        if run_round(&plan, n, seed, 0, &pairs).0.as_ref() != Some(&round0) {
            out.check_failures.push(format!(
                "adder_batch observations differ on a rerun at {n} shard(s)"
            ));
        }
    }

    // The start of round 0 replayed on one machine (restore, reseed,
    // run): the fingerprint with full simulated counts, which must match
    // the engine's readings and cycles.
    let mut m = machine(seed);
    let circuit = plan.instantiate(&mut m);
    let snap = Substrate::snapshot(&m);
    for (i, &(a, b)) in pairs.iter().take(FINGERPRINT_ITEMS).enumerate() {
        Substrate::restore(&mut m, &snap);
        m.reseed(batch_seed(round_seed(seed, 0), i));
        let before = SimCounts::of(&m);
        let readings = circuit
            .run_timed(&mut m, &adder32_inputs(a, b))
            .expect("adder inputs have the declared arity");
        if readings != round0[i].readings || m.cycles() != round0[i].cycles {
            out.check_failures
                .push(format!("adder_batch item {i}: one-machine replay differs"));
        }
        out.fingerprint.push(Record {
            counts: SimCounts::of(&m).since(before),
            readings: hash_readings(&readings),
        });
    }

    // A fixed sample of round 0 re-evaluated serially on fresh machines:
    // a mismatch breaks the engine's bit-identical contract and counts as
    // a failed item.
    let mut rng = StdRng::seed_from_u64(derive(seed, SAMPLE_SALT, 0));
    for _ in 0..SERIAL_SAMPLE {
        let i = rng.gen_range(0..ROUND_ITEMS);
        let (a, b) = pairs[i];
        let mut m = machine(seed);
        let circuit = plan.instantiate(&mut m);
        m.reseed(batch_seed(round_seed(seed, 0), i));
        let readings = circuit
            .run_timed(&mut m, &adder32_inputs(a, b))
            .expect("adder inputs have the declared arity");
        if readings != round0[i].readings || m.cycles() != round0[i].cycles {
            out.failed += 1;
            eprintln!("adder_batch item {i}: serial re-evaluation differs from the batch engine");
        }
    }
    out
}

/// The traced replay: compile, the engine at one and two shards, then one
/// machine with every layer call spanned until `budget` has passed (at
/// least 64 items).
pub fn trace(seed: u64, budget: Duration, tr: &mut Tracer, metrics: &mut Metrics) -> ItemTrace {
    let spec = circuit_spec();
    let mut plan = None;
    for i in 0..3 {
        plan = Some(tr.span("circuit.compile", i, || spec.compile()));
    }
    let plan = plan.expect("compiled at least once");

    // The engine at one and two shards on the same items.
    let pairs = operands(seed, 0, SCALING_ITEMS);
    let (_, rate1) = run_round(&plan, 1, seed, 0, &pairs);
    let (_, rate2) = run_round(&plan, 2, seed, 0, &pairs);
    let item_us = 2.0 / rate2 * 1e6;

    // Set-up calls repeated on fresh machines, then one machine with
    // every layer call spanned.
    for i in 0..2 {
        let mut m = machine(seed);
        tr.span("circuit.instantiate", i, || plan.instantiate(&mut m));
        tr.span("substrate.snapshot", i, || Substrate::snapshot(&m));
    }
    let mut it = ItemTrace::default();
    let start = Instant::now();
    tr.enter("adder_batch.replay", 0);
    let mut m = machine(seed);
    let circuit = tr.span("circuit.instantiate", 2, || plan.instantiate(&mut m));
    let snap = tr.span("substrate.snapshot", 2, || Substrate::snapshot(&m));
    let mut rng = StdRng::seed_from_u64(derive(seed, OPERAND_SALT, 0));
    let mut i = 0;
    while i < 64 || start.elapsed() < budget {
        let inputs = adder32_inputs(rng.gen(), rng.gen());
        tr.enter("adder_batch.item", i as u64);
        tr.span("substrate.restore", i as u64, || {
            Substrate::restore(&mut m, &snap)
        });
        tr.span("substrate.reseed", i as u64, || {
            m.reseed(batch_seed(round_seed(seed, 0), i))
        });
        let before = SimCounts::of(&m);
        let readings = tr.span("circuit.run", i as u64, || {
            circuit.run_timed(&mut m, &inputs)
        });
        tr.exit();
        it.items += 1;
        match readings {
            Ok(_) => it.counts.add(SimCounts::of(&m).since(before)),
            Err(_) => it.failed += 1,
        }
        i += 1;
    }
    it.traced_s = tr.exit() as f64 * 1e-9;

    let stats = tr.stats();
    let per_item_us = |name: &str| stats[name].mean_ns() * 1e-3;
    let (restore, reseed, run) = (
        per_item_us("substrate.restore"),
        per_item_us("substrate.reseed"),
        per_item_us("circuit.run"),
    );
    it.call_ns = stats["circuit.run"].total_ns;
    it.untraced_items_per_s = rate1;
    it.unattributed_ns = stats["adder_batch.item"].self_ns as f64;
    metrics.put(
        "circuit.compile_ms",
        stats["circuit.compile"].mean_ns() * 1e-6,
        "ms",
    );
    metrics.put(
        "circuit.instantiate_ms",
        stats["circuit.instantiate"].mean_ns() * 1e-6,
        "ms",
    );
    metrics.put("circuit.run_us", run, "us");
    metrics.put(
        "substrate.snapshot_us",
        per_item_us("substrate.snapshot"),
        "us",
    );
    metrics.put("substrate.restore_us", restore, "us");
    metrics.put("substrate.reseed_us", reseed, "us");
    metrics.put("batch.item_us", item_us, "us");
    metrics.put(
        "batch.unattributed_us",
        item_us - (restore + reseed + run),
        "us",
    );
    metrics.put(
        "exec.adder_batch.scaling_2v1",
        rate2 / (2.0 * rate1),
        "ratio",
    );
    it
}
