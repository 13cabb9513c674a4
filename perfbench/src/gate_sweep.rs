//! `gate_sweep`: the paper's Tables 2/5/8 traffic.
//!
//! All ten paper gates in rotation with seeded random inputs through
//! `Skelly::execute_named`, in hermetic batches of 4096 evaluations that
//! each start on a fresh `SkellySpec::instantiate` and fan out over a
//! `ShardedExecutor`. The interpreter does nearly all the work; the
//! snapshot/restore path and the redundancy voter do none.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use uwm_core::exec::ShardedExecutor;
use uwm_core::layout::Layout;
use uwm_core::skelly::{calibrate_threshold, SkellySpec};
use uwm_core::substrate::DEFAULT_ALIAS_STRIDE;
use uwm_rng::rngs::StdRng;
use uwm_rng::{Rng, SeedableRng};
use uwm_sim::machine::{Machine, MachineConfig};

use crate::common::{closed_loop, derive, shards, Hash64, Outcome, Record, SimCounts};
use crate::trace::Tracer;
use crate::{ItemTrace, Metrics};

/// The ten gates of the paper's tables, in rotation order.
pub const GATES: [&str; 10] = [
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
];

/// Span names of one `execute_named` call per gate (same order as
/// [`GATES`]).
const GATE_SPANS: [&str; 10] = [
    "gate.AND",
    "gate.OR",
    "gate.NAND",
    "gate.AND_AND_OR",
    "gate.TSX_ASSIGN",
    "gate.TSX_AND",
    "gate.TSX_OR",
    "gate.TSX_AND_OR",
    "gate.TSX_NOT",
    "gate.TSX_XOR",
];

/// Evaluations per hermetic batch.
const BATCH_OPS: usize = 4096;
/// Batches per closed-loop round (one `ShardedExecutor::run` call).
const ROUND_BATCHES: usize = 8;
/// Batches whose outputs fix the accuracy and the fingerprint.
const PREFIX_BATCHES: usize = 16;
/// Batches run at one and at two shards for the scaling ratio.
const SCALING_BATCHES: usize = 16;
/// Cap on spanned batches, which bounds the spans kept in memory.
const MAX_TRACED_BATCHES: usize = 64;

const MACHINE_SALT: u64 = 0x6761_7465_0001;
const INPUT_SALT: u64 = 0x6761_7465_0002;
const CALIBRATE_SALT: u64 = 0x6761_7465_0003;

/// What one batch produced.
#[derive(Debug, Clone, Copy, Default)]
struct Batch {
    evals: u64,
    failed: u64,
    correct: u64,
    record: Record,
}

/// Runs batch `b` on a fresh skelly. With a tracer, every call is
/// spanned and per-gate accuracy is tallied into `per_gate`.
fn run_batch(
    spec: &SkellySpec,
    seed: u64,
    b: usize,
    mut tr: Option<(&mut Tracer, &mut [(u64, u64); 10])>,
) -> Batch {
    let machine_seed = derive(seed, MACHINE_SALT, b);
    let instantiate = || spec.instantiate(MachineConfig::default(), machine_seed);
    let mut sk = match tr.as_mut() {
        Some((t, _)) => t.span("skelly.instantiate", b as u64, instantiate),
        None => instantiate(),
    };
    let mut rng = StdRng::seed_from_u64(derive(seed, INPUT_SALT, b));
    let before = SimCounts::of(sk.machine());
    let mut readings = Hash64::default();
    let mut out = Batch::default();
    let mut inputs = [false; 4];
    for k in 0..BATCH_OPS {
        let item = b * BATCH_OPS + k;
        let g = item % GATES.len();
        let name = GATES[g];
        let inputs = &mut inputs[..sk.arity_named(name)];
        for x in inputs.iter_mut() {
            *x = rng.gen();
        }
        let reading = match tr.as_mut() {
            Some((t, _)) => t.span(GATE_SPANS[g], item as u64, || {
                sk.execute_named(name, inputs)
            }),
            None => sk.execute_named(name, inputs),
        };
        out.evals += 1;
        match reading {
            Ok(r) => {
                readings.add(u64::from(r.bit));
                readings.add(r.delay);
                let right = r.bit == sk.truth_named(name, inputs);
                out.correct += u64::from(right);
                if let Some((_, per_gate)) = tr.as_mut() {
                    per_gate[g].0 += u64::from(right);
                    per_gate[g].1 += 1;
                }
            }
            Err(_) => out.failed += 1,
        }
    }
    out.record = Record {
        counts: SimCounts::of(sk.machine()).since(before),
        readings: readings.value(),
    };
    out
}

/// [`run_batch`] untraced, with a panic counted as a failed batch.
fn guarded_batch(spec: &SkellySpec, seed: u64, b: usize) -> Batch {
    catch_unwind(AssertUnwindSafe(|| run_batch(spec, seed, b, None))).unwrap_or(Batch {
        evals: BATCH_OPS as u64,
        failed: BATCH_OPS as u64,
        ..Batch::default()
    })
}

/// Runs batches `first..first + n` on `exec`, returning them in order and
/// the items per second of the call.
fn run_round(
    exec: &ShardedExecutor,
    spec: &SkellySpec,
    seed: u64,
    first: usize,
    n: usize,
) -> (Vec<Batch>, f64) {
    let t = Instant::now();
    let batches = exec.run(n, |i| guarded_batch(spec, seed, first + i));
    let rate = (n * BATCH_OPS) as f64 / t.elapsed().as_secs_f64();
    (batches, rate)
}

fn spec() -> SkellySpec {
    SkellySpec::new().expect("the paper's gate set fits the default layout")
}

/// Everything before the first item can run: build the spec and bind it
/// to a fresh machine.
pub fn setup(seed: u64) -> impl Sized {
    spec().instantiate(MachineConfig::default(), derive(seed, MACHINE_SALT, 0))
}

/// The untraced, timed workload.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let spec = spec();
    let exec = ShardedExecutor::new(shards());
    let mut batches: Vec<Batch> = Vec::new();
    let timed = closed_loop(budget, PREFIX_BATCHES / ROUND_BATCHES, |r| {
        let (b, _) = run_round(&exec, &spec, seed, r * ROUND_BATCHES, ROUND_BATCHES);
        batches.extend(b);
    });

    let mut out = Outcome::default();
    for b in &batches {
        out.attempted += b.evals;
        out.failed += b.failed;
    }
    out.items_per_s = out.attempted as f64 / timed.seconds;
    out.peak_rss_mib = timed.peak_rss_mib;
    out.gate_evals_per_s = out.items_per_s;
    let prefix = &batches[..PREFIX_BATCHES];
    for b in prefix {
        out.bits_right += b.correct;
        out.bits_total += b.evals;
    }
    out.fingerprint = prefix.iter().map(|b| b.record).collect();

    // The prefix again, on one shard and on the workload's shard count:
    // both must reproduce the timed loop's fingerprint exactly.
    for n in [1, shards()] {
        let (again, _) = run_round(&ShardedExecutor::new(n), &spec, seed, 0, PREFIX_BATCHES);
        let again: Vec<Record> = again.iter().map(|b| b.record).collect();
        if again != out.fingerprint {
            out.check_failures.push(format!(
                "gate_sweep fingerprint differs on a rerun at {n} shard(s)"
            ));
        }
    }
    out
}

/// The traced replay: calibration and executor scaling, then batches
/// with every call spanned until `budget` has passed (at least two, at
/// most [`MAX_TRACED_BATCHES`]).
pub fn trace(seed: u64, budget: Duration, tr: &mut Tracer, metrics: &mut Metrics) -> ItemTrace {
    // Calibration on fresh machines.
    let probe = Layout::new(DEFAULT_ALIAS_STRIDE)
        .alloc_var()
        .expect("a fresh layout has room for one variable");
    for i in 0..8 {
        let mut m = Machine::new(MachineConfig::default(), derive(seed, CALIBRATE_SALT, i));
        tr.span("skelly.calibrate", i as u64, || {
            calibrate_threshold(&mut m, probe, 33)
        });
    }

    // Executor scaling: the same batches on one shard and on two.
    let spec = spec();
    let (_, rate1) = run_round(&ShardedExecutor::new(1), &spec, seed, 0, SCALING_BATCHES);
    let (_, rate2) = run_round(&ShardedExecutor::new(2), &spec, seed, 0, SCALING_BATCHES);

    // One thread, every call spanned.
    let mut per_gate = [(0u64, 0u64); 10];
    let mut it = ItemTrace::default();
    let start = Instant::now();
    let mut b = 0;
    while b < 2 || (b < MAX_TRACED_BATCHES && start.elapsed() < budget) {
        tr.enter("gate_sweep.batch", b as u64);
        let batch = run_batch(&spec, seed, b, Some((tr, &mut per_gate)));
        let batch_ns = tr.exit();
        it.items += batch.evals;
        it.failed += batch.failed;
        it.counts.add(batch.record.counts);
        it.traced_s += batch_ns as f64 * 1e-9;
        b += 1;
    }
    let stats = tr.stats();
    for (g, name) in GATES.iter().enumerate() {
        let s = stats[GATE_SPANS[g]];
        it.call_ns += s.total_ns;
        metrics.put(format!("gate.{name}.host_ns"), s.mean_ns(), "ns");
        let (right, total) = per_gate[g];
        metrics.put(
            format!("gate.{name}.accuracy"),
            right as f64 / total as f64,
            "fraction",
        );
    }
    let batch = stats["gate_sweep.batch"];
    it.untraced_items_per_s = rate1;
    it.unattributed_ns = batch.self_ns as f64;
    metrics.put(
        "skelly.instantiate_ms",
        stats["skelly.instantiate"].mean_ns() * 1e-6,
        "ms",
    );
    metrics.put(
        "skelly.calibrate_us",
        stats["skelly.calibrate"].mean_ns() * 1e-3,
        "us",
    );
    metrics.put(
        "exec.gate_sweep.scaling_2v1",
        rate2 / (2.0 * rate1),
        "ratio",
    );
    it
}
