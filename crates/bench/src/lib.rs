//! # uwm-bench — the evaluation harness
//!
//! Reusable experiment runners that regenerate every table and figure of
//! the paper's evaluation (§6). Each `src/bin/table*.rs` binary prints one
//! table in the paper's row format; the `ablation` bench under `benches/`
//! sweeps gate accuracy against noise, redundancy and window length.
//!
//! | Experiment | Runner | Binary |
//! |---|---|---|
//! | Table 2 (gate perf + accuracy)     | [`gate_performance_sharded`]     | `table2` |
//! | Table 3 + Fig 6 (trigger pings)    | [`trigger_distribution_sharded`] | `table3_fig6` |
//! | Table 4 (SHA-1 gate correctness)   | [`sha1_experiments_sharded`]     | `table4` |
//! | Table 5 (BP/IC gate accuracy)      | [`gate_performance_sharded`]     | `table5` |
//! | Figures 7–8 (timing KDEs)          | [`sharded_delays`], [`delay_histogram`] | `fig7_fig8` |
//! | Tables 6–7 (TSX read delays)       | [`sharded_delays`]               | `table6_table7` |
//! | Table 8 (TSX accuracy + aborts)    | [`gate_performance_sharded`]     | `table8` |
//!
//! Every binary accepts `--shards N` (fan hermetic trial batches across
//! `N` OS threads; results are deterministic per seed regardless of `N`)
//! and `--json PATH` (write a machine-readable report). The gate runners
//! build one machine-free [`SkellySpec`] and instantiate it per batch, so
//! every batch is hermetic: its own machine, its own gate instances, its
//! own seed derived by [`uwm_core::exec::batch_seed`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod harness;
pub mod json;
pub mod stats;

use std::time::Instant;

use uwm_rng::rngs::StdRng;
use uwm_rng::{Rng, SeedableRng};

use json::Json;
use stats::Summary;
use uwm_apps::wm_apt::{Payload, WmApt};
use uwm_apps::UwmSha1;
use uwm_core::exec::{batch_seed, ShardedExecutor};
use uwm_core::skelly::{CounterBank, GateCounters, Redundancy, Skelly, SkellySpec};
use uwm_crypto::sha1;
use uwm_sim::machine::MachineConfig;

/// Common CLI arguments of the table binaries.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// Scale factor for iteration counts (first positional argument;
    /// `1.0` = the paper's sizes, so CI can run `table2 0.01`).
    pub scale: f64,
    /// Shard count for the parallel runners (`--shards N`).
    pub shards: usize,
    /// Destination for a machine-readable report (`--json PATH`).
    pub json: Option<std::path::PathBuf>,
    /// A previously written report to compare against (`--baseline PATH`;
    /// used by `hotpath` to compute speedup ratios).
    pub baseline: Option<std::path::PathBuf>,
    /// Fail (exit 1) if throughput regresses more than this fraction
    /// against the baseline (`--check-regression FRAC`; requires
    /// `--baseline`). The CI perf-smoke job runs with `0.2`.
    pub check_regression: Option<f64>,
}

/// Parses the process args with [`parse`].
///
/// Prints a usage message to stderr and exits with status 2 on malformed
/// arguments.
pub fn parse_args() -> BenchArgs {
    parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        eprintln!(
            "usage: [scale] [--shards N] [--json PATH] [--baseline PATH] \
             [--check-regression FRAC]"
        );
        std::process::exit(2);
    })
}

/// Parses `[scale] [--shards N] [--json PATH] [--baseline PATH]
/// [--check-regression FRAC]` (program name excluded). Every flag also
/// takes its value as `--flag=value`; the scale must be finite and
/// positive.
///
/// # Errors
///
/// Returns the message to report for an unknown flag, a missing or
/// malformed value, or a bad scale.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<BenchArgs, String> {
    let mut out = BenchArgs {
        scale: 1.0,
        shards: 1,
        json: None,
        baseline: None,
        check_regression: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            let scale: f64 = arg
                .parse()
                .map_err(|_| format!("unrecognized argument {arg:?}"))?;
            if !(scale.is_finite() && scale > 0.0) {
                return Err(format!("scale must be finite and positive, got {arg:?}"));
            }
            out.scale = scale;
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, v)) => (flag, Some(v.to_owned())),
            None => (arg.as_str(), None),
        };
        if !matches!(
            flag,
            "--shards" | "--json" | "--baseline" | "--check-regression"
        ) {
            return Err(format!("unrecognized argument {arg:?}"));
        }
        let value = inline
            .or_else(|| args.next())
            .ok_or_else(|| format!("{flag} takes a value"))?;
        match flag {
            "--shards" => {
                out.shards = value
                    .parse()
                    .map_err(|_| "--shards takes a positive integer".to_owned())?;
            }
            "--json" => out.json = Some(value.into()),
            "--baseline" => out.baseline = Some(value.into()),
            _ => {
                out.check_regression = Some(
                    value
                        .parse()
                        .map_err(|_| "--check-regression takes a fraction".to_owned())?,
                );
            }
        }
    }
    out.shards = out.shards.max(1);
    Ok(out)
}

/// Writes `report` to `args.json` when the flag was given. A write failure
/// is reported on stderr and exits with status 1 (the printed table has
/// already reached stdout at that point).
pub fn maybe_write_json(args: &BenchArgs, report: &Json) {
    if let Some(path) = &args.json {
        if let Err(e) = json::write_file(path, report) {
            eprintln!("error: cannot write json report to {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("json report written to {}", path.display());
    }
}

/// Scales an iteration count, keeping at least one.
pub fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(1)
}

/// Result of a gate accuracy / throughput run.
#[derive(Debug, Clone, Copy, Default)]
pub struct GateRun {
    /// Gate executions performed.
    pub ops: u64,
    /// Executions whose output matched the reference truth.
    pub correct: u64,
    /// Host wall-clock seconds.
    pub seconds: f64,
    /// Simulated machine cycles consumed.
    pub sim_cycles: u64,
    /// Spurious transaction aborts observed (TSX gates only).
    pub spurious_aborts: u64,
}

impl GateRun {
    /// Fraction correct.
    pub fn accuracy(&self) -> f64 {
        if self.ops == 0 {
            1.0
        } else {
            self.correct as f64 / self.ops as f64
        }
    }

    /// Host executions per second.
    pub fn execs_per_sec(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.ops as f64 / self.seconds
        }
    }

    /// Simulated cycles per execution.
    pub fn cycles_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.sim_cycles as f64 / self.ops as f64
        }
    }
}

/// Operations per hermetic batch in the sharded runners. Fixed, so the
/// batch split — and therefore every per-batch seed — depends only on the
/// total operation count, never on the shard count: merged results are
/// identical for any `--shards` value.
pub const GATE_BATCH_OPS: u64 = 4096;

/// Merged result of a sharded gate accuracy / throughput run.
#[derive(Debug, Clone)]
pub struct ShardedGateRun {
    /// Merged counts; `seconds` is the wall-clock of the whole fan-out.
    pub run: GateRun,
    /// Shards the executor used.
    pub shards: usize,
    /// Order statistics over every output-read delay, merged in batch
    /// order.
    pub delays: Summary,
}

impl ShardedGateRun {
    /// The machine-readable report row for this run.
    pub fn report_row(&self, gate: &str) -> Json {
        Json::obj([
            ("gate", Json::Str(gate.to_owned())),
            ("ops", Json::UInt(self.run.ops)),
            ("correct", Json::UInt(self.run.correct)),
            ("accuracy", Json::Num(self.run.accuracy())),
            ("median_delay_cycles", Json::UInt(self.delays.median)),
            ("delay_std_dev", Json::Num(self.delays.std_dev)),
            ("sim_cycles", Json::UInt(self.run.sim_cycles)),
            ("spurious_aborts", Json::UInt(self.run.spurious_aborts)),
            ("wall_seconds", Json::Num(self.run.seconds)),
            ("shards", Json::UInt(self.shards as u64)),
        ])
    }
}

/// The one per-batch loop of the gate runners: splits `ops` into hermetic
/// batches of [`GATE_BATCH_OPS`], gives each a skelly instantiated from
/// one shared spec under default noise (seeded `batch_seed(seed, i)`) and
/// an RNG seeded `batch_seed(seed ^ salt, i)`, and returns `work(skelly,
/// rng, batch_ops)` for every batch in batch order.
fn skelly_batches<R, F>(ops: u64, seed: u64, salt: u64, shards: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Skelly, &mut StdRng, u64) -> R + Sync,
{
    let spec = SkellySpec::new().expect("spec builds");
    let batches = ops.div_ceil(GATE_BATCH_OPS).max(1) as usize;
    ShardedExecutor::new(shards).run(batches, |i| {
        let n = GATE_BATCH_OPS.min(ops - i as u64 * GATE_BATCH_OPS);
        let mut sk = spec.instantiate(MachineConfig::default(), batch_seed(seed, i));
        let mut rng = StdRng::seed_from_u64(batch_seed(seed ^ salt, i));
        work(&mut sk, &mut rng, n)
    })
}

/// Executes `name` (by table name) `ops` times with random inputs on
/// default-noise skellies, fanned across `shards` threads in hermetic
/// batches, and reports accuracy, throughput and delay statistics — the
/// Table 2 / Table 5 / Table 8 measurement. Merged counts and delay
/// statistics are deterministic per `(name, ops, seed)` for every shard
/// count.
pub fn gate_performance_sharded(name: &str, ops: u64, seed: u64, shards: usize) -> ShardedGateRun {
    let start = Instant::now();
    let parts = skelly_batches(ops, seed, 0xBEEF, shards, |sk, rng, batch_ops| {
        let mut inputs = vec![false; sk.arity_named(name)];
        let aborts_before = sk.machine().stats().tx_spurious_aborts;
        let cycles_before = sk.machine().cycles();
        let mut correct = 0u64;
        let mut delays = Vec::with_capacity(batch_ops as usize);
        for _ in 0..batch_ops {
            for b in &mut inputs {
                *b = rng.gen();
            }
            let r = sk.execute_named(name, &inputs).expect("arity matches");
            if r.bit == sk.truth_named(name, &inputs) {
                correct += 1;
            }
            delays.push(r.delay);
        }
        let run = GateRun {
            ops: batch_ops,
            correct,
            sim_cycles: sk.machine().cycles() - cycles_before,
            spurious_aborts: sk.machine().stats().tx_spurious_aborts - aborts_before,
            ..GateRun::default()
        };
        (run, delays)
    });
    let mut run = GateRun {
        seconds: start.elapsed().as_secs_f64(),
        ..GateRun::default()
    };
    let mut delays = Vec::with_capacity(ops as usize);
    for (p, batch_delays) in &parts {
        run.ops += p.ops;
        run.correct += p.correct;
        run.sim_cycles += p.sim_cycles;
        run.spurious_aborts += p.spurious_aborts;
        delays.extend_from_slice(batch_delays);
    }
    let delays = if delays.is_empty() {
        Summary::from_samples(&[0])
    } else {
        Summary::from_samples(&delays)
    };
    ShardedGateRun {
        run,
        shards: ShardedExecutor::new(shards).shards(),
        delays,
    }
}

/// Collects one delay sample per operation from `sample`, fanning
/// hermetic batches across `shards` threads. Each batch gets a fresh
/// skelly (instantiated from one shared spec) and a seeded RNG; results
/// concatenate in batch order, so the full vector is deterministic per
/// seed for every shard count.
pub fn sharded_delays<F>(ops: u64, seed: u64, shards: usize, sample: F) -> Vec<u64>
where
    F: Fn(&mut Skelly, &mut StdRng) -> u64 + Sync,
{
    skelly_batches(ops, seed, 0xF00D, shards, |sk, rng, n| {
        (0..n).map(|_| sample(sk, rng)).collect::<Vec<u64>>()
    })
    .concat()
}

/// Runs `batches` hermetic skelly workloads across `shards` threads and
/// merges their counter banks in batch order — the determinism-test
/// entry point: merged counters are identical for every shard count.
pub fn sharded_counters<F>(
    batches: usize,
    cfg: MachineConfig,
    seed: u64,
    shards: usize,
    work: F,
) -> CounterBank
where
    F: Fn(&mut Skelly, usize) + Sync,
{
    let spec = SkellySpec::new().expect("spec builds");
    let banks = ShardedExecutor::new(shards).run(batches, |i| {
        let mut sk = spec.instantiate(cfg.clone(), batch_seed(seed, i));
        work(&mut sk, i);
        sk.counters().clone()
    });
    let mut merged = CounterBank::new();
    for bank in &banks {
        merged.merge(bank);
    }
    merged
}

/// Buckets `delays` for the Figure 7–8 "KDE" view: returns
/// `(bucket_start, count)` pairs with the given bucket width.
pub fn delay_histogram(delays: &[u64], bucket: u64) -> Vec<(u64, u64)> {
    let mut map = std::collections::BTreeMap::new();
    for &d in delays {
        *map.entry(d / bucket * bucket).or_insert(0u64) += 1;
    }
    map.into_iter().collect()
}

/// Runs `experiments` arm-and-trigger experiments fanned across `shards`
/// threads and returns the number of pings each needed before the payload
/// fired (Table 3 / Figure 6). `cap` bounds each experiment so
/// pathological noise cannot hang it. Experiments are hermetic by
/// construction (each builds its own machine from `seed + index`), so the
/// counts are identical for every shard count.
pub fn trigger_distribution_sharded(
    experiments: u32,
    cap: u32,
    seed: u64,
    shards: usize,
) -> Vec<u32> {
    ShardedExecutor::new(shards).run(experiments as usize, |e| {
        let (mut apt, trigger) =
            WmApt::new(seed.wrapping_add(e as u64), Payload::ReverseShell).expect("apt builds");
        let mut pings = 0u32;
        loop {
            pings += 1;
            if apt.ping(&trigger).triggered || pings >= cap {
                break;
            }
        }
        pings
    })
}

/// Result of one SHA-1-on-μWM experiment run (Table 4).
#[derive(Debug, Clone)]
pub struct Sha1Experiment {
    /// Digest produced by the weird machine.
    pub digest: [u8; 20],
    /// Whether it matches the architectural reference.
    pub correct: bool,
    /// Host seconds for the hash.
    pub seconds: f64,
    /// Per-gate counters accumulated during the run.
    pub counters: Vec<(&'static str, GateCounters)>,
}

/// Hashes `message` on weird gates of a `cfg` machine with the given
/// redundancy, and reports per-gate median/vote correctness — the Table 4
/// experiment.
pub fn sha1_experiment_cfg(
    cfg: MachineConfig,
    message: &[u8],
    red: Redundancy,
    seed: u64,
) -> Sha1Experiment {
    let mut sk = Skelly::new(cfg, seed).expect("skelly builds");
    sk.set_redundancy(red);
    let start = Instant::now();
    let digest = UwmSha1::new(&mut sk).hash(message);
    let seconds = start.elapsed().as_secs_f64();
    Sha1Experiment {
        digest,
        correct: digest == sha1(message),
        seconds,
        counters: sk.counters().iter().map(|(n, c)| (n, *c)).collect(),
    }
}

/// Independent default-noise [`sha1_experiment_cfg`] runs (seeds
/// `seed..seed+runs`) fanned across `shards` threads, returned in run
/// order.
pub fn sha1_experiments_sharded(
    message: &[u8],
    red: Redundancy,
    seed: u64,
    runs: u32,
    shards: usize,
) -> Vec<Sha1Experiment> {
    ShardedExecutor::new(shards).run(runs as usize, |r| {
        sha1_experiment_cfg(
            MachineConfig::default(),
            message,
            red,
            seed.wrapping_add(r as u64),
        )
    })
}

/// Formats a [`Summary`] like the paper's Min/Q1/Med/Q3/Max/σ rows.
pub fn summary_row(label: &str, s: &Summary) -> String {
    format!(
        "{label:<12} {:>6} {:>6} {:>6} {:>6} {:>8} {:>12.4} {:>12.4}",
        s.min, s.q1, s.median, s.q3, s.max, s.std_dev, s.mean
    )
}

/// Header matching [`summary_row`].
pub fn summary_header(first_col: &str) -> String {
    format!(
        "{first_col:<12} {:>6} {:>6} {:>6} {:>6} {:>8} {:>12} {:>12}",
        "Min", "Q1", "Med", "Q3", "Max", "StdDev", "Mean"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<BenchArgs, String> {
        parse(list.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn gate_run_counts_and_times() {
        let r = gate_performance_sharded("TSX_AND", 50, 1, 1);
        assert_eq!(r.run.ops, 50);
        assert!(r.run.correct <= r.run.ops);
        assert!(r.run.accuracy() > 0.9, "accuracy {}", r.run.accuracy());
        assert!(r.run.sim_cycles > 0);
        assert!(r.delays.max >= r.delays.median && r.delays.median > 0);
        assert_eq!(r.shards, 1);
    }

    #[test]
    fn delay_histogram_buckets() {
        let h = delay_histogram(&[1, 2, 3, 100, 101, 250], 50);
        assert_eq!(h, vec![(0, 3), (100, 2), (250, 1)]);
    }

    #[test]
    fn trigger_distribution_quiet_cap() {
        let counts = trigger_distribution_sharded(2, 50, 1000, 2);
        assert_eq!(counts.len(), 2);
        assert!(counts.iter().all(|&c| (1..=50).contains(&c)));
    }

    #[test]
    fn trigger_distribution_is_shard_count_invariant() {
        assert_eq!(
            trigger_distribution_sharded(3, 20, 7, 1),
            trigger_distribution_sharded(3, 20, 7, 3)
        );
    }

    #[test]
    fn scaled_floors_at_one() {
        assert_eq!(scaled(1_000_000, 0.000_000_1), 1);
        assert_eq!(scaled(100, 0.5), 50);
    }

    #[test]
    fn sha1_experiment_small_quick() {
        // One-block message, quiet machine: fast smoke test of the runner.
        let r = sha1_experiment_cfg(MachineConfig::quiet(), b"a", Redundancy::default(), 4);
        assert!(r.correct);
        assert!(r.counters.iter().any(|(n, _)| *n == "NAND"));
    }

    #[test]
    fn sha1_experiments_are_shard_count_invariant() {
        let runs = |shards| sha1_experiments_sharded(b"a", Redundancy::default(), 9, 3, shards);
        let (one, three) = (runs(1), runs(3));
        assert_eq!(one.len(), 3);
        for (a, b) in one.iter().zip(&three) {
            assert_eq!((a.digest, a.correct), (b.digest, b.correct));
            assert_eq!(a.counters, b.counters);
        }
    }

    #[test]
    fn parse_defaults() {
        let a = args(&[]).unwrap();
        assert_eq!((a.scale, a.shards), (1.0, 1));
        assert!(a.json.is_none() && a.baseline.is_none() && a.check_regression.is_none());
    }

    #[test]
    fn parse_accepts_both_flag_spellings() {
        for list in [
            &[
                "0.5",
                "--shards",
                "3",
                "--json",
                "r.json",
                "--baseline",
                "b.json",
                "--check-regression",
                "0.2",
            ][..],
            &[
                "--shards=3",
                "--json=r.json",
                "--baseline=b.json",
                "--check-regression=0.2",
                "0.5",
            ][..],
        ] {
            let a = args(list).unwrap();
            assert_eq!((a.scale, a.shards), (0.5, 3), "{list:?}");
            assert_eq!(a.json.as_deref(), Some("r.json".as_ref()));
            assert_eq!(a.baseline.as_deref(), Some("b.json".as_ref()));
            assert_eq!(a.check_regression, Some(0.2));
        }
        assert_eq!(args(&["--shards", "0"]).unwrap().shards, 1, "clamped");
    }

    #[test]
    fn parse_rejects_malformed_arguments() {
        for flag in ["--shards", "--json", "--baseline", "--check-regression"] {
            let err = args(&[flag]).unwrap_err();
            assert!(err.contains("takes a value"), "{flag}: {err}");
        }
        assert!(args(&["--shards", "two"]).is_err());
        assert!(args(&["--check-regression=x"]).is_err());
        assert!(args(&["--verbose"]).unwrap_err().contains("unrecognized"));
        assert!(args(&["fast"]).unwrap_err().contains("unrecognized"));
    }

    #[test]
    fn parse_rejects_bad_scales() {
        for bad in ["inf", "-inf", "nan", "-1", "0", "1e400"] {
            let err = args(&[bad]).unwrap_err();
            assert!(err.contains("finite and positive"), "{bad}: {err}");
        }
    }
}
