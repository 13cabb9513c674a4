//! Figures 7 and 8: measured-timing distributions ("KDEs") of the BP/IC
//! AND and OR gates, showing the logic-level boundary between hit-like
//! and miss-like output reads.
//!
//! Usage: `cargo run --release -p uwm-bench --bin fig7_fig8 -- [scale] [--shards N] [--json PATH]`

use uwm_bench::json::Json;
use uwm_bench::{delay_histogram, maybe_write_json, parse_args, scaled, sharded_delays};
use uwm_core::exec::batch_seed;
use uwm_core::skelly::Skelly;
use uwm_rng::Rng;

fn main() {
    let args = parse_args();
    let samples = scaled(20_000, args.scale);
    // The threshold the first batch's skelly calibrates (every batch
    // calibrates its own; they differ by a cycle or two).
    let boundary = Skelly::noisy(batch_seed(0xF7, 0))
        .expect("skelly builds")
        .threshold();
    let mut figures = Vec::new();
    for (fig, gate) in [("Figure 7", "AND"), ("Figure 8", "OR")] {
        let delays = sharded_delays(samples, 0xF7, args.shards, |sk, rng| {
            let inputs = [rng.gen::<bool>(), rng.gen::<bool>()];
            sk.execute_named(gate, &inputs).expect("arity").delay
        });
        println!("{fig}: bp/icache {gate} gate — measured timing distribution");
        println!(
            "({samples} samples, {} shard(s); calibrated logic boundary at {boundary} cycles)\n",
            args.shards
        );
        println!("{:>10} {:>10}", "delay", "count");
        let histogram = delay_histogram(&delays, 8);
        let peak = histogram.iter().map(|&(_, c)| c).max().unwrap_or(1);
        for &(bucket, count) in &histogram {
            if bucket > 400 {
                // Collapse the interrupt-spike tail into one line.
                let tail: u64 = delays.iter().filter(|&&d| d > 400).count() as u64;
                println!("{:>10} {:>10}   (interrupt-spike tail)", ">400", tail);
                break;
            }
            let bar = "#".repeat((count * 50 / peak) as usize);
            let marker = if bucket <= boundary && bucket + 8 > boundary {
                "  <-- logic boundary"
            } else {
                ""
            };
            println!("{bucket:>10} {count:>10} {bar}{marker}");
        }
        println!();
        figures.push(Json::obj([
            ("figure", Json::Str(fig.to_owned())),
            ("gate", Json::Str(gate.to_owned())),
            ("samples", Json::UInt(samples)),
            ("shards", Json::UInt(args.shards as u64)),
            (
                "histogram",
                Json::Arr(
                    histogram
                        .iter()
                        .map(|&(b, c)| Json::Arr(vec![Json::UInt(b), Json::UInt(c)]))
                        .collect(),
                ),
            ),
        ]));
    }
    maybe_write_json(
        &args,
        &Json::obj([
            ("table", Json::Str("fig7_fig8".into())),
            ("figures", Json::Arr(figures)),
        ]),
    );
    println!("Expected shape (paper): two clusters — logic-1 reads near the");
    println!("L1 latency, logic-0 reads near the DRAM latency — separated by");
    println!("the threshold, with a sparse heavy tail from interrupts.");
}
