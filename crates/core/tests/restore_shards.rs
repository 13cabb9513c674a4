//! One machine snapshot shared by the machines of several executor shards.
//!
//! Each shard keeps its own machine and restores the *same* snapshot
//! before every item, so from its second item on a shard restores only
//! the cache sets its previous item dirtied. After every restore the
//! machine must equal the snapshot, and every item's readings, clock and
//! statistics must equal those of a fresh clone of the snapshot reseeded
//! the same way.

use uwm_core::circuit::{adder32_inputs, adder32_spec};
use uwm_core::exec::{batch_seed, ShardedExecutor};
use uwm_core::layout::Layout;
use uwm_core::substrate::DEFAULT_ALIAS_STRIDE;
use uwm_rng::rngs::StdRng;
use uwm_rng::{Rng, SeedableRng};
use uwm_sim::machine::{Machine, MachineConfig, MachineStats};

const SEED: u64 = 0x5A4D;
const ITEMS: usize = 48;

type Observed = (Vec<(bool, u64)>, u64, MachineStats);

#[test]
fn shards_share_one_snapshot_and_restore_it_exactly() {
    let mut lay = Layout::new(DEFAULT_ALIAS_STRIDE);
    let plan = adder32_spec(&mut lay).unwrap().compile();
    let mut m = Machine::new(MachineConfig::default(), SEED);
    let circuit = plan.instantiate(&mut m);
    let snap = m.snapshot();

    let mut rng = StdRng::seed_from_u64(SEED);
    let inputs: Vec<Vec<bool>> = (0..ITEMS)
        .map(|_| adder32_inputs(rng.gen(), rng.gen()))
        .collect();
    let run = |m: &mut Machine, i: usize| -> Observed {
        m.reseed_noise(batch_seed(SEED, i));
        let readings = circuit.run_timed(m, &inputs[i]).unwrap();
        (
            readings.iter().map(|r| (r.bit, r.delay)).collect(),
            m.cycles(),
            m.stats(),
        )
    };

    let pooled = ShardedExecutor::new(2).run_with(
        ITEMS,
        || Machine::clone(&snap),
        |i, m| {
            m.restore_from(&snap);
            assert!(*m == *snap, "item {i}: restored state differs");
            run(m, i)
        },
    );
    let fresh: Vec<Observed> = (0..ITEMS)
        .map(|i| run(&mut Machine::clone(&snap), i))
        .collect();
    assert_eq!(pooled, fresh);
}
