//! Snapshot/restore round-trip properties on random machine states.
//!
//! `Machine::restore_from` copies back only the cache sets marked dirty
//! when the machine was last restored from the same snapshot, and copies
//! everything otherwise. These seeded loops drive random host operations
//! and random programs (loads, stores, flushes, mispredicted branches,
//! faulting transactions, self-modifying code) between restores and check
//! two things after every restore:
//!
//! * the full state equals the snapshot's: cache tags, LRU/PLRU/random
//!   replacement state and hit/miss counts, predictor, BTB, predecode
//!   cache, memory, program, clock, noise RNG and statistics;
//! * the next [`OBSERVABLES`] observables equal those of a fresh clone of
//!   the snapshot.

use uwm_rng::rngs::StdRng;
use uwm_rng::{Rng, SeedableRng};
use uwm_sim::cache::{CacheConfig, LINE_SIZE};
use uwm_sim::isa::{AluOp, Assembler, Inst, Operand, Program};
use uwm_sim::machine::{Machine, MachineConfig, MachineSnapshot, MachineStats, RunOutcome};
use uwm_sim::replacement::Policy;

/// Observables compared against a fresh clone after a restore.
const OBSERVABLES: usize = 1_000;

const CODE_BASE: u64 = 0x1000;
const DATA_BASE: u64 = 0x10_0000;
/// Lines this far apart share an L3 set (4096 sets of 64 B), so the pool
/// below forces evictions at every level.
const L3_ALIAS: u64 = 4096 * LINE_SIZE;
/// Dynamically written code: decoded from memory, not the program.
const DYN_CODE: u64 = 0x30_0000;
/// Branch conditions the random program reads.
const COND_BASE: u64 = 0x20_0000;

/// A data address from a pool of 64 line offsets × 24 L3-aliased rows.
fn data_addr(rng: &mut StdRng) -> u64 {
    DATA_BASE + rng.gen_range(0..64u64) * LINE_SIZE + rng.gen_range(0..24u64) * L3_ALIAS
}

fn cond_addr(rng: &mut StdRng) -> u64 {
    COND_BASE + rng.gen_range(0..8u64) * LINE_SIZE
}

fn reg(rng: &mut StdRng) -> u8 {
    rng.gen_range(1..8u8)
}

/// A random straight-line program with forward branches, a faulting
/// transaction, multiplies and a jump into dynamically written code,
/// which jumps back to `ret`.
fn random_program(rng: &mut StdRng) -> Program {
    let mut a = Assembler::new(CODE_BASE);
    for i in 0..rng.gen_range(8..40) {
        match rng.gen_range(0..10) {
            0 => {
                a.push(Inst::Load {
                    dst: reg(rng),
                    addr: data_addr(rng) as u32,
                });
            }
            1 => {
                a.push(Inst::Store {
                    addr: data_addr(rng) as u32,
                    src: reg(rng),
                });
            }
            2 => {
                a.push(Inst::Flush {
                    addr: data_addr(rng) as u32,
                });
            }
            3 => {
                let skip = format!("skip{i}");
                a.brz(cond_addr(rng) as u32, &skip);
                a.push(Inst::Load {
                    dst: reg(rng),
                    addr: data_addr(rng) as u32,
                });
                a.label(&skip).unwrap();
            }
            4 => {
                let handler = format!("handler{i}");
                a.xbegin(&handler);
                a.push(Inst::Store {
                    addr: data_addr(rng) as u32,
                    src: reg(rng),
                });
                if rng.gen_bool(0.7) {
                    a.push(Inst::Div {
                        dst: 9,
                        a: 9,
                        b: Operand::Imm(0),
                    });
                }
                a.push(Inst::Load {
                    dst: reg(rng),
                    addr: data_addr(rng) as u32,
                });
                a.push(Inst::Xend);
                a.label(&handler).unwrap();
            }
            5 => {
                a.push(Inst::Mul {
                    dst: reg(rng),
                    a: reg(rng),
                    b: Operand::Reg(reg(rng)),
                });
            }
            6 => {
                a.push(Inst::Alu {
                    op: AluOp::Add,
                    dst: reg(rng),
                    a: reg(rng),
                    b: Operand::Imm(rng.gen_range(0..1000u32)),
                });
            }
            7 => {
                a.push(Inst::Rdtscp { dst: reg(rng) });
            }
            8 => {
                a.push(Inst::TouchCode {
                    addr: (DYN_CODE + rng.gen_range(0..4u64) * LINE_SIZE) as u32,
                });
            }
            _ => {
                a.push(Inst::Vmx);
            }
        }
    }
    a.push(Inst::Jmp {
        target: DYN_CODE as u32,
    });
    a.label("ret").unwrap();
    a.push(Inst::Halt);
    a.finish().unwrap()
}

/// Writes `[mov r6, imm; store r6 -> data; jmp ret]` at [`DYN_CODE`] from
/// the host side.
fn write_dynamic_code(m: &mut Machine, imm: u32, store_to: u64) {
    let ret = m
        .program()
        .iter()
        .find(|&(_, i)| i == Inst::Halt)
        .map(|(pc, _)| pc)
        .expect("program ends in halt");
    let code = [
        Inst::Mov {
            dst: 6,
            src: Operand::Imm(imm),
        },
        Inst::Store {
            addr: store_to as u32,
            src: 6,
        },
        Inst::Jmp { target: ret as u32 },
    ];
    for (k, inst) in code.iter().enumerate() {
        m.mem_mut()
            .write_bytes(DYN_CODE + 8 * k as u64, &inst.encode());
    }
}

/// One random host operation; returns what it let the host observe.
fn random_op(m: &mut Machine, rng: &mut StdRng) -> u64 {
    let observed = match rng.gen_range(0..12) {
        0 | 1 => m.timed_read(data_addr(rng)),
        2 => {
            m.flush_addr(data_addr(rng));
            0
        }
        3 => {
            let v = rng.gen_range(0..2u64);
            m.mem_mut().write_u64(cond_addr(rng), v);
            0
        }
        4 => {
            m.reset_ma();
            0
        }
        5..=7 => match m.run_at(CODE_BASE) {
            RunOutcome::Halted => m.reg(rng.gen_range(0..8u8)),
            RunOutcome::Fault { pc, .. } => pc ^ 0xFA17,
            RunOutcome::StepLimit => 0x5739,
        },
        8 => {
            let imm = rng.gen_range(0..1_000_000u32);
            let to = data_addr(rng);
            write_dynamic_code(m, imm, to);
            0
        }
        9 => {
            m.touch_code(CODE_BASE + rng.gen_range(0..32u64) * 8);
            0
        }
        10 => {
            m.idle(rng.gen_range(0..5_000u64));
            0
        }
        _ => {
            let r = reg(rng);
            m.set_reg(r, rng.gen());
            0
        }
    };
    observed ^ m.cycles().rotate_left(17)
}

/// The random operations' observables from `rng`'s stream.
fn observe(m: &mut Machine, rng_seed: u64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    (0..n).map(|_| random_op(m, &mut rng)).collect()
}

fn work(m: &mut Machine, rng: &mut StdRng, max_ops: usize) {
    for _ in 0..rng.gen_range(0..max_ops) {
        random_op(m, rng);
    }
}

/// Default noise; odd seeds use a random-replacement L2 so the per-set
/// xorshift state is covered too.
fn machine(seed: u64) -> Machine {
    let mut cfg = MachineConfig::default();
    if seed % 2 == 1 {
        cfg.hierarchy.l2 = CacheConfig {
            policy: Policy::Random,
            ..CacheConfig::l2()
        };
    }
    let mut m = Machine::new(cfg, seed);
    m.set_step_limit(20_000);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    m.load_program(random_program(&mut rng));
    write_dynamic_code(&mut m, 7, DATA_BASE);
    m
}

/// Full-state equality, checked part by part so a failure names the part.
fn assert_restored(m: &Machine, snap: &MachineSnapshot, ctx: &str) {
    assert!(
        m.hierarchy() == snap.hierarchy(),
        "{ctx}: cache tags, replacement state or hit/miss counts differ"
    );
    assert!(
        m.predictor() == snap.predictor(),
        "{ctx}: predictor differs"
    );
    assert!(m.mem() == snap.mem(), "{ctx}: memory differs");
    assert!(
        m.program().shares_image(snap.program()),
        "{ctx}: program image not shared with the snapshot"
    );
    assert_eq!(m.cycles(), snap.cycles(), "{ctx}: clock");
    assert_eq!(m.stats(), snap.stats(), "{ctx}: statistics");
    assert!(
        *m == **snap,
        "{ctx}: BTB, predecode cache, noise RNG, contention or trace differ"
    );
    assert_eq!(m.hierarchy().dirty_sets(), 0, "{ctx}: dirty marks left");
}

/// The restored machine and a fresh clone of the snapshot agree on the
/// next [`OBSERVABLES`] observables, then on the whole state.
fn assert_replays_like_fresh(m: &mut Machine, snap: &MachineSnapshot, stream: u64, ctx: &str) {
    let mut fresh = Machine::clone(snap);
    let got = observe(m, stream, OBSERVABLES);
    let want = observe(&mut fresh, stream, OBSERVABLES);
    let first_diff = got.iter().zip(&want).position(|(g, w)| g != w);
    assert_eq!(first_diff, None, "{ctx}: observables diverge");
    assert!(*m == fresh, "{ctx}: state diverges after replay");
}

#[test]
fn restore_after_random_work_equals_the_snapshot() {
    let mut reached = MachineStats::default();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = machine(seed);
        work(&mut m, &mut rng, 300);
        let s = m.stats();
        reached.speculative_insts += s.speculative_insts;
        reached.mispredicts += s.mispredicts;
        reached.tx_aborted += s.tx_aborted;
        let snap = m.snapshot();
        // Round 0 is the lineage fallback (a full copy); later rounds
        // restore dirty sets only.
        for round in 0..6 {
            work(&mut m, &mut rng, 300);
            m.restore_from(&snap);
            assert_restored(&m, &snap, &format!("seed {seed} round {round}"));
        }
        assert_replays_like_fresh(&mut m, &snap, seed ^ 0xABCD, &format!("seed {seed}"));
        m.restore_from(&snap);
        assert_restored(&m, &snap, &format!("seed {seed} after replay"));
    }
    // The random work reaches speculation and transaction aborts.
    assert!(reached.speculative_insts > 0 && reached.mispredicts > 0 && reached.tx_aborted > 0);
}

/// One operation between two restores: a lone flush, read or run must
/// be undone even when nothing else touched its cache set.
#[test]
fn lone_operations_after_a_restore_are_undone() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let mut m = machine(seed);
        work(&mut m, &mut rng, 300);
        let snap = m.snapshot();
        m.restore_from(&snap);
        for op in 0..300 {
            random_op(&mut m, &mut rng);
            m.restore_from(&snap);
            assert_restored(&m, &snap, &format!("seed {seed} op {op}"));
        }
    }
}

#[test]
fn alternating_snapshots_restore_exactly() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let mut m = machine(seed);
        work(&mut m, &mut rng, 200);
        let a = m.snapshot();
        work(&mut m, &mut rng, 200);
        let b = m.snapshot();
        for round in 0..8 {
            // Same snapshot twice in a row, then switch: both the
            // dirty-set path and the lineage fallback run.
            let snap = if (round / 2) % 2 == 0 { &a } else { &b };
            work(&mut m, &mut rng, 200);
            m.restore_from(snap);
            assert_restored(&m, snap, &format!("seed {seed} round {round}"));
        }
        m.restore_from(&a);
        assert_replays_like_fresh(&mut m, &a, seed, &format!("seed {seed} a"));
        m.restore_from(&b);
        assert_replays_like_fresh(&mut m, &b, seed, &format!("seed {seed} b"));
    }
}

#[test]
fn restore_after_reset_ma_equals_the_snapshot() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut m = machine(7);
    work(&mut m, &mut rng, 300);
    let snap = m.snapshot();
    m.restore_from(&snap);
    // Flushing everything marks every set dirty.
    m.reset_ma();
    assert!(m.hierarchy().dirty_sets() > 4096);
    m.restore_from(&snap);
    assert_restored(&m, &snap, "after reset_ma");
    assert_replays_like_fresh(&mut m, &snap, 7, "after reset_ma");
}

/// Code written by a store in simulated memory is decoded into dynamic
/// predecode slots. Restore must bring back both the old code bytes and
/// the slots decoded from them.
#[test]
fn smc_dynamic_slots_restore_exactly() {
    let out = DATA_BASE;
    let mut m = Machine::new(MachineConfig::default(), 3);
    let mut a = Assembler::new(CODE_BASE);
    a.push(Inst::Jmp {
        target: DYN_CODE as u32,
    });
    a.label("ret").unwrap();
    a.push(Inst::Halt);
    // An SMC routine: build the encoding of `mov r6, 99` in r1 and store
    // it over the first dynamic instruction.
    let patched = u64::from_le_bytes(
        Inst::Mov {
            dst: 6,
            src: Operand::Imm(99),
        }
        .encode(),
    );
    let ret = a.resolve("ret").unwrap();
    let smc = a.pc();
    a.push(Inst::Mov {
        dst: 1,
        src: Operand::Imm((patched >> 32) as u32),
    });
    a.push(Inst::Alu {
        op: AluOp::Shl,
        dst: 1,
        a: 1,
        b: Operand::Imm(32),
    });
    a.push(Inst::Alu {
        op: AluOp::Or,
        dst: 1,
        a: 1,
        b: Operand::Imm(patched as u32),
    });
    a.push(Inst::Store {
        addr: DYN_CODE as u32,
        src: 1,
    });
    a.push(Inst::Halt);
    m.load_program(a.finish().unwrap());
    write_dynamic_code(&mut m, 5, out);

    // Restored right after the first decode of the dynamic code: the
    // slots it installed must go.
    let cold = m.snapshot();
    m.restore_from(&cold);
    assert_eq!(m.run_at(CODE_BASE), RunOutcome::Halted);
    m.restore_from(&cold);
    assert_restored(&m, &cold, "first decode");

    assert_eq!(m.run_at(CODE_BASE), RunOutcome::Halted);
    assert_eq!(m.mem().read_u64(out), 5, "dynamic code ran");
    let snap = m.snapshot();
    m.restore_from(&snap);
    for round in 0..3 {
        // The patching store alone invalidates the decoded slot.
        assert_eq!(m.run_at(smc), RunOutcome::Halted);
        m.restore_from(&snap);
        assert_restored(&m, &snap, &format!("smc store, round {round}"));
        // A host write drops every decoded slot at the next fetch.
        m.mem_mut().write_u64(out + 8, 1);
        assert_eq!(m.run_at(ret), RunOutcome::Halted);
        m.restore_from(&snap);
        assert_restored(&m, &snap, &format!("host write, round {round}"));
        // Patch, then run the patched code: its slot is re-decoded.
        assert_eq!(m.run_at(smc), RunOutcome::Halted);
        assert_eq!(m.run_at(CODE_BASE), RunOutcome::Halted);
        assert_eq!(m.mem().read_u64(out), 99, "patched code ran");
        m.restore_from(&snap);
        assert_restored(&m, &snap, &format!("smc run, round {round}"));
        assert_eq!(m.run_at(CODE_BASE), RunOutcome::Halted);
        assert_eq!(m.mem().read_u64(out), 5, "original code is back");
        m.restore_from(&snap);
    }
    assert_replays_like_fresh(&mut m, &snap, 3, "smc");
}

/// A snapshot of a machine with another cache geometry and policy: the
/// first restore must take the other machine's whole state.
#[test]
fn restore_across_configurations() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut other = machine(1);
    work(&mut other, &mut rng, 300);
    let snap = other.snapshot();
    let mut m = machine(0);
    work(&mut m, &mut rng, 300);
    m.restore_from(&snap);
    assert_restored(&m, &snap, "other configuration");
    assert_replays_like_fresh(&mut m, &snap, 9, "other configuration");
}

#[test]
fn program_changes_after_a_restore_are_undone() {
    let mut m = machine(5);
    let snap = m.snapshot();
    m.restore_from(&snap);
    m.load_program(Program::new());
    m.restore_from(&snap);
    assert_restored(&m, &snap, "empty program loaded");
    let mut extra = Assembler::new(0x8000);
    extra.push(Inst::Halt);
    m.add_program(extra.finish().unwrap());
    m.restore_from(&snap);
    assert_restored(&m, &snap, "code added");
    assert_replays_like_fresh(&mut m, &snap, 5, "program changes");
}

#[test]
fn snapshots_have_unique_ids_and_share_the_program() {
    let m = machine(1);
    let (a, b) = (m.snapshot(), m.snapshot());
    assert_ne!(a.id(), b.id());
    assert!(a.program().shares_image(m.program()));
    assert!(*a == m && *b == m);
}
