//! Differential check: `Machine` and `FlatEmulator` agree architecturally.
//!
//! The two backends are independent interpreters of one ISA. `Machine`
//! models caches, predictors, speculative windows and post-fault
//! transactional windows; `FlatEmulator` models none of it. Whatever the
//! microarchitecture does, it must never show in architectural state, so
//! on any program both backends must end with the same `RunOutcome`, the
//! same 16 registers and the same data words.
//!
//! The machine runs with quiet noise: a noise-injected spurious TSX abort
//! is a modelled nondeterminism that changes architectural state on
//! purpose, so it is outside what the two backends can agree on.

use uwm_core::substrate::{FlatEmulator, Substrate};
use uwm_rng::rngs::StdRng;
use uwm_rng::{Rng, SeedableRng};
use uwm_sim::cache::LINE_SIZE;
use uwm_sim::isa::{AluOp, Assembler, Inst, Operand, Program, NUM_REGS};
use uwm_sim::machine::{Machine, MachineConfig, RunOutcome};

/// Random programs compared.
const PROGRAMS: u64 = 256;
/// Runs of each program: later runs meet trained predictors and warm
/// caches, so the machine's speculative windows differ from the first.
const RUNS: usize = 3;

const CODE_BASE: u64 = 0x1000;
const DATA_BASE: u64 = 0x10_0000;
/// Lines this far apart share an L3 set (4096 sets of 64 B), so the pool
/// below forces evictions at every level.
const L3_ALIAS: u64 = 4096 * LINE_SIZE;
const DATA_LINES: u64 = 16;
const DATA_ROWS: u64 = 12;
/// Branch conditions the random program reads.
const COND_BASE: u64 = 0x20_0000;
const COND_LINES: u64 = 8;
/// Dynamically written code: decoded from memory, not the program.
const DYN_CODE: u64 = 0x30_0000;

fn data_addr(rng: &mut StdRng) -> u64 {
    DATA_BASE + rng.gen_range(0..DATA_LINES) * LINE_SIZE + rng.gen_range(0..DATA_ROWS) * L3_ALIAS
}

fn cond_addr(rng: &mut StdRng) -> u64 {
    COND_BASE + rng.gen_range(0..COND_LINES) * LINE_SIZE
}

/// Every data and condition word a random program can touch.
fn all_words() -> impl Iterator<Item = u64> {
    let data = (0..DATA_ROWS).flat_map(|row| {
        (0..DATA_LINES).map(move |line| DATA_BASE + line * LINE_SIZE + row * L3_ALIAS)
    });
    data.chain((0..COND_LINES).map(|line| COND_BASE + line * LINE_SIZE))
}

fn reg(rng: &mut StdRng) -> u8 {
    rng.gen_range(1..8u8)
}

/// A random program with the instruction mix of the restore property
/// tests: loads, stores, flushes, forward branches, transactions that
/// may fault on a division by zero, multiplies and ALU ops, then a jump
/// into dynamically written code that jumps back to a final `Halt`.
/// `rdtscp` is left out: it reads time, which is not architecture.
fn random_program(rng: &mut StdRng) -> Program {
    let mut a = Assembler::new(CODE_BASE);
    for i in 0..rng.gen_range(8..40) {
        match rng.gen_range(0..7) {
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
                a.push(Inst::Store {
                    addr: data_addr(rng) as u32,
                    src: reg(rng),
                });
                a.label(&skip).unwrap();
            }
            4 => {
                let handler = format!("handler{i}");
                a.xbegin(&handler);
                // A register write and a store before the fault, so an
                // abort has both kinds of state to roll back.
                a.push(Inst::Alu {
                    op: AluOp::Xor,
                    dst: reg(rng),
                    a: reg(rng),
                    b: Operand::Imm(rng.gen_range(1..1000u32)),
                });
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
            _ => {
                a.push(Inst::Alu {
                    op: AluOp::Add,
                    dst: reg(rng),
                    a: reg(rng),
                    b: Operand::Imm(rng.gen_range(0..1000u32)),
                });
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

/// `[mov r6, imm; store r6 -> data; jmp ret]` at [`DYN_CODE`], as words.
fn dynamic_code(program: &Program, rng: &mut StdRng) -> Vec<(u64, u64)> {
    let ret = program
        .iter()
        .find(|&(_, i)| i == Inst::Halt)
        .map(|(pc, _)| pc)
        .expect("program ends in halt");
    let code = [
        Inst::Mov {
            dst: 6,
            src: Operand::Imm(rng.gen_range(0..1000u32)),
        },
        Inst::Store {
            addr: data_addr(rng) as u32,
            src: 6,
        },
        Inst::Jmp { target: ret as u32 },
    ];
    code.iter()
        .enumerate()
        .map(|(k, inst)| (DYN_CODE + 8 * k as u64, u64::from_le_bytes(inst.encode())))
        .collect()
}

/// Architectural state both backends must agree on.
#[derive(Debug, PartialEq)]
struct ArchState {
    outcome: RunOutcome,
    regs: [u64; NUM_REGS],
    words: Vec<u64>,
}

fn observe(outcome: RunOutcome, s: &dyn Substrate, reg: impl Fn(u8) -> u64) -> ArchState {
    ArchState {
        outcome,
        regs: std::array::from_fn(|r| reg(r as u8)),
        words: all_words().map(|addr| s.read_word(addr)).collect(),
    }
}

/// A hand-written loop: a counter in memory decremented to zero by a
/// backward jump and a forward exit branch.
#[test]
fn counted_loop_agrees() {
    let mut a = Assembler::new(0);
    a.push(Inst::Mov {
        dst: 0,
        src: Operand::Imm(10),
    });
    a.push(Inst::Store {
        addr: 0x4000,
        src: 0,
    });
    a.label("loop").unwrap();
    a.push(Inst::Load {
        dst: 0,
        addr: 0x4000,
    });
    a.push(Inst::Alu {
        op: AluOp::Sub,
        dst: 0,
        a: 0,
        b: Operand::Imm(1),
    });
    a.push(Inst::Store {
        addr: 0x4000,
        src: 0,
    });
    a.push(Inst::Alu {
        op: AluOp::Add,
        dst: 5,
        a: 5,
        b: Operand::Imm(3),
    });
    a.brz(0x4000, "end");
    a.jmp("loop");
    a.label("end").unwrap();
    a.push(Inst::Halt);
    let program = a.finish().unwrap();

    let mut m = Machine::new(MachineConfig::quiet(), 1);
    let mut f = FlatEmulator::new();
    m.install_program(&program);
    f.install_program(&program);
    let om = m.run_at(0);
    let of = f.run_at(0);
    assert_eq!(om, RunOutcome::Halted);
    assert_eq!(om, of);
    for r in 0..NUM_REGS as u8 {
        assert_eq!(m.reg(r), f.reg(r), "register {r}");
    }
    assert_eq!(m.reg(5), 30);
    assert_eq!(m.read_word(0x4000), f.read_word(0x4000));
}

#[test]
fn random_programs_agree() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let (mut speculated, mut aborted) = (0, 0);
    for p in 0..PROGRAMS {
        let program = random_program(&mut rng);
        let dyn_code = dynamic_code(&program, &mut rng);
        let mut m = Machine::new(MachineConfig::quiet(), p);
        let mut f = FlatEmulator::new();

        // The same architectural start on both; the machine additionally
        // gets a random cache footprint, so loads, branch conditions and
        // transaction bodies race windows of varying length.
        for r in 0..NUM_REGS as u8 {
            let v = if rng.gen_bool(0.5) {
                rng.gen_range(0..4u64)
            } else {
                rng.gen()
            };
            m.set_reg(r, v);
            f.set_reg(r, v);
        }
        for addr in all_words() {
            let v = rng.gen_range(0..3u64);
            m.write_word(addr, v);
            f.write_word(addr, v);
        }
        for &(addr, word) in &dyn_code {
            m.write_word(addr, word);
            f.write_word(addr, word);
        }
        for _ in 0..rng.gen_range(0..32) {
            let addr = if rng.gen_bool(0.5) {
                data_addr(&mut rng)
            } else {
                cond_addr(&mut rng)
            };
            m.timed_read(addr);
        }
        m.install_program(&program);
        f.install_program(&program);

        for run in 0..RUNS {
            let om = m.run_at(CODE_BASE);
            let of = f.run_at(CODE_BASE);
            let sm = observe(om, &m, |r| m.reg(r));
            let sf = observe(of, &f, |r| f.reg(r));
            assert_eq!(sm, sf, "program {p}, run {run}");
            // Flip some branch conditions so the next run takes other
            // paths against a predictor trained on this one.
            for _ in 0..rng.gen_range(0..4) {
                let addr = cond_addr(&mut rng);
                let v = rng.gen_range(0..2u64);
                m.write_word(addr, v);
                f.write_word(addr, v);
            }
        }
        speculated += m.stats().speculative_insts;
        aborted += m.stats().tx_aborted;
    }
    // The agreement is not vacuous: the machine ran wrong-path and
    // post-fault windows the emulator has no notion of.
    assert!(speculated > 0, "no speculative instruction ran");
    assert!(aborted > 0, "no transaction aborted");
}
