//! Edge-case integration tests for the simulated machine: speculation
//! bounds, transaction misuse, BTB timing, contention observability, and
//! decode strictness — the behaviours weird machines lean on hardest.

use uwm_sim::isa::{Assembler, Inst, Operand, INST_SIZE};
use uwm_sim::machine::{FaultCause, Machine, MachineConfig, RunOutcome};

fn quiet() -> Machine {
    Machine::new(MachineConfig::quiet(), 0)
}

/// A speculative wrong path that loops forever is bounded by the
/// instruction cap, not the window length.
#[test]
fn speculative_infinite_loop_is_bounded() {
    let mut m = quiet();
    m.mem_mut().write_u64(0x4000, 0); // branch actually taken
    let mut a = Assembler::new(0);
    a.brz(0x4000, "skip");
    a.label("spin").unwrap();
    a.jmp("spin"); // wrong path: tight infinite loop (zero-latency jumps)
    a.label("skip").unwrap();
    a.push(Inst::Halt);
    m.load_program(a.finish().unwrap());

    // Mistrain toward fall-through so the wrong path executes.
    let alias = m.predictor().alias_stride();
    let mut t = Assembler::new(alias);
    t.push(Inst::Brz {
        cond_addr: 0x4100,
        rel: 0,
    });
    t.push(Inst::Halt);
    m.add_program(&t.finish().unwrap());
    m.mem_mut().write_u64(0x4100, 1);
    for _ in 0..4 {
        m.run_at(alias);
    }
    m.flush_addr(0x4000);
    assert_eq!(
        m.run_at(0),
        RunOutcome::Halted,
        "speculation must terminate"
    );
    let stats = m.stats();
    assert!(stats.speculative_insts <= uwm_sim::machine::MAX_SPEC_INSTS as u64 + 4);
}

/// Nested `xbegin` is transaction misuse and aborts to the outer handler.
#[test]
fn nested_xbegin_aborts() {
    let mut m = quiet();
    let mut a = Assembler::new(0);
    a.xbegin("handler");
    a.push(Inst::Xbegin { handler: 0 }); // nested → fault → abort
    a.push(Inst::Xend);
    a.push(Inst::Halt);
    a.label("handler").unwrap();
    a.push(Inst::Mov {
        dst: 7,
        src: Operand::Imm(1),
    });
    a.push(Inst::Halt);
    m.load_program(a.finish().unwrap());
    assert_eq!(m.run_at(0), RunOutcome::Halted);
    assert_eq!(m.reg(7), 1, "outer abort handler must run");
    assert_eq!(m.stats().tx_aborted, 1);
}

/// A committed transaction's stores persist; an aborted one's do not —
/// side by side on the same machine.
#[test]
fn committed_vs_aborted_stores() {
    let mut m = quiet();
    let mut a = Assembler::new(0);
    // Committed transaction.
    a.xbegin("h1");
    a.push(Inst::Mov {
        dst: 0,
        src: Operand::Imm(11),
    });
    a.push(Inst::Store {
        addr: 0x4000,
        src: 0,
    });
    a.push(Inst::Xend);
    a.label("h1").unwrap();
    // Aborted transaction.
    a.xbegin("h2");
    a.push(Inst::Mov {
        dst: 0,
        src: Operand::Imm(22),
    });
    a.push(Inst::Store {
        addr: 0x4008,
        src: 0,
    });
    a.push(Inst::Div {
        dst: 1,
        a: 1,
        b: Operand::Imm(0),
    });
    a.push(Inst::Xend);
    a.label("h2").unwrap();
    a.push(Inst::Halt);
    m.load_program(a.finish().unwrap());
    assert_eq!(m.run_at(0), RunOutcome::Halted);
    assert_eq!(m.mem().read_u64(0x4000), 11);
    assert_eq!(m.mem().read_u64(0x4008), 0);
}

/// BTB timing: a jump to a remembered target is measurably faster than a
/// jump whose BTB entry points elsewhere — the BTB-WR read primitive.
#[test]
fn btb_hit_vs_wrong_target_timing() {
    let mut m = quiet();
    let jmp_pc = 0u64;
    let mut a = Assembler::new(jmp_pc);
    a.push(Inst::JmpInd { base: 10 });
    let mut p = a.finish().unwrap();
    // Two landing pads.
    p.put(0x400, Inst::Halt);
    p.put(0x800, Inst::Halt);
    m.load_program(p);
    m.warm_code_range(0, 8);
    m.warm_code_range(0x400, 0x408);
    m.warm_code_range(0x800, 0x808);

    // Prime the BTB toward 0x400.
    m.set_reg(10, 0x400);
    m.run_at(jmp_pc);
    let t0 = m.cycles();
    m.run_at(jmp_pc); // predicted correctly
    let hit_cost = m.cycles() - t0;

    m.set_reg(10, 0x800);
    let t1 = m.cycles();
    m.run_at(jmp_pc); // BTB holds 0x400 → bubble
    let miss_cost = m.cycles() - t1;
    assert!(
        miss_cost > hit_cost,
        "wrong BTB target must cost extra (hit {hit_cost}, miss {miss_cost})"
    );
}

/// The Fence instruction exposes ROB pressure built by cache-missing
/// loads — the ROB-WR mechanism, at ISA level.
#[test]
fn fence_observes_rob_pressure() {
    let mut m = quiet();
    let mut a = Assembler::new(0);
    for i in 0..8u32 {
        a.push(Inst::Load {
            dst: 1,
            addr: 0x8000 + i * 64,
        });
    }
    a.push(Inst::Fence);
    a.push(Inst::Halt);
    m.load_program(a.finish().unwrap());
    m.warm_code_range(0, 10 * INST_SIZE);

    // Run once with all targets flushed (they miss), once warm.
    let t0 = m.cycles();
    m.run_at(0);
    let cold = m.cycles() - t0;
    let t1 = m.cycles();
    m.run_at(0);
    let warm = m.cycles() - t1;
    assert!(cold > warm + 500, "cold run {cold} vs warm {warm}");
}

/// Strict decoding: corrupting any single byte of a valid encoding either
/// keeps it valid-and-identical (impossible for single-byte flips) or
/// makes it Invalid or a *different* instruction — never silently the
/// same semantics with garbage accepted.
#[test]
fn single_byte_corruption_changes_decode() {
    let insts = [
        Inst::Jmp { target: 0x1234 },
        Inst::Load {
            dst: 3,
            addr: 0x4000,
        },
        Inst::Xbegin { handler: 0x88 },
        Inst::Rdtscp { dst: 2 },
    ];
    for inst in insts {
        let bytes = inst.encode();
        for i in 0..8 {
            for flip in [0x01u8, 0x10, 0x80] {
                let mut corrupted = bytes;
                corrupted[i] ^= flip;
                let decoded = Inst::decode(&corrupted);
                assert_ne!(
                    decoded, inst,
                    "corrupting byte {i} of {inst:?} must change decode"
                );
            }
        }
    }
}

/// Div-by-zero via a register divisor faults like an immediate one.
#[test]
fn div_by_zero_register_faults() {
    let mut m = quiet();
    let mut a = Assembler::new(0);
    a.push(Inst::Mov {
        dst: 2,
        src: Operand::Imm(0),
    });
    a.push(Inst::Div {
        dst: 1,
        a: 1,
        b: Operand::Reg(2),
    });
    m.load_program(a.finish().unwrap());
    assert!(matches!(
        m.run_at(0),
        RunOutcome::Fault {
            cause: FaultCause::DivByZero,
            ..
        }
    ));
}

/// Self-modifying code: a program that overwrites one of its own
/// (dynamically written) instructions with a committed `Store` must see
/// the new decoding on the next fetch — and the predecode cache must not
/// change a single cycle of any of it.
#[test]
fn self_modifying_store_is_seen_and_predecode_is_cycle_neutral() {
    // The scenario, parameterized over the predecode toggle.
    let scenario = |predecode: bool| {
        let mut m = Machine::new(
            MachineConfig {
                predecode,
                ..MachineConfig::quiet()
            },
            0,
        );
        // Dynamic code at 0x2000: "Mov r5, 1; Halt" written as bytes
        // (no static program entry, so fetches decode from memory).
        let code_at = 0x2000u64;
        let mut bytes = Vec::new();
        for i in [
            Inst::Mov {
                dst: 5,
                src: Operand::Imm(1),
            },
            Inst::Halt,
        ] {
            bytes.extend_from_slice(&i.encode());
        }
        m.mem_mut().write_bytes(code_at, &bytes);
        // The replacement encoding ("Mov r5, 2") parked at a data address.
        let patch = Inst::Mov {
            dst: 5,
            src: Operand::Imm(2),
        }
        .encode();
        m.mem_mut().write_u64(0x4000, u64::from_le_bytes(patch));
        // Static program: patcher at 0x100 loads the new encoding and
        // stores it over the first dynamic instruction, then jumps there.
        let mut a = Assembler::new(0x100);
        a.push(Inst::Load {
            dst: 0,
            addr: 0x4000,
        });
        a.push(Inst::Store {
            addr: code_at as u32,
            src: 0,
        });
        a.push(Inst::Jmp {
            target: code_at as u32,
        });
        m.load_program(a.finish().unwrap());

        // First run executes (and, with predecode on, caches) the
        // original instruction.
        assert_eq!(m.run_at(code_at), RunOutcome::Halted);
        let first = m.reg(5);
        // Second run patches it in-program; the fetch after the store
        // must see the new decoding.
        assert_eq!(m.run_at(0x100), RunOutcome::Halted);
        let second = m.reg(5);
        (first, second, m.cycles())
    };

    let on = scenario(true);
    let off = scenario(false);
    assert_eq!(on.0, 1, "original instruction executes first");
    assert_eq!(on.1, 2, "patched instruction must be re-decoded");
    assert_eq!(on, off, "predecode must not change results or cycles");
}

/// The VMX warm-up window is visible from program timing (VMX-WR).
#[test]
fn vmx_warm_vs_cold_program_timing() {
    let mut m = quiet();
    let mut a = Assembler::new(0);
    a.push(Inst::Vmx);
    a.push(Inst::Halt);
    m.load_program(a.finish().unwrap());
    m.warm_code_range(0, 16);
    let t0 = m.cycles();
    m.run_at(0);
    let cold = m.cycles() - t0;
    let t1 = m.cycles();
    m.run_at(0);
    let warm = m.cycles() - t1;
    assert!(cold > warm + 200, "cold {cold} vs warm {warm}");
}
