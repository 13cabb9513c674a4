//! `apt_ping`: the paper's Table 3 traffic.
//!
//! Each round arms a `WmApt` (reverse-shell payload) from the seed and
//! sends it the correct trigger, then a one-bit-wrong trigger, so a run
//! covers many pads as the paper's Table 3 experiments do. Each ping
//! decodes 192 bits on TSX_XOR voted with s=3, AES-decrypts, writes the
//! candidate header and payload into code memory and runs them inside a
//! transaction. The redundancy voter dominates, and this is the only
//! workload that executes bytes it has just written. It is not in
//! `BENCHMARK.json`: at this commit its speed swings between processes
//! (see the README).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use uwm_apps::wm_apt::{CONNECT_MARKER, MAP_ADDR, MARKER_ADDR, TRIGGER_BYTES};
use uwm_apps::{Payload, Trigger, WmApt};
use uwm_core::gate::WeirdGate;
use uwm_core::skelly::{CounterBank, Redundancy, SkellySpec};
use uwm_crypto::Aes128;
use uwm_rng::rngs::StdRng;
use uwm_rng::{Rng, SeedableRng};
use uwm_sim::machine::MachineConfig;

use crate::common::{closed_loop, derive, median, Hash64, Outcome, Record, SimCounts};
use crate::trace::Tracer;
use crate::{ItemTrace, Metrics};

/// Rounds whose pings fix the accuracy and the fingerprint.
const PREFIX_ROUNDS: usize = 32;
/// Rounds replayed on APTs re-armed from the same seeds.
const REPEAT_ROUNDS: usize = 2;
/// Header bytes a ping leaves in the armed region: the decoded `jmp`.
const HEADER_BYTES: usize = 8;
/// Output bits per ping: the decoded header plus "the payload ran".
const BITS_PER_PING: u64 = 8 * HEADER_BYTES as u64 + 1;
/// The APT's decode redundancy: median of three per bit.
const APT_REDUNDANCY: Redundancy = Redundancy {
    samples: 3,
    votes: 1,
    k: 1,
};

const APT_SALT: u64 = 0x6170_7400_0001;
const WRONG_SALT: u64 = 0x6170_7400_0002;
const VOTER_SALT: u64 = 0x6170_7400_0003;

/// An armed APT, its trigger, and the masked header it stores.
struct Armed {
    apt: WmApt,
    trigger: Trigger,
    stored: [u8; HEADER_BYTES],
}

/// Arms the APT of round `r`.
fn arm(seed: u64, r: usize) -> Armed {
    let (apt, trigger) = WmApt::new(derive(seed, APT_SALT, r), Payload::ReverseShell)
        .expect("the APT fits a fresh layout");
    let mut stored = [0u8; HEADER_BYTES];
    stored.copy_from_slice(&apt.visible_region()[..HEADER_BYTES]);
    Armed {
        apt,
        trigger,
        stored,
    }
}

/// The body of round `r`'s correct or wrong ping: the wrong one is the
/// trigger with one seeded bit flipped.
fn body(seed: u64, trigger: &Trigger, r: usize, correct: bool) -> Trigger {
    let mut t = *trigger;
    if !correct {
        let bit =
            StdRng::seed_from_u64(derive(seed, WRONG_SALT, r)).gen_range(0..TRIGGER_BYTES * 8);
        t[bit / 8] ^= 1 << (bit % 8);
    }
    t
}

/// What one ping did, seen from outside the APT.
#[derive(Debug, Clone, Copy, Default)]
struct Ping {
    record: Record,
    fired: bool,
    /// A wrong trigger fired: the noisy decode undid its wrong bit.
    false_fire: bool,
    /// A guarantee broke: a fire that left no payload marker, or a marker
    /// without a fire.
    broken: bool,
    bits_right: u64,
    xor_executions: u64,
}

fn ping(a: &mut Armed, seed: u64, r: usize, correct: bool, tr: Option<&mut Tracer>) -> Ping {
    let body = body(seed, &a.trigger, r, correct);
    let before = SimCounts::of(a.apt.skelly().machine());
    let report = match tr {
        Some(t) => t.span(
            "wm_apt.ping",
            (2 * r + usize::from(!correct)) as u64,
            || a.apt.ping(&body),
        ),
        None => a.apt.ping(&body),
    };
    let m = a.apt.skelly().machine();
    let decoded = m.mem().read_bytes(MAP_ADDR, HEADER_BYTES);
    let ran_payload = m.mem().read_u64(MARKER_ADDR) == CONNECT_MARKER;
    let mut wrong = 0;
    let mut readings = Hash64::default();
    for k in 0..HEADER_BYTES {
        wrong += (decoded[k] ^ a.stored[k] ^ body[k]).count_ones();
        readings.add(u64::from(decoded[k]));
    }
    readings.add(u64::from(report.triggered));
    readings.add(report.xor_executions);
    wrong += u32::from(report.triggered != correct);
    let broken = report.triggered != ran_payload;
    if broken {
        eprintln!(
            "apt_ping round {r}: fired {} but payload marker {}",
            report.triggered, ran_payload
        );
    }
    Ping {
        record: Record {
            counts: SimCounts::of(m).since(before),
            readings: readings.value(),
        },
        fired: report.triggered,
        false_fire: report.triggered && !correct,
        broken,
        bits_right: BITS_PER_PING - u64::from(wrong),
        xor_executions: report.xor_executions,
    }
}

/// One round: a freshly armed APT, its correct ping, then its wrong ping.
fn round(seed: u64, r: usize) -> [Ping; 2] {
    let mut a = arm(seed, r);
    [true, false].map(|correct| ping(&mut a, seed, r, correct, None))
}

/// Everything before the first item can run: arm the first APT.
pub fn setup(seed: u64) -> impl Sized {
    arm(seed, 0).apt
}

/// The untraced, timed workload.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut pings: Vec<Ping> = Vec::new();
    let timed = closed_loop(budget, PREFIX_ROUNDS, |r| {
        out.attempted += 2;
        match catch_unwind(AssertUnwindSafe(|| round(seed, r))) {
            Ok(p) => pings.extend(p),
            Err(_) => out.failed += 2,
        }
    });
    out.failed += pings.iter().filter(|p| p.broken).count() as u64;
    out.items_per_s = out.attempted as f64 / timed.seconds;
    out.peak_rss_mib = timed.peak_rss_mib;
    let xor_executions: u64 = pings.iter().map(|p| p.xor_executions).sum();
    out.gate_evals_per_s = xor_executions as f64 / timed.seconds;
    let false_fires = pings.iter().filter(|p| p.false_fire).count();
    eprintln!(
        "apt_ping: {false_fires} of {} wrong-trigger pings fired",
        pings.len() / 2
    );
    if pings.len() < 2 * PREFIX_ROUNDS {
        out.check_failures.push("apt_ping rounds panicked".into());
        return out;
    }
    let prefix = &pings[..2 * PREFIX_ROUNDS];
    for p in prefix {
        out.bits_right += p.bits_right;
        out.bits_total += BITS_PER_PING;
    }
    out.fingerprint = prefix.iter().map(|p| p.record).collect();

    // The first rounds again on APTs re-armed from the same seeds.
    for r in 0..REPEAT_ROUNDS {
        let again = round(seed, r).map(|p| p.record);
        if again[..] != out.fingerprint[2 * r..2 * r + 2] {
            out.check_failures
                .push(format!("apt_ping round {r} differs on a re-armed APT"));
        }
    }
    out
}

/// The traced replay: rounds without spans for a third of `budget`, then
/// rounds with every call spanned for the rest (at least two of each).
/// After its pings, each spanned round replays the decode on the same
/// APT, so pings and decodes are timed under the same conditions.
pub fn trace(seed: u64, budget: Duration, tr: &mut Tracer, metrics: &mut Metrics) -> ItemTrace {
    let mut it = ItemTrace::default();
    let start = Instant::now();
    let mut r = 0;
    while r < 2 || start.elapsed() < budget / 3 {
        it.failed += round(seed, r)
            .iter()
            .map(|p| u64::from(p.broken))
            .sum::<u64>();
        r += 1;
    }
    it.untraced_items_per_s = (2 * r) as f64 / start.elapsed().as_secs_f64();

    let untraced_rounds = r;
    let mut fire_runs = Vec::new();
    let mut since_fire = 0u64;
    let mut false_fires = 0u64;
    let mut last = None;
    while r < untraced_rounds + 2 || start.elapsed() < budget {
        tr.enter("wm_apt.round", r as u64);
        let mut a = tr.span("wm_apt.arm", r as u64, || arm(seed, r));
        for correct in [true, false] {
            let p = ping(&mut a, seed, r, correct, Some(tr));
            it.items += 1;
            it.failed += u64::from(p.broken);
            false_fires += u64::from(p.false_fire);
            it.counts.add(p.record.counts);
            if correct {
                since_fire += 1;
                if p.fired {
                    fire_runs.push(since_fire as f64);
                    since_fire = 0;
                }
            }
        }
        it.traced_s += tr.exit() as f64 * 1e-9;

        // The decode on the APT's own skelly: 192 voted TSX_XORs.
        let sk = a.apt.skelly_mut();
        tr.span("wm_apt.decode", r as u64, || {
            for bit in 0..TRIGGER_BYTES * 8 {
                sk.tsx_xor(a.trigger[bit / 8] >> (bit % 8) & 1 == 1, bit % 3 == 0);
            }
        });
        last = Some(a);
        r += 1;
    }
    let a = last.expect("at least two spanned rounds");
    // Censored when no correct ping fired: the number sent is a lower
    // bound on pings-to-fire.
    let pings_to_fire = if fire_runs.is_empty() {
        since_fire as f64
    } else {
        median(&fire_runs)
    };

    // AES on a payload-sized buffer under a fixed key.
    let payload = vec![0x5au8; a.apt.visible_region().len() - TRIGGER_BYTES - 8];
    let aes = Aes128::new(&[7u8; 16]);
    for i in 0..256 {
        tr.span("aes.decrypt", i, || aes.decrypt_cbc_zero_iv(&payload));
    }

    // The voter against raw executions of the same gate, interleaved so
    // both see the same conditions.
    let mut sk = SkellySpec::new()
        .expect("the paper's gate set fits the default layout")
        .instantiate(MachineConfig::default(), derive(seed, VOTER_SALT, 0));
    let gate = sk.tsx_xor_gate();
    let mut bank = CounterBank::new();
    for i in 0..64u64 {
        let inputs = [i & 1 == 1, i & 2 == 2];
        tr.span("skelly.vote", i, || {
            APT_REDUNDANCY.vote(&gate, sk.machine_mut(), &inputs, &mut bank)
        })
        .expect("TSX_XOR takes two inputs");
        for _ in 0..APT_REDUNDANCY.raw_executions() {
            tr.span("skelly.raw_execute", i, || {
                gate.execute_timed(sk.machine_mut(), &inputs)
            })
            .expect("TSX_XOR takes two inputs");
        }
    }

    let stats = tr.stats();
    let ping = stats["wm_apt.ping"];
    let aes_ns = stats["aes.decrypt"].mean_ns();
    it.call_ns = ping.total_ns;
    let decode_ns = stats["wm_apt.decode"].mean_ns();
    it.unattributed_ns = (ping.mean_ns() - decode_ns - aes_ns) * it.items as f64;
    let vote_per_raw = stats["skelly.vote"].mean_ns() / APT_REDUNDANCY.raw_executions() as f64;
    metrics.put("wm_apt.arm_ms", stats["wm_apt.arm"].mean_ns() * 1e-6, "ms");
    metrics.put("wm_apt.ping_ms", ping.mean_ns() * 1e-6, "ms");
    metrics.put(
        "wm_apt.decode_share",
        decode_ns / ping.mean_ns(),
        "fraction",
    );
    metrics.put("wm_apt.pings_to_fire_p50", pings_to_fire, "pings");
    metrics.put("wm_apt.false_fires", false_fires as f64, "count");
    metrics.put("aes.decrypt_us", aes_ns * 1e-3, "us");
    metrics.put(
        "skelly.vote_overhead_x",
        vote_per_raw / stats["skelly.raw_execute"].mean_ns(),
        "ratio",
    );
    it
}
