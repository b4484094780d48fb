//! The host-speed reference: a small bytecode interpreter owned by the
//! benchmark, timed next to the work it normalizes.
//!
//! On a shared host, neighbours slow this code by up to 1.6x, in episodes
//! that last from seconds to minutes. A fixed multiply loop or a pointer
//! chase barely notices; an interpreter loop slows down the way the
//! machine does. So the ledger times this interpreter beside each round of
//! requests and scales the round's times to what they would be on the
//! reference host. The interpreter is the benchmark's own code: no change
//! to the system under test moves it.
//!
//! It runs two programs. A long one with data-dependent jumps defeats the
//! branch predictor; a short loop without them is predicted well, as the
//! machine's hot loops are. Neighbours slow the two differently: on the
//! 2-vCPU host the ledger was calibrated on, a busy neighbour slowed the
//! loop by 1.4x and the branchy program by 1.2x. Code slows like the
//! program it resembles, so each workload names its [`Reference`].

use std::hint::black_box;
use std::time::Instant;

/// Instructions the kernel interprets per program and timing, spread
/// evenly over the [`COPIES`].
const STEPS: u32 = 100_000;

/// Length of the branchy program.
const BRANCHY_LEN: usize = 997;

/// Length of the looping program.
const LOOP_LEN: usize = 200;

/// Host ns of the branchy and the looping program on the reference host,
/// which defines the unit of every scaled time. The 2-vCPU KVM guest
/// (Intel Xeon, family 6 model 207) the benchmark was calibrated on ran
/// them in about 750 to 950 µs and 190 to 280 µs, as its neighbours came
/// and went.
const REFERENCE_NS: [f64; 2] = [800_000.0, 275_000.0];

/// A fixed xorshift stream of `len` opcodes; `branchy` keeps the two
/// data-dependent jumps (opcodes 4 and 8 modulo 12), otherwise they are
/// replaced by straight-line arithmetic.
fn program(len: usize, branchy: bool) -> Vec<u8> {
    let mut x = 12_345u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let op = (x % 251) as u8;
            if !branchy && matches!(op % 12, 4 | 8) {
                op + 1
            } else {
                op
            }
        })
        .collect()
}

/// Copies of the interpreter. Identical machine code runs at different
/// speeds at different addresses: eight copies of this interpreter in one
/// binary took from 243 to 293 µs on the looping program on the
/// calibration host. Where the linker puts any one copy moves with every
/// change to the rest of the program, so timing one copy would make the
/// reference's speed depend on the build. The copies land at different
/// offsets, and the kernel takes the fastest.
const COPIES: [fn(&[u8], u32) -> i64; 8] = [
    interpret::<0>,
    interpret::<1>,
    interpret::<2>,
    interpret::<3>,
    interpret::<4>,
    interpret::<5>,
    interpret::<6>,
    interpret::<7>,
];

/// Interprets `steps` instructions of `code` on a small stack machine.
/// `COPY` starts the accumulator, so that no two copies are identical
/// and the compiler keeps them apart.
#[inline(never)]
fn interpret<const COPY: i64>(code: &[u8], steps: u32) -> i64 {
    let mut stack = [0i64; 64];
    let (mut sp, mut acc, mut pc) = (8usize, COPY, 0usize);
    for _ in 0..steps {
        let op = code[pc];
        pc = (pc + 1) % code.len();
        match op % 12 {
            0 => {
                stack[sp & 63] = acc;
                sp += 1;
            }
            1 => {
                sp = sp.saturating_sub(1).max(1);
                acc = acc.wrapping_add(stack[sp & 63]);
            }
            2 => acc = acc.wrapping_mul(3),
            3 => acc ^= acc >> 3,
            4 if acc & 1 == 0 => pc = (pc + 7) % code.len(),
            5 => acc = acc.wrapping_sub(11),
            6 => stack[(sp + 3) & 63] = acc,
            7 => acc = acc.wrapping_add(stack[(sp + 5) & 63]),
            8 if acc < 0 => pc = (pc + 3) % code.len(),
            9 => acc = acc.rotate_left(5),
            10 => sp = (sp + 1) & 63,
            _ => acc = acc.wrapping_add(i64::from(op)),
        }
    }
    acc
}

/// Host ns of [`STEPS`] instructions of `code` at the fastest copy's
/// pace: every copy runs its share, and the fastest time counts.
fn time_ns(code: &[u8]) -> f64 {
    let steps = STEPS / COPIES.len() as u32;
    let fastest = COPIES
        .iter()
        .map(|&copy| {
            let t = Instant::now();
            black_box(black_box(copy)(black_box(code), steps));
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min);
    fastest * COPIES.len() as f64
}

/// The reference programs whose slowdown stands for a workload's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// The looping program alone: code that spends its time in loops the
    /// branch predictor learns, such as the PSDER semantic routines run
    /// from a DTB.
    Loop,
    /// The geometric mean of both programs' slowdowns: branchier code,
    /// such as decoding, compiling and verifying.
    Mixed,
}

/// Times the reference programs once and returns how much slower than
/// the reference host this host runs them now.
pub fn slowdown(reference: Reference) -> f64 {
    let looping = time_ns(&program(LOOP_LEN, false)) / REFERENCE_NS[1];
    match reference {
        Reference::Loop => looping,
        Reference::Mixed => {
            let branchy = time_ns(&program(BRANCHY_LEN, true)) / REFERENCE_NS[0];
            (branchy * looping).sqrt()
        }
    }
}

/// Scales `ns`, measured while the host ran `slowdown` times slower than
/// the reference host, to the reference host.
pub fn normalize(ns: f64, slowdown: f64) -> f64 {
    ns / slowdown
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_normalizes_proportionally() {
        let code = program(BRANCHY_LEN, true);
        assert_eq!(code, program(BRANCHY_LEN, true));
        assert_eq!(COPIES[3](&code, 1000), interpret::<3>(&code, 1000));
        assert_ne!(COPIES[0] as usize, COPIES[1] as usize);
        let looping = program(LOOP_LEN, false);
        assert!(looping.iter().all(|op| !matches!(op % 12, 4 | 8)));
        assert!(slowdown(Reference::Loop) > 0.0 && slowdown(Reference::Mixed) > 0.0);
        assert_eq!(normalize(50.0, 1.0), 50.0);
        assert_eq!(normalize(50.0, 2.0), 25.0);
    }
}
