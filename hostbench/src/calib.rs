//! Calibrated host time.
//!
//! The core these runs share switches between a fast and a slow state that
//! last seconds to minutes, and the whole run's throughput moves with it by
//! up to 2× (see `README.md`). A fixed reference loop slows by the same
//! factor as the program, so every timed interval is scaled by how long the
//! reference took right around it:
//!
//! `calibrated = wall × REFERENCE_MS / mean(reference before, reference after)`.
//!
//! The reference mixes the simulator's kinds of work — a string-keyed map
//! entry per step, a small allocation and `f32` reads over a 1 MiB buffer —
//! and is part of this package, so it does not change when the program
//! does. Changing it, or `REFERENCE_MS`, re-bases every host-time number.

use std::collections::BTreeMap;
use std::time::Instant;

/// The reference loop's time in the core's usual (slow) state, in ms:
/// calibrated times read as if the whole run had stayed in that state.
pub const REFERENCE_MS: f64 = 1.5;

#[derive(Debug, Clone, Copy)]
enum Step {
    Load,
    Store,
    Fma,
    Branch,
    Alu,
    Move,
}

/// Run the reference loop once and return its wall time in ms.
pub fn reference_ms() -> f64 {
    const STEPS: [Step; 6] = [
        Step::Load,
        Step::Store,
        Step::Fma,
        Step::Branch,
        Step::Alu,
        Step::Move,
    ];
    let started = Instant::now();
    let mut memory = vec![1.0f32; 1 << 18];
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut x = 0x1234_5678u64;
    let mut acc = 0.0f32;
    for i in 0..10_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let step = STEPS[(x % 6) as usize];
        *counts.entry(format!("{step:?}")).or_default() += 1;
        let base = (x as usize >> 8) % (memory.len() - 16);
        let lanes: Vec<f32> = memory[base..base + 16].to_vec();
        for (j, lane) in lanes.iter().enumerate() {
            acc += lane * j as f32;
        }
        let len = memory.len();
        memory[(base + i) % len] = acc;
    }
    std::hint::black_box((counts, acc));
    started.elapsed().as_secs_f64() * 1e3
}

/// Scales consecutive timed intervals by the reference samples taken
/// between them.
#[derive(Debug)]
pub struct Calibrator {
    last_ms: f64,
}

impl Calibrator {
    /// Take the first reference sample; call right before the first
    /// interval.
    pub fn start() -> Calibrator {
        Calibrator {
            last_ms: reference_ms(),
        }
    }

    /// The calibrated length of `wall_s` seconds measured since the last
    /// sample; takes the next sample, which also opens the next interval.
    pub fn scale(&mut self, wall_s: f64) -> f64 {
        let next_ms = reference_ms();
        let factor = REFERENCE_MS / ((self.last_ms + next_ms) / 2.0);
        self.last_ms = next_ms;
        wall_s * factor
    }
}
