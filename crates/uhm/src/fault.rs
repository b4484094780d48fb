//! The fault plane: seeded injection of corruption into the machine.
//!
//! Rau's architecture makes the DTB a *redundant* copy of the working
//! set — the static DIR in level-2 memory is always the ground truth.
//! That redundancy is what the fault plane exercises: corruption of the
//! buffer or tag arrays is recoverable (invalidate and retranslate),
//! while corruption of the static DIR stream itself is terminal and
//! surfaces as a typed [`Trap::CorruptDir`](dir::exec::Trap).
//!
//! Four fault classes, each with its own per-opportunity probability:
//!
//! * **DIR bit flips** — one bit of the fetched instruction's encoded
//!   span flips in the machine's level-2 copy. Persistent: the flipped
//!   bit stays flipped for the rest of the run.
//! * **DTB word corruption** — one word of a random resident line is
//!   overwritten, leaving the line's guard checksum stale.
//! * **Tag poisoning** — one bit of a random tag/address-array entry
//!   flips.
//! * **Dropped L2 fetches** — a level-2 instruction fetch returns
//!   nothing and must be retried (transient).
//!
//! The injector is a splitmix64 stream (same generator as the seeded
//! program generator), so a `(seed, config)` pair replays exactly. All
//! rates at zero make the injector inert: it draws no random numbers and
//! perturbs nothing.

use hlr::rng::Rng;
use telemetry::FaultKind;

/// Fault-injection configuration: per-opportunity probabilities plus an
/// activity window in dynamic instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the injector's splitmix64 stream.
    pub seed: u64,
    /// Probability per DIR fetch of flipping one bit in the fetched
    /// instruction's encoded span (persistent level-2 corruption).
    pub dir_bit_rate: f64,
    /// Probability per executed DIR instruction of corrupting one word
    /// of a random resident DTB line.
    pub dtb_word_rate: f64,
    /// Probability per executed DIR instruction of poisoning a random
    /// tag/address-array entry.
    pub dtb_tag_rate: f64,
    /// Probability per level-2 fetch of the fetch being dropped.
    pub drop_fetch_rate: f64,
    /// First dynamic instruction at which injection activates.
    pub from_step: u64,
    /// Last dynamic instruction of the injection window (`None` = until
    /// the run ends). Together with `from_step` this targets faults at
    /// specific cycles instead of rates.
    pub until_step: Option<u64>,
}

impl FaultConfig {
    /// A configuration with every rate at zero: attached but inert.
    pub fn inert(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            dir_bit_rate: 0.0,
            dtb_word_rate: 0.0,
            dtb_tag_rate: 0.0,
            drop_fetch_rate: 0.0,
            from_step: 0,
            until_step: None,
        }
    }

    /// A configuration injecting only one fault class at `rate`.
    pub fn only(seed: u64, kind: FaultKind, rate: f64) -> FaultConfig {
        let mut cfg = FaultConfig::inert(seed);
        match kind {
            FaultKind::DirBit => cfg.dir_bit_rate = rate,
            FaultKind::DtbWord => cfg.dtb_word_rate = rate,
            FaultKind::DtbTag => cfg.dtb_tag_rate = rate,
            FaultKind::FetchDrop => cfg.drop_fetch_rate = rate,
        }
        cfg
    }

    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::DirBit => self.dir_bit_rate,
            FaultKind::DtbWord => self.dtb_word_rate,
            FaultKind::DtbTag => self.dtb_tag_rate,
            FaultKind::FetchDrop => self.drop_fetch_rate,
        }
    }
}

/// Injection totals of one run, one counter per fault class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Bits flipped in the level-2 DIR stream.
    pub dir_bits_flipped: u64,
    /// Buffer-array words overwritten.
    pub dtb_words_corrupted: u64,
    /// Tag/address-array entries poisoned.
    pub dtb_tags_poisoned: u64,
    /// Level-2 fetches dropped.
    pub fetches_dropped: u64,
}

impl FaultStats {
    /// Total injections across all classes.
    pub fn total(&self) -> u64 {
        self.dir_bits_flipped
            + self.dtb_words_corrupted
            + self.dtb_tags_poisoned
            + self.fetches_dropped
    }
}

/// The seeded fault injector the machine consults at each opportunity.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: Rng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for `config`.
    pub fn new(config: FaultConfig) -> FaultInjector {
        FaultInjector {
            config,
            rng: Rng::new(config.seed),
            stats: FaultStats::default(),
        }
    }

    /// Injection totals so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decides whether a fault of `kind` fires at dynamic instruction
    /// `step`. Zero-rate classes (and steps outside the activity window)
    /// never fire and never advance the random stream, so an inert
    /// injector is byte-for-byte invisible.
    pub fn roll(&mut self, kind: FaultKind, step: u64) -> bool {
        let rate = self.config.rate(kind);
        if rate <= 0.0
            || step < self.config.from_step
            || self.config.until_step.is_some_and(|until| step > until)
        {
            return false;
        }
        self.rng.bool_with(rate)
    }

    /// Records that a fault of `kind` was actually applied. Kept separate
    /// from [`FaultInjector::roll`] because some injections find no
    /// target (e.g. a word corruption landing on an empty way).
    pub fn note(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::DirBit => self.stats.dir_bits_flipped += 1,
            FaultKind::DtbWord => self.stats.dtb_words_corrupted += 1,
            FaultKind::DtbTag => self.stats.dtb_tags_poisoned += 1,
            FaultKind::FetchDrop => self.stats.fetches_dropped += 1,
        }
    }

    /// Uniform value in `[0, n)` (for picking a way, bit or word).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn pick(&mut self, n: u64) -> u64 {
        self.rng.range_u64(0, n)
    }

    /// Flips one bit of a short word's payload (or its variant, for
    /// payload-free words) — the single-bit corruption model for the
    /// buffer array.
    pub fn corrupt_word(&mut self, w: psder::ShortInstr) -> psder::ShortInstr {
        use psder::{InterpMode, PopMode, PushMode, ShortInstr};
        match w {
            ShortInstr::Push(PushMode::Imm(v)) => {
                ShortInstr::Push(PushMode::Imm(v ^ (1i64 << self.pick(64))))
            }
            ShortInstr::Push(PushMode::Local(s)) => {
                ShortInstr::Push(PushMode::Local(s ^ (1 << self.pick(16))))
            }
            ShortInstr::Push(PushMode::Global(s)) => {
                ShortInstr::Push(PushMode::Global(s ^ (1 << self.pick(16))))
            }
            ShortInstr::Pop(PopMode::Local(s)) => {
                ShortInstr::Pop(PopMode::Local(s ^ (1 << self.pick(16))))
            }
            ShortInstr::Pop(PopMode::Global(s)) => {
                ShortInstr::Pop(PopMode::Global(s ^ (1 << self.pick(16))))
            }
            ShortInstr::Interp(InterpMode::Imm(a)) => {
                ShortInstr::Interp(InterpMode::Imm(a ^ (1 << self.pick(16))))
            }
            // Payload-free variants: corrupt by flipping the variant.
            ShortInstr::Pop(PopMode::Discard) => ShortInstr::Interp(InterpMode::Stack),
            ShortInstr::Interp(InterpMode::Stack) => ShortInstr::Pop(PopMode::Discard),
            ShortInstr::Call(_) => ShortInstr::Push(PushMode::Imm(self.rng.next_u64() as i64)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_injector_never_fires_or_advances() {
        let mut inj = FaultInjector::new(FaultConfig::inert(7));
        for step in 0..1000 {
            for kind in [
                FaultKind::DirBit,
                FaultKind::DtbWord,
                FaultKind::DtbTag,
                FaultKind::FetchDrop,
            ] {
                assert!(!inj.roll(kind, step));
            }
        }
        assert_eq!(inj.stats(), FaultStats::default());
        // The random stream was never advanced: the next draw equals a
        // fresh generator's first draw.
        assert_eq!(inj.rng.next_u64(), Rng::new(7).next_u64());
    }

    #[test]
    fn rates_are_roughly_respected() {
        let mut inj = FaultInjector::new(FaultConfig::only(11, FaultKind::DtbWord, 0.25));
        let fired = (0..10_000)
            .filter(|&s| inj.roll(FaultKind::DtbWord, s))
            .count();
        assert!((2_000..3_000).contains(&fired), "fired {fired}");
    }

    #[test]
    fn activity_window_gates_injection() {
        let cfg = FaultConfig {
            from_step: 100,
            until_step: Some(200),
            ..FaultConfig::only(3, FaultKind::DirBit, 1.0)
        };
        let mut inj = FaultInjector::new(cfg);
        assert!(!inj.roll(FaultKind::DirBit, 99));
        assert!(inj.roll(FaultKind::DirBit, 100));
        assert!(inj.roll(FaultKind::DirBit, 200));
        assert!(!inj.roll(FaultKind::DirBit, 201));
    }

    #[test]
    fn corrupt_word_always_changes_the_word() {
        use psder::{InterpMode, PopMode, PushMode, ShortInstr};
        let mut inj = FaultInjector::new(FaultConfig::inert(5));
        let samples = [
            ShortInstr::Push(PushMode::Imm(0)),
            ShortInstr::Push(PushMode::Local(7)),
            ShortInstr::Push(PushMode::Global(7)),
            ShortInstr::Pop(PopMode::Discard),
            ShortInstr::Pop(PopMode::Local(1)),
            ShortInstr::Pop(PopMode::Global(1)),
            ShortInstr::Call(psder::RoutineId::HaltR),
            ShortInstr::Interp(InterpMode::Imm(12)),
            ShortInstr::Interp(InterpMode::Stack),
        ];
        for w in samples {
            for _ in 0..32 {
                assert_ne!(inj.corrupt_word(w), w, "{w:?} unchanged");
            }
        }
    }

    #[test]
    fn replay_is_deterministic_per_seed() {
        let cfg = FaultConfig::only(42, FaultKind::DtbTag, 0.5);
        let mut a = FaultInjector::new(cfg);
        let mut b = FaultInjector::new(cfg);
        for step in 0..500 {
            assert_eq!(
                a.roll(FaultKind::DtbTag, step),
                b.roll(FaultKind::DtbTag, step)
            );
        }
    }
}
