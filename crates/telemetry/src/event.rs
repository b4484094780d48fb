//! Typed trace events emitted by the machines.
//!
//! Events are small `Copy` values so that emitting one costs a handful of
//! moves; whether anything happens with it is the sink's business. The
//! set mirrors the micro-architecture of the paper: the DTB lookup
//! (hit/miss with a taxonomy), replacement (evict/promote), the dynamic
//! translation routine (decode + generate cycles), semantic routines on
//! IU1, and level-2 instruction fetches.

use crate::json::Json;

/// Why a DTB lookup missed.
///
/// The taxonomy is the classic three-C decomposition, computed against a
/// shadow fully-associative LRU directory of the same total capacity:
///
/// * **Cold** — the address was never resident before (compulsory);
/// * **Capacity** — a fully-associative buffer of the same size would
///   also have missed (the working set simply does not fit);
/// * **Conflict** — the fully-associative shadow *would* have hit: only
///   the set mapping evicted the translation.
///
/// A fourth class, **Recovery**, sits outside the three-C taxonomy: the
/// lookup physically hit, but the line's guard checksum failed, so the
/// machine invalidated it and retranslated from the static DIR. The
/// shadow classifier never produces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissKind {
    /// First reference to this DIR address.
    Cold,
    /// Would miss even fully-associatively.
    Capacity,
    /// Misses only because of the set mapping.
    Conflict,
    /// A hit whose line failed its integrity check and was invalidated
    /// and retranslated (fault plane only).
    Recovery,
}

impl MissKind {
    /// Stable lower-case label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            MissKind::Cold => "cold",
            MissKind::Capacity => "capacity",
            MissKind::Conflict => "conflict",
            MissKind::Recovery => "recovery",
        }
    }
}

/// What a fault-plane injection corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A bit flipped in the encoded DIR stream (persistent level-2
    /// corruption).
    DirBit,
    /// A buffer-array word of a resident DTB line overwritten.
    DtbWord,
    /// A tag/address-array entry poisoned.
    DtbTag,
    /// A level-2 instruction fetch dropped (transient).
    FetchDrop,
}

impl FaultKind {
    /// Stable lower-case label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DirBit => "dir_bit",
            FaultKind::DtbWord => "dtb_word",
            FaultKind::DtbTag => "dtb_tag",
            FaultKind::FetchDrop => "fetch_drop",
        }
    }
}

/// Which execution tier retired a DIR instruction.
///
/// The tier is the profiling plane's cost axis: the same DIR instruction
/// costs differently depending on whether INTERP interpreted it inline or
/// dispatched a resident PSDER translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Interpreted inline (interpreter/icache mode, degraded addresses,
    /// or an uncached-overflow translation).
    Interp,
    /// Dispatched from a resident PSDER translation.
    Psder,
}

impl Tier {
    /// Stable lower-case label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Interp => "interp",
            Tier::Psder => "psder",
        }
    }

    /// Dense index for per-tier accumulation arrays.
    pub fn index(self) -> usize {
        match self {
            Tier::Interp => 0,
            Tier::Psder => 1,
        }
    }

    /// Number of tiers (length of per-tier arrays).
    pub const COUNT: usize = 2;

    /// Every tier, in [`Tier::index`] order.
    pub const ALL: [Tier; Tier::COUNT] = [Tier::Interp, Tier::Psder];
}

/// One trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The DTB lookup for `addr` found a resident translation.
    DtbHit {
        /// DIR address presented by INTERP.
        addr: u32,
    },
    /// The DTB lookup for `addr` missed.
    DtbMiss {
        /// DIR address presented by INTERP.
        addr: u32,
        /// Taxonomy of the miss.
        kind: MissKind,
    },
    /// Filling `addr` displaced the resident translation for `victim`.
    Evict {
        /// Incoming DIR address.
        addr: u32,
        /// Displaced DIR address.
        victim: u32,
    },
    /// A second-level translation was copied into the first-level DTB.
    Promote {
        /// DIR address promoted.
        addr: u32,
        /// Translation length in short words.
        words: u32,
    },
    /// The dynamic translation routine ran for `addr`.
    Translate {
        /// DIR address translated.
        addr: u32,
        /// Level-1 cycles spent decoding the DIR instruction.
        decode_cycles: u64,
        /// Level-1 cycles spent generating + storing the translation.
        generate_cycles: u64,
    },
    /// IU1 took over for a semantic routine.
    RoutineEnter {
        /// Routine index (see `psder::RoutineId::index`).
        id: u16,
    },
    /// The semantic routine finished.
    RoutineExit {
        /// Routine index.
        id: u16,
        /// Micro-words executed.
        words: u32,
    },
    /// DIR instruction words were fetched from level-2 memory.
    L2Fetch {
        /// DIR address fetched.
        addr: u32,
        /// Level-2 words transferred.
        words: u32,
    },
    /// A DIR instruction was decoded from the encoded stream.
    Decode {
        /// DIR address decoded.
        addr: u32,
        /// Modeled decode cost in host instructions (the paper's `d` for
        /// this one instruction) — a property of the representation,
        /// identical whichever host decoder ran.
        cost: u32,
        /// Encoded width of the instruction in bits.
        bits: u32,
    },
    /// The fault injector corrupted machine state.
    FaultInjected {
        /// What was corrupted.
        kind: FaultKind,
        /// DIR address of the damaged line or fetch.
        addr: u32,
    },
    /// Repeated integrity failures at this DIR address degraded it to
    /// pure interpretation for the rest of the run.
    Degraded {
        /// DIR address now interpreted without translation.
        addr: u32,
    },
    /// One DIR instruction retired, with its full modeled cost.
    ///
    /// Emitted exactly once per dynamic DIR instruction, after every
    /// sub-event (fetch, decode, translate, routine) it caused. The
    /// cycle delta is the instruction's share of the modeled
    /// `CycleBreakdown` total, so summing `cycles` over all retires
    /// reproduces the run's cycle count exactly — the invariant the
    /// span tracer's modeled clock rests on.
    Retire {
        /// DIR address retired.
        addr: u32,
        /// Which tier executed it.
        tier: Tier,
        /// Modeled level-1 cycles this instruction accounted for.
        cycles: u32,
    },
    /// A translation was written into a DTB slot (on-miss fill).
    DtbFill {
        /// DIR address now resident.
        addr: u32,
        /// Resident translations after the fill (occupancy timeline).
        occupancy: u32,
    },
}

impl Event {
    /// Stable snake_case name of the event kind, used as the JSON `ev`
    /// discriminator.
    pub fn name(&self) -> &'static str {
        match self {
            Event::DtbHit { .. } => "dtb_hit",
            Event::DtbMiss { .. } => "dtb_miss",
            Event::Evict { .. } => "evict",
            Event::Promote { .. } => "promote",
            Event::Translate { .. } => "translate",
            Event::RoutineEnter { .. } => "routine_enter",
            Event::RoutineExit { .. } => "routine_exit",
            Event::L2Fetch { .. } => "l2_fetch",
            Event::Decode { .. } => "decode",
            Event::FaultInjected { .. } => "fault_injected",
            Event::Degraded { .. } => "degraded",
            Event::Retire { .. } => "retire",
            Event::DtbFill { .. } => "dtb_fill",
        }
    }

    /// The event as a JSON object (one JSONL record).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![("ev".to_string(), Json::from(self.name()))];
        match *self {
            Event::DtbHit { addr } => obj.push(("addr".into(), Json::from(addr as i64))),
            Event::DtbMiss { addr, kind } => {
                obj.push(("addr".into(), Json::from(addr as i64)));
                obj.push(("kind".into(), Json::from(kind.label())));
            }
            Event::Evict { addr, victim } => {
                obj.push(("addr".into(), Json::from(addr as i64)));
                obj.push(("victim".into(), Json::from(victim as i64)));
            }
            Event::Promote { addr, words } => {
                obj.push(("addr".into(), Json::from(addr as i64)));
                obj.push(("words".into(), Json::from(words as i64)));
            }
            Event::Translate {
                addr,
                decode_cycles,
                generate_cycles,
            } => {
                obj.push(("addr".into(), Json::from(addr as i64)));
                obj.push(("decode_cycles".into(), Json::from(decode_cycles as i64)));
                obj.push(("generate_cycles".into(), Json::from(generate_cycles as i64)));
            }
            Event::RoutineEnter { id } => obj.push(("id".into(), Json::from(id as i64))),
            Event::RoutineExit { id, words } => {
                obj.push(("id".into(), Json::from(id as i64)));
                obj.push(("words".into(), Json::from(words as i64)));
            }
            Event::L2Fetch { addr, words } => {
                obj.push(("addr".into(), Json::from(addr as i64)));
                obj.push(("words".into(), Json::from(words as i64)));
            }
            Event::Decode { addr, cost, bits } => {
                obj.push(("addr".into(), Json::from(addr as i64)));
                obj.push(("cost".into(), Json::from(cost as i64)));
                obj.push(("bits".into(), Json::from(bits as i64)));
            }
            Event::FaultInjected { kind, addr } => {
                obj.push(("kind".into(), Json::from(kind.label())));
                obj.push(("addr".into(), Json::from(addr as i64)));
            }
            Event::Degraded { addr } => obj.push(("addr".into(), Json::from(addr as i64))),
            Event::Retire { addr, tier, cycles } => {
                obj.push(("addr".into(), Json::from(addr as i64)));
                obj.push(("tier".into(), Json::from(tier.label())));
                obj.push(("cycles".into(), Json::from(cycles as i64)));
            }
            Event::DtbFill { addr, occupancy } => {
                obj.push(("addr".into(), Json::from(addr as i64)));
                obj.push(("occupancy".into(), Json::from(occupancy as i64)));
            }
        }
        Json::Obj(obj)
    }
}

/// Running totals per event kind, kept by [`RingSink`] so bounded buffers
/// still report exact counts after wrapping.
///
/// [`RingSink`]: crate::sink::RingSink
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// `DtbHit` events.
    pub dtb_hits: u64,
    /// `DtbMiss` events (all kinds).
    pub dtb_misses: u64,
    /// Cold misses.
    pub cold_misses: u64,
    /// Capacity misses.
    pub capacity_misses: u64,
    /// Conflict misses.
    pub conflict_misses: u64,
    /// `Evict` events.
    pub evictions: u64,
    /// `Promote` events.
    pub promotions: u64,
    /// `Translate` events.
    pub translations: u64,
    /// `RoutineEnter` events.
    pub routine_enters: u64,
    /// `RoutineExit` events.
    pub routine_exits: u64,
    /// `L2Fetch` events.
    pub l2_fetches: u64,
    /// `Decode` events.
    pub decodes: u64,
    /// `DtbMiss` events of the `Recovery` class (subset of `dtb_misses`).
    pub recovery_misses: u64,
    /// `FaultInjected` events.
    pub faults_injected: u64,
    /// `Degraded` events.
    pub degradations: u64,
    /// `Retire` events.
    pub retires: u64,
    /// `DtbFill` events.
    pub dtb_fills: u64,
}

impl EventCounts {
    /// Records one event.
    pub fn record(&mut self, event: &Event) {
        match event {
            Event::DtbHit { .. } => self.dtb_hits += 1,
            Event::DtbMiss { kind, .. } => {
                self.dtb_misses += 1;
                match kind {
                    MissKind::Cold => self.cold_misses += 1,
                    MissKind::Capacity => self.capacity_misses += 1,
                    MissKind::Conflict => self.conflict_misses += 1,
                    MissKind::Recovery => self.recovery_misses += 1,
                }
            }
            Event::Evict { .. } => self.evictions += 1,
            Event::Promote { .. } => self.promotions += 1,
            Event::Translate { .. } => self.translations += 1,
            Event::RoutineEnter { .. } => self.routine_enters += 1,
            Event::RoutineExit { .. } => self.routine_exits += 1,
            Event::L2Fetch { .. } => self.l2_fetches += 1,
            Event::Decode { .. } => self.decodes += 1,
            Event::FaultInjected { .. } => self.faults_injected += 1,
            Event::Degraded { .. } => self.degradations += 1,
            Event::Retire { .. } => self.retires += 1,
            Event::DtbFill { .. } => self.dtb_fills += 1,
        }
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.dtb_hits
            + self.dtb_misses
            + self.evictions
            + self.promotions
            + self.translations
            + self.routine_enters
            + self.routine_exits
            + self.l2_fetches
            + self.decodes
            + self.faults_injected
            + self.degradations
            + self.retires
            + self.dtb_fills
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_kinds_partition_the_miss_count() {
        let mut c = EventCounts::default();
        c.record(&Event::DtbMiss {
            addr: 1,
            kind: MissKind::Cold,
        });
        c.record(&Event::DtbMiss {
            addr: 2,
            kind: MissKind::Capacity,
        });
        c.record(&Event::DtbMiss {
            addr: 3,
            kind: MissKind::Conflict,
        });
        c.record(&Event::DtbHit { addr: 1 });
        assert_eq!(c.dtb_misses, 3);
        assert_eq!(
            c.cold_misses + c.capacity_misses + c.conflict_misses,
            c.dtb_misses
        );
        assert_eq!(c.dtb_hits, 1);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn events_serialize_with_discriminator() {
        let e = Event::Translate {
            addr: 17,
            decode_cycles: 12,
            generate_cycles: 9,
        };
        let j = e.to_json();
        assert_eq!(j.get("ev").and_then(Json::as_str), Some("translate"));
        assert_eq!(j.get("addr").and_then(Json::as_i64), Some(17));
        assert_eq!(j.get("decode_cycles").and_then(Json::as_i64), Some(12));
    }

    #[test]
    fn every_event_kind_has_a_distinct_name() {
        let events = [
            Event::DtbHit { addr: 0 },
            Event::DtbMiss {
                addr: 0,
                kind: MissKind::Cold,
            },
            Event::Evict { addr: 0, victim: 1 },
            Event::Promote { addr: 0, words: 2 },
            Event::Translate {
                addr: 0,
                decode_cycles: 0,
                generate_cycles: 0,
            },
            Event::RoutineEnter { id: 0 },
            Event::RoutineExit { id: 0, words: 1 },
            Event::L2Fetch { addr: 0, words: 1 },
            Event::Decode {
                addr: 0,
                cost: 7,
                bits: 13,
            },
            Event::FaultInjected {
                kind: FaultKind::DtbWord,
                addr: 0,
            },
            Event::Degraded { addr: 0 },
            Event::Retire {
                addr: 0,
                tier: Tier::Psder,
                cycles: 9,
            },
            Event::DtbFill {
                addr: 0,
                occupancy: 1,
            },
        ];
        let names: std::collections::HashSet<_> = events.iter().map(Event::name).collect();
        assert_eq!(names.len(), events.len());
    }

    #[test]
    fn retire_and_fill_events_count_and_serialize() {
        let mut c = EventCounts::default();
        c.record(&Event::Retire {
            addr: 4,
            tier: Tier::Psder,
            cycles: 11,
        });
        c.record(&Event::DtbFill {
            addr: 4,
            occupancy: 3,
        });
        assert_eq!(c.retires, 1);
        assert_eq!(c.dtb_fills, 1);
        assert_eq!(c.total(), 2);
        let j = Event::Retire {
            addr: 4,
            tier: Tier::Psder,
            cycles: 11,
        }
        .to_json();
        assert_eq!(j.get("ev").and_then(Json::as_str), Some("retire"));
        assert_eq!(j.get("tier").and_then(Json::as_str), Some("psder"));
        assert_eq!(j.get("cycles").and_then(Json::as_i64), Some(11));
        let f = Event::DtbFill {
            addr: 4,
            occupancy: 3,
        }
        .to_json();
        assert_eq!(f.get("occupancy").and_then(Json::as_i64), Some(3));
    }

    #[test]
    fn tier_labels_and_indices_are_distinct() {
        let tiers = Tier::ALL;
        let labels: std::collections::HashSet<_> = tiers.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), Tier::COUNT);
        let indices: std::collections::HashSet<_> = tiers.iter().map(|t| t.index()).collect();
        assert_eq!(indices.len(), Tier::COUNT);
        assert!(tiers.iter().all(|t| t.index() < Tier::COUNT));
    }

    #[test]
    fn fault_events_count_and_serialize() {
        let mut c = EventCounts::default();
        c.record(&Event::FaultInjected {
            kind: FaultKind::DirBit,
            addr: 3,
        });
        c.record(&Event::DtbMiss {
            addr: 3,
            kind: MissKind::Recovery,
        });
        c.record(&Event::Degraded { addr: 3 });
        assert_eq!(c.faults_injected, 1);
        assert_eq!(c.recovery_misses, 1);
        assert_eq!(c.dtb_misses, 1, "recovery is a miss class");
        assert_eq!(c.degradations, 1);
        assert_eq!(c.total(), 3);
        let j = Event::FaultInjected {
            kind: FaultKind::FetchDrop,
            addr: 9,
        }
        .to_json();
        assert_eq!(j.get("ev").and_then(Json::as_str), Some("fault_injected"));
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("fetch_drop"));
        assert_eq!(j.get("addr").and_then(Json::as_i64), Some(9));
    }

    #[test]
    fn fault_kind_labels_are_distinct() {
        let kinds = [
            FaultKind::DirBit,
            FaultKind::DtbWord,
            FaultKind::DtbTag,
            FaultKind::FetchDrop,
        ];
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }
}
