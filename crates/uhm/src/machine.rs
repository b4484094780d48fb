//! The universal host machine in its three Section-7 configurations.
//!
//! All three share the [`psder::Engine`] architectural state, the semantic
//! [`RoutineLib`] and the encoded DIR image; they differ only in the fetch
//! path of DIR instructions:
//!
//! * [`Mode::Interpreter`] — the conventional UHM (T1): every DIR
//!   instruction is fetched from level 2 and decoded, every time.
//! * [`Mode::Dtb`] — the paper's proposal (T2): the INTERP instruction
//!   presents the DIR address to the DTB; hits execute the stored PSDER
//!   translation, misses trap to the dynamic translation routine.
//! * [`Mode::ICache`] — the resource-matched baseline (T3): level-2 words
//!   are cached, but every instruction is still decoded.

use dir::encode::{DecodeMode, Image, SchemeKind};
use dir::exec::Trap;
use dir::program::Program;
use memsim::{Access, Geometry, SetAssocCache};
use psder::engine::{Engine, MicroEffect, ShortEffect};
use psder::{FrozenTransCache, RoutineLib, ShortInstr};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{Event, FaultKind, MissKind, NullSink, Tier, TraceSink};

use crate::config::{Budget, CostModel, Limits, RetryPolicy, BUDGET_CHECK_INTERVAL};
use crate::dtb::{check_words, ConfigError, Dtb, DtbConfig, Handle};
use crate::fault::{FaultConfig, FaultInjector};
use crate::metrics::{CycleBreakdown, Metrics, Report};

/// The machine configuration to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Conventional UHM: fetch + decode every DIR instruction (T1).
    Interpreter,
    /// UHM with a dynamic translation buffer (T2).
    Dtb(DtbConfig),
    /// UHM with an instruction cache over level-2 words (T3).
    ICache {
        /// Geometry of the word cache.
        geometry: Geometry,
    },
    /// UHM with two levels of dynamic translation (§4: "it is possible
    /// that a number of levels of dynamic translation will be required"):
    /// a small, fast first-level DTB backed by a larger, slower
    /// second-level translation store. First-level misses that hit the
    /// second level *promote* the stored translation instead of
    /// re-translating.
    TwoLevelDtb {
        /// The small, fast first-level DTB (accessed at `τ_D`).
        l1: DtbConfig,
        /// The larger second-level store (accessed at `tau_dtb2`).
        l2: DtbConfig,
    },
}

impl Mode {
    /// Validates every buffer geometry the mode configures: each DTB
    /// through [`DtbConfig::validate`], the i-cache against the same
    /// [`MAX_BUFFER_WORDS`](crate::dtb::MAX_BUFFER_WORDS) ceiling.
    ///
    /// # Errors
    ///
    /// The first invalid geometry's [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            Mode::Interpreter => Ok(()),
            Mode::Dtb(cfg) => cfg.validate(),
            Mode::ICache { geometry } => {
                let words = geometry.sets.checked_mul(geometry.ways);
                check_words(words.unwrap_or(usize::MAX))
            }
            Mode::TwoLevelDtb { l1, l2 } => l1.validate().and_then(|()| l2.validate()),
        }
    }
}

/// Which shared translation artifacts a run consults (see
/// [`Machine::set_shared_translations`]). Host-side only in every
/// variant: outputs, traps and modeled metrics are identical regardless,
/// which is exactly why a supervised retry can switch variants after a
/// suspected artifact corruption without losing bit-identical results.
#[derive(Debug, Clone, Default)]
pub enum SharedArtifacts {
    /// Consult the machine's own frozen snapshot (the default).
    #[default]
    Machine,
    /// Ignore any shared snapshot: rebuild templates in the run-private
    /// cache. The supervised pool's recovery path after a poisoned
    /// artifact.
    Bypass,
    /// Consult this snapshot instead of the machine's own — the chaos
    /// plane's artifact-corruption injection point.
    Override(Arc<FrozenTransCache>),
}

/// Per-run options for [`Machine::run_with`]: every setting that may
/// vary between runs of one shared machine. The default is a plain run —
/// no fault plane, an unlimited budget, the machine's own shared
/// artifacts — which is what [`Machine::run`] passes. Observation is the
/// sink's business, not an option: windowed sampling is the
/// [`WindowSampler`](crate::WindowSampler) sink.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// The fault plane: the run consults a seeded [`FaultInjector`] built
    /// from this configuration and verifies every DTB line on dispatch.
    /// `None` keeps the fault plane entirely out of the pipeline.
    pub faults: Option<FaultConfig>,
    /// Fault-recovery policy (degradation threshold and fetch retry
    /// budget). Only consulted when a fault plane is attached.
    pub retry: RetryPolicy,
    /// Execution budget (fuel and/or wall-clock deadline). The unlimited
    /// default keeps the amortized budget check inert.
    pub budget: Budget,
    /// Which shared translation artifacts to consult.
    pub shared: SharedArtifacts,
}

/// A universal host machine bound to one encoded program.
///
/// [`Machine::run`] takes `&self`, and every field is immutable run
/// state, so one machine behind an [`Arc`] can serve any number of
/// concurrent runs — the basis of [`crate::pool::MachinePool`].
#[derive(Debug)]
pub struct Machine {
    program: Program,
    image: Image,
    lib: RoutineLib,
    costs: CostModel,
    limits: Limits,
    /// Shared read-only decode templates consulted before the per-run
    /// private cache. Host-side only; modeled costs are unaffected.
    shared_trans: Option<Arc<FrozenTransCache>>,
}

impl Machine {
    /// Creates a machine for `program`, encoding it under `scheme` with
    /// default costs and limits.
    pub fn new(program: &Program, scheme: SchemeKind) -> Machine {
        Machine::with(program, scheme, CostModel::default(), Limits::default())
    }

    /// Creates a machine with explicit cost model and limits.
    pub fn with(
        program: &Program,
        scheme: SchemeKind,
        costs: CostModel,
        limits: Limits,
    ) -> Machine {
        Machine {
            program: program.clone(),
            image: scheme.encode(program),
            lib: RoutineLib::new(),
            costs,
            limits,
            shared_trans: None,
        }
    }

    /// Creates a machine from a load-time verification witness with
    /// default costs and limits (see [`Machine::load_with`]).
    pub fn load(verified: &analyze::Verified<Image>) -> Machine {
        Machine::load_with(verified, CostModel::default(), Limits::default())
    }

    /// Creates a machine from an [`analyze::Verified`] witness: the
    /// machine runs the exact image and program the verifier proved. The
    /// witness only gates construction — execution is the same checked
    /// path every machine runs, so an image the verifier wrongly accepted
    /// still traps instead of misbehaving.
    ///
    /// ```
    /// use dir::encode::SchemeKind;
    /// use uhm::{Machine, Mode};
    ///
    /// let hir = hlr::compile("proc main() begin write 40 + 2; end")?;
    /// let prog = dir::compiler::compile(&hir);
    /// let verified = analyze::verify(&prog, SchemeKind::Huffman.encode(&prog)).unwrap();
    /// let machine = Machine::load(&verified);
    /// assert_eq!(machine.run(&Mode::Interpreter).unwrap().output, vec![42]);
    /// # Ok::<(), hlr::Error>(())
    /// ```
    pub fn load_with(
        verified: &analyze::Verified<Image>,
        costs: CostModel,
        limits: Limits,
    ) -> Machine {
        Machine {
            program: verified.program().clone(),
            image: verified.get().clone(),
            lib: RoutineLib::new(),
            costs,
            limits,
            shared_trans: None,
        }
    }

    /// Selects the host decoder implementation (tree-walking reference or
    /// table-driven fast plane). Outputs, traps and every *modeled*
    /// metric are identical either way; only host wall-clock differs.
    pub fn set_decoder(&mut self, mode: DecodeMode) -> &mut Self {
        self.image.set_decode_mode(mode);
        self
    }

    /// Attaches (or detaches) a frozen, thread-shareable snapshot of
    /// DIR→PSDER decode templates. Runs consult the snapshot before the
    /// per-run private [`psder::TransCache`], so tenants of a
    /// [`MachinePool`](crate::pool::MachinePool) reuse one table instead
    /// of rebuilding identical templates per worker. Purely host-side:
    /// outputs, traps and every *modeled* metric are unchanged.
    pub fn set_shared_translations(&mut self, shared: Option<Arc<FrozenTransCache>>) -> &mut Self {
        self.shared_trans = shared;
        self
    }

    /// Pre-translates this machine's whole program into a frozen template
    /// snapshot and attaches it (see [`Machine::set_shared_translations`]).
    ///
    /// ```
    /// use dir::encode::SchemeKind;
    /// use uhm::{Machine, Mode};
    ///
    /// let hir = hlr::compile("proc main() begin int i; for i := 0 to 9 do write i; end")?;
    /// let prog = dir::compiler::compile(&hir);
    /// let mut machine = Machine::new(&prog, SchemeKind::Huffman);
    /// let fresh = machine.run(&Mode::Interpreter).unwrap();
    /// machine.freeze_translations();
    /// let shared = machine.run(&Mode::Interpreter).unwrap();
    /// // Host-side only: output and every modeled metric are unchanged.
    /// assert_eq!(fresh.output, shared.output);
    /// assert_eq!(fresh.metrics, shared.metrics);
    /// # Ok::<(), hlr::Error>(())
    /// ```
    ///
    /// Both the pool ([`crate::pool::MachinePool`]) and the service
    /// front-end ([`crate::service::Service`]) expect frozen machines,
    /// so one read-only snapshot serves every worker and request.
    pub fn freeze_translations(&mut self) -> &mut Self {
        let frozen = FrozenTransCache::for_program(&self.program.code);
        self.set_shared_translations(Some(Arc::new(frozen)))
    }

    /// The DIR program this machine executes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The encoded image this machine executes from.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Runs the program under `mode` with tracing compiled out.
    ///
    /// `run` takes `&self`, so one machine can serve many runs — or many
    /// threads:
    ///
    /// ```
    /// use dir::encode::SchemeKind;
    /// use uhm::{DtbConfig, Machine, Mode};
    ///
    /// let hir = hlr::compile("proc main() begin write 2 + 3; end")?;
    /// let prog = dir::compiler::compile(&hir);
    /// let machine = Machine::new(&prog, SchemeKind::Packed);
    /// let t1 = machine.run(&Mode::Interpreter).unwrap();
    /// let t2 = machine.run(&Mode::Dtb(DtbConfig::with_capacity(16))).unwrap();
    /// assert_eq!(t1.output, vec![5]);
    /// assert_eq!(t1.output, t2.output); // all modes are semantically identical
    /// # Ok::<(), hlr::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the same [`Trap`]s as [`dir::exec::run`]; all modes trap
    /// identically on identical programs.
    pub fn run(&self, mode: &Mode) -> Result<Report, Trap> {
        self.run_with(mode, &mut NullSink, RunOptions::default())
    }

    /// Runs the program under `mode` with the per-run `opts`, emitting
    /// typed trace events into `sink`. With [`NullSink`] (what
    /// [`Machine::run`] passes) the emission sites monomorphize to
    /// nothing, so tracing has no cost when disabled. Enabled sinks whose
    /// [`CLASSIFY_MISSES`](TraceSink::CLASSIFY_MISSES) is `true` (the
    /// default — diagnostic sinks like [`telemetry::RingSink`])
    /// additionally switch on the DTB miss taxonomy, so `DtbMiss` events
    /// carry a cold/capacity/conflict classification; profiling sinks
    /// leave it off so their runs' metrics stay bit-identical to an
    /// untraced run.
    ///
    /// The machine itself stays shared and immutable: a supervisor varies
    /// only `opts` between attempts (fault seed, budget, which shared
    /// artifacts to trust).
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`], plus
    /// [`Trap::FuelExhausted`]/[`Trap::DeadlineExceeded`] when
    /// [`RunOptions::budget`] fires.
    pub fn run_with<S: TraceSink>(
        &self,
        mode: &Mode,
        sink: &mut S,
        opts: RunOptions,
    ) -> Result<Report, Trap> {
        let RunOptions {
            faults,
            retry,
            budget,
            shared,
        } = opts;
        let shared = match shared {
            SharedArtifacts::Machine => self.shared_trans.clone(),
            SharedArtifacts::Bypass => None,
            SharedArtifacts::Override(snapshot) => Some(snapshot),
        };
        let mut dtb = match mode {
            Mode::Dtb(cfg) => Some(Dtb::new(*cfg)),
            Mode::TwoLevelDtb { l1, .. } => Some(Dtb::new(*l1)),
            _ => None,
        };
        let mut dtb2 = match mode {
            Mode::TwoLevelDtb { l2, .. } => Some(Dtb::new(*l2)),
            _ => None,
        };
        // The shadow three-C classifier is observable (it fills the
        // cold/capacity/conflict taxonomy in `DtbStats`) and costs a
        // probe per lookup, so profiling sinks opt out via
        // `CLASSIFY_MISSES` to keep profiled metrics bit-identical to an
        // untraced run.
        if S::ENABLED && S::CLASSIFY_MISSES {
            if let Some(d) = dtb.as_mut() {
                d.enable_classification();
            }
            if let Some(d) = dtb2.as_mut() {
                d.enable_classification();
            }
        }
        let mut run = Run {
            machine: self,
            engine: Engine::new(&self.program, self.limits.max_depth),
            metrics: Metrics::default(),
            dtb,
            dtb2,
            icache: match mode {
                Mode::ICache { geometry } => Some(SetAssocCache::new(*geometry)),
                _ => None,
            },
            sink,
            faults: faults.map(FaultInjector::new),
            retry,
            // A mutable level-2 copy of the encoded stream, so injected
            // DIR corruption persists without touching the pristine
            // image shared across runs.
            dir_bytes: faults.as_ref().map(|_| self.image.bytes.clone()),
            degraded: HashSet::new(),
            fail_counts: HashMap::new(),
            trans: psder::TransCache::new(),
            shared,
            fuel: budget.fuel,
            deadline: budget
                .deadline_ns
                .map(|ns| Instant::now() + std::time::Duration::from_nanos(ns)),
            tier: Tier::Interp,
            cycle_total: 0,
        };
        run.execute(mode)?;
        let mut metrics = run.metrics;
        metrics.faults = run.faults.as_ref().map(FaultInjector::stats);
        metrics.dtb = run.dtb.as_ref().map(super::dtb::Dtb::stats);
        metrics.dtb2 = run.dtb2.as_ref().map(super::dtb::Dtb::stats);
        metrics.icache = run.icache.as_ref().map(memsim::SetAssocCache::stats);
        Ok(Report {
            output: run.engine.into_output(),
            metrics,
        })
    }
}

struct Run<'m, S: TraceSink> {
    machine: &'m Machine,
    engine: Engine,
    metrics: Metrics,
    dtb: Option<Dtb>,
    dtb2: Option<Dtb>,
    icache: Option<SetAssocCache<()>>,
    sink: &'m mut S,
    faults: Option<FaultInjector>,
    /// Fault-recovery policy of this run (fault plane only).
    retry: RetryPolicy,
    /// Mutable level-2 copy of the encoded DIR stream (fault plane only).
    dir_bytes: Option<Vec<u8>>,
    /// DIR addresses degraded to pure interpretation after repeated
    /// integrity failures.
    degraded: HashSet<u32>,
    /// Consecutive integrity failures per DIR address, reset on a clean
    /// dispatch.
    fail_counts: HashMap<u32, u32>,
    /// Memoized DIR→PSDER templates. Purely host-side: the modeled
    /// generation/store cycles are charged per translation event exactly
    /// as before, but repeated events reuse one shared sequence instead
    /// of rebuilding it.
    trans: psder::TransCache,
    /// The shared template snapshot this run consults (already resolved
    /// from [`RunOptions::shared`] against the machine's own snapshot).
    shared: Option<Arc<FrozenTransCache>>,
    /// Modeled-cycle allowance, compared against the run's cycle total
    /// every [`BUDGET_CHECK_INTERVAL`] retires.
    fuel: Option<u64>,
    /// Absolute wall-clock deadline, checked on the same amortized
    /// schedule as `fuel`.
    deadline: Option<Instant>,
    /// Which tier executed the instruction currently in flight. Only
    /// maintained when the sink is enabled; consumed by the `Retire`
    /// event at the end of each step.
    tier: Tier,
    /// Running copy of `metrics.cycles.total()`, maintained by
    /// [`Run::charge`] only when the sink is enabled, so the per-retire
    /// cycle delta is a register subtraction instead of re-summing the
    /// whole [`CycleBreakdown`] on every instruction.
    cycle_total: u64,
}

/// Where one DIR instruction's execution leads.
enum Next {
    Goto(u32),
    Halt,
}

/// Outcome of the dispatch-time integrity check on a DTB hit.
enum LineState {
    /// Checksum verified (or no fault plane attached): dispatch.
    Clean(Handle),
    /// Checksum failed: line invalidated, caller retranslates.
    Recovered,
    /// Failure count crossed the policy threshold: the instruction was
    /// run interpretively and the address is degraded from here on.
    Degraded(Next),
}

/// The single checked accessor replacing the old `expect("dtb mode")`
/// unwraps: a [`Mode`]/buffer mismatch reports
/// [`Trap::MisconfiguredMode`] instead of panicking.
fn require<T>(buffer: Option<T>, what: &'static str) -> Result<T, Trap> {
    buffer.ok_or(Trap::MisconfiguredMode(what))
}

/// What [`require`] reports for a missing first-level DTB.
const NO_DTB: &str = "DTB mode without a first-level buffer";
/// What [`require`] reports for a missing second-level store.
const NO_DTB2: &str = "two-level mode without a second-level store";

impl<'m, S: TraceSink> Run<'m, S> {
    fn costs(&self) -> &CostModel {
        &self.machine.costs
    }

    /// Charges `v` modeled cycles to one [`CycleBreakdown`] component.
    /// Every cycle-cost site routes through here so `cycle_total` stays
    /// an exact running copy of `metrics.cycles.total()` whenever the
    /// sink is enabled — the basis of the O(1) retire-delta computation.
    #[inline]
    fn charge(&mut self, component: impl FnOnce(&mut CycleBreakdown) -> &mut u64, v: u64) {
        *component(&mut self.metrics.cycles) += v;
        if S::ENABLED {
            self.cycle_total += v;
        }
    }

    /// The host-side template for `(inst, next)`: the run's resolved
    /// shared snapshot when it covers the pair, the run's private memo
    /// cache otherwise. Identical sequences either way — the split only
    /// decides which allocation is reused.
    fn translated(&mut self, inst: dir::Inst, next: u32) -> Arc<[ShortInstr]> {
        if let Some(shared) = self.shared.as_deref() {
            if let Some(sequence) = shared.get(inst, next) {
                return sequence;
            }
        }
        self.trans.translate(inst, next)
    }

    /// Pure interpretation of one DIR instruction: fetch, decode and run
    /// the translation inline, bypassing every translation buffer. The
    /// interpreter mode's step, and the fallback degraded addresses take.
    fn interp_one(&mut self, pc: u32) -> Result<Next, Trap> {
        if S::ENABLED {
            self.tier = Tier::Interp;
        }
        let inst = self.fetch_decode(pc)?;
        let sequence = self.translated(inst, pc + 1);
        self.run_inline(&sequence)
    }

    /// Rolls the per-instruction DTB corruption dice: overwrite one word
    /// of a random resident line and/or poison a random tag, leaving
    /// guard checksums stale so the dispatch path detects the damage.
    fn inject_dtb_faults(&mut self) {
        let Some(inj) = self.faults.as_mut() else {
            return;
        };
        let step = self.metrics.instructions;
        let word_roll = inj.roll(FaultKind::DtbWord, step);
        let tag_roll = inj.roll(FaultKind::DtbTag, step);
        if !word_roll && !tag_roll {
            return;
        }
        let Some(dtb) = self.dtb.as_mut() else {
            return;
        };
        if word_roll {
            let way = inj.pick(dtb.ways_total() as u64) as usize;
            let index = inj.pick(u64::from(u32::MAX));
            if let Some(addr) = dtb.corrupt_word_in(way, index, |w| inj.corrupt_word(w)) {
                inj.note(FaultKind::DtbWord);
                if S::ENABLED {
                    self.sink.emit(Event::FaultInjected {
                        kind: FaultKind::DtbWord,
                        addr,
                    });
                }
            }
        }
        if tag_roll {
            let way = inj.pick(dtb.ways_total() as u64) as usize;
            let bit = inj.pick(32) as u32;
            if let Some(addr) = dtb.poison_tag(way, bit) {
                inj.note(FaultKind::DtbTag);
                if S::ENABLED {
                    self.sink.emit(Event::FaultInjected {
                        kind: FaultKind::DtbTag,
                        addr,
                    });
                }
            }
        }
    }

    /// Dispatch-time integrity check of a first-level DTB hit. With no
    /// fault plane attached the check is skipped entirely, keeping the
    /// zero-fault pipeline identical to the pre-fault machine. On a
    /// checksum failure the line is invalidated and counted as a
    /// `recovery`-class miss; when the consecutive-failure count at this
    /// address crosses the retry policy's threshold, the address
    /// degrades to pure interpretation for the rest of the run.
    fn verify_hit(&mut self, pc: u32, handle: Handle) -> Result<LineState, Trap> {
        if self.faults.is_none() {
            return Ok(LineState::Clean(handle));
        }
        if require(self.dtb.as_ref(), NO_DTB)?.verify(handle) {
            self.fail_counts.remove(&pc);
            return Ok(LineState::Clean(handle));
        }
        require(self.dtb.as_mut(), NO_DTB)?.invalidate(handle);
        self.metrics.recoveries += 1;
        if S::ENABLED {
            self.sink.emit(Event::DtbMiss {
                addr: pc,
                kind: MissKind::Recovery,
            });
        }
        let failures = self.fail_counts.entry(pc).or_insert(0);
        *failures += 1;
        if *failures >= self.retry.degrade_after.max(1) {
            self.fail_counts.remove(&pc);
            self.degraded.insert(pc);
            self.metrics.degraded_instructions += 1;
            if S::ENABLED {
                self.sink.emit(Event::Degraded { addr: pc });
            }
            return Ok(LineState::Degraded(self.interp_one(pc)?));
        }
        Ok(LineState::Recovered)
    }

    /// Fetches and decodes the DIR instruction at `pc` from level 2 (or
    /// through the i-cache when present), charging fetch and decode cycles.
    ///
    /// Under the fault plane, a fetch may be dropped (retried against the
    /// policy budget, charging full fetch traffic each time) or have one
    /// bit of its encoded span flipped in the machine's level-2 copy; a
    /// stream that no longer decodes is terminal ([`Trap::CorruptDir`]),
    /// because the static DIR is the ground truth nothing can restore.
    fn fetch_decode(&mut self, pc: u32) -> Result<dir::Inst, Trap> {
        let word_bits = self.costs().word_bits;
        let (tau_d, t2) = (self.costs().mem.tau_d, self.costs().mem.t2);
        let max_retries = self.retry.max_fetch_retries;
        let words = self.machine.image.fetch_words(pc, word_bits);
        let step = self.metrics.instructions;
        if self.faults.is_some() {
            let mut dropped = 0u32;
            while let Some(inj) = self.faults.as_mut() {
                if dropped > max_retries || !inj.roll(FaultKind::FetchDrop, step) {
                    break;
                }
                inj.note(FaultKind::FetchDrop);
                dropped += 1;
                self.metrics.fetch_retries += 1;
                self.charge(|c| &mut c.fetch_l2, words as u64 * t2);
                if S::ENABLED {
                    self.sink.emit(Event::FaultInjected {
                        kind: FaultKind::FetchDrop,
                        addr: pc,
                    });
                }
            }
            if dropped > max_retries {
                return Err(Trap::FetchFailed { addr: pc });
            }
            let inj = self.faults.as_mut().expect("checked above");
            if inj.roll(FaultKind::DirBit, step) {
                let image = &self.machine.image;
                let start = image.offsets[pc as usize];
                let end = image
                    .offsets
                    .get(pc as usize + 1)
                    .copied()
                    .unwrap_or(image.bit_len)
                    .max(start + 1);
                let bit = start + inj.pick(end - start);
                if let Some(bytes) = self.dir_bytes.as_mut() {
                    bytes[(bit / 8) as usize] ^= 0x80 >> (bit % 8);
                    inj.note(FaultKind::DirBit);
                    if S::ENABLED {
                        self.sink.emit(Event::FaultInjected {
                            kind: FaultKind::DirBit,
                            addr: pc,
                        });
                    }
                }
            }
        }
        let image = &self.machine.image;
        self.metrics.l2_words += words as u64;
        match &mut self.icache {
            Some(cache) => {
                // Cache individual level-2 words of the instruction stream.
                let first = image.offsets[pc as usize] / word_bits as u64;
                let mut fetch = 0u64;
                for w in 0..words as u64 {
                    fetch += match cache.access(first + w) {
                        Access::Hit => tau_d,
                        Access::Miss { .. } => t2,
                    };
                }
                self.charge(|c| &mut c.fetch_cache, fetch);
            }
            None => {
                self.charge(|c| &mut c.fetch_l2, words as u64 * t2);
            }
        }
        if S::ENABLED {
            self.sink.emit(Event::L2Fetch { addr: pc, words });
        }
        let decoded = match self.dir_bytes.as_deref() {
            Some(bytes) => image.decode_from(bytes, pc),
            None => image.decode(pc),
        }
        .map_err(|_| Trap::CorruptDir { addr: pc })?;
        self.metrics.decoded += 1;
        let decode_cost = self.costs().scaled_decode(decoded.cost as u64) * self.costs().mem.t1;
        self.charge(|c| &mut c.decode, decode_cost);
        if S::ENABLED {
            self.sink.emit(Event::Decode {
                addr: pc,
                cost: decoded.cost,
                bits: decoded.bits as u32,
            });
        }
        Ok(decoded.inst)
    }

    /// Executes one short instruction, running any called routine to
    /// completion on IU1. Returns the INTERP target if this word ended the
    /// sequence.
    fn exec_short(&mut self, word: ShortInstr) -> Result<Option<Next>, Trap> {
        match self.engine.exec_short(word)? {
            ShortEffect::Continue => Ok(None),
            ShortEffect::CallRoutine(id) => {
                if S::ENABLED {
                    self.sink.emit(Event::RoutineEnter {
                        id: id.index() as u16,
                    });
                }
                let mut words: u32 = 0;
                for w in self.machine.lib.words(id) {
                    words += 1;
                    self.metrics.routine_words += 1;
                    self.charge(|c| &mut c.semantic, self.costs().mem.t1);
                    if self.engine.exec_word(w)? == MicroEffect::Halt {
                        if S::ENABLED {
                            self.sink.emit(Event::RoutineExit {
                                id: id.index() as u16,
                                words,
                            });
                        }
                        return Ok(Some(Next::Halt));
                    }
                }
                if S::ENABLED {
                    self.sink.emit(Event::RoutineExit {
                        id: id.index() as u16,
                        words,
                    });
                }
                Ok(None)
            }
            ShortEffect::Interp(addr) => Ok(Some(Next::Goto(addr))),
        }
    }

    /// Runs a translation that is *not* resident in the DTB (interpreter
    /// and i-cache modes, or an uncacheable overflow): IU2 steering words
    /// execute from level-1 interpreter code at `t1` each.
    fn run_inline(&mut self, sequence: &[ShortInstr]) -> Result<Next, Trap> {
        if S::ENABLED {
            self.tier = Tier::Interp;
        }
        for &word in sequence {
            self.metrics.short_words += 1;
            self.charge(|c| &mut c.steering, self.costs().mem.t1);
            if let Some(next) = self.exec_short(word)? {
                return Ok(next);
            }
        }
        Err(Trap::Malformed("sequence ended without INTERP"))
    }

    fn execute(&mut self, mode: &Mode) -> Result<(), Trap> {
        let mut pc: u32 = 0;
        let mut steps: u64 = 0;
        // Carried across iterations, with `cycle_total` maintained by
        // `charge`, so the retire delta costs a register subtraction —
        // the deltas still partition the run's cycle total exactly.
        let mut cycles_before = if S::ENABLED { self.cycle_total } else { 0 };
        loop {
            steps += 1;
            if steps > self.machine.limits.max_steps {
                return Err(Trap::StepLimit);
            }
            // Amortized budget check: one mask test per instruction, the
            // real work only every BUDGET_CHECK_INTERVAL retires — and
            // only when a bound is actually set. Fuel is modeled cycles,
            // so fuel preemption fires at a deterministic instruction;
            // the deadline reads the host clock and is availability-only.
            if steps & (BUDGET_CHECK_INTERVAL - 1) == 0 {
                if let Some(fuel) = self.fuel {
                    if self.metrics.cycles.total() > fuel {
                        return Err(Trap::FuelExhausted);
                    }
                }
                if let Some(deadline) = self.deadline {
                    if Instant::now() > deadline {
                        return Err(Trap::DeadlineExceeded);
                    }
                }
            }
            self.metrics.instructions += 1;
            if pc as usize >= self.machine.image.len() {
                return Err(Trap::Malformed("pc out of range"));
            }

            let next = match mode {
                Mode::Interpreter | Mode::ICache { .. } => self.interp_one(pc)?,
                Mode::Dtb(_) => self.step_dtb(pc)?,
                Mode::TwoLevelDtb { .. } => self.step_two_level(pc)?,
            };
            if S::ENABLED {
                // Emitted after every sub-event this instruction caused,
                // carrying its full modeled cost: retire cycles sum to
                // the run's cycle total exactly.
                debug_assert_eq!(
                    self.cycle_total,
                    self.metrics.cycles.total(),
                    "a cycle-cost site bypassed Run::charge"
                );
                let total = self.cycle_total;
                let delta = total - cycles_before;
                cycles_before = total;
                self.sink.emit(Event::Retire {
                    addr: pc,
                    tier: self.tier,
                    cycles: delta.min(u64::from(u32::MAX)) as u32,
                });
            }
            match next {
                Next::Goto(addr) => pc = addr,
                Next::Halt => return Ok(()),
            }
        }
    }

    /// One DIR instruction under the DTB: the INTERP flow of Figure 4,
    /// with the fault plane's verify/recover/degrade wrapped around the
    /// hit path.
    fn step_dtb(&mut self, pc: u32) -> Result<Next, Trap> {
        // Degraded region: pure interpretation, never touching the DTB.
        if self.degraded.contains(&pc) {
            self.metrics.degraded_instructions += 1;
            return self.interp_one(pc);
        }
        self.inject_dtb_faults();
        // INTERP presents the DIR address to the associative address array.
        self.charge(|c| &mut c.lookup, self.costs().mem.tau_d);
        let looked = require(self.dtb.as_mut(), NO_DTB)?.lookup(pc);
        let mut recovered = false;
        let hit = match looked {
            Some(h) => match self.verify_hit(pc, h)? {
                LineState::Clean(h) => Some(h),
                LineState::Recovered => {
                    recovered = true;
                    None
                }
                LineState::Degraded(next) => return Ok(next),
            },
            None => None,
        };
        let handle = match hit {
            Some(h) => {
                if S::ENABLED {
                    self.sink.emit(Event::DtbHit { addr: pc });
                }
                h
            }
            None => {
                // A recovery already emitted its own miss event.
                if S::ENABLED && !recovered {
                    let kind = require(self.dtb.as_ref(), NO_DTB)?
                        .last_miss_kind()
                        .unwrap_or(MissKind::Cold);
                    self.sink.emit(Event::DtbMiss { addr: pc, kind });
                }
                // Miss: trap to the dynamic translation routine (via
                // DTRPOINT): fetch the DIR instruction, decode it, generate
                // the PSDER translation, store it at the location chosen by
                // the replacement logic.
                let d0 = self.metrics.cycles.decode;
                let inst = self.fetch_decode(pc)?;
                let sequence = self.translated(inst, pc + 1);
                let gen = sequence.len() as u64 * self.costs().gen_per_word;
                let store = sequence.len() as u64 * self.costs().store_per_word;
                self.charge(|c| &mut c.generate, gen * self.costs().mem.t1);
                self.charge(|c| &mut c.store, store * self.costs().mem.t1);
                if S::ENABLED {
                    self.sink.emit(Event::Translate {
                        addr: pc,
                        decode_cycles: self.metrics.cycles.decode - d0,
                        generate_cycles: (gen + store) * self.costs().mem.t1,
                    });
                }
                let dtb = require(self.dtb.as_mut(), NO_DTB)?;
                match dtb.fill(pc, &sequence) {
                    Some(h) => {
                        if S::ENABLED {
                            if let Some(victim) = dtb.last_evicted() {
                                self.sink.emit(Event::Evict { addr: pc, victim });
                            }
                            let occupancy = dtb.occupancy() as u32;
                            self.sink.emit(Event::DtbFill {
                                addr: pc,
                                occupancy,
                            });
                        }
                        h
                    }
                    None => {
                        // Overflow area exhausted: execute without caching.
                        return self.run_inline(&sequence);
                    }
                }
            }
        };
        // Execute the PSDER translation out of the buffer array, one short
        // word per τ_D.
        if S::ENABLED {
            self.tier = Tier::Psder;
        }
        let len = require(self.dtb.as_ref(), NO_DTB)?.len(handle);
        for i in 0..len {
            let word = require(self.dtb.as_ref(), NO_DTB)?.word(handle, i);
            self.metrics.short_words += 1;
            self.charge(|c| &mut c.fetch_dtb, self.costs().mem.tau_d);
            if let Some(next) = self.exec_short(word)? {
                return Ok(next);
            }
        }
        Err(Trap::Malformed("translation ended without INTERP"))
    }

    /// One DIR instruction under two-level dynamic translation.
    ///
    /// L1 miss + L2 hit promotes the translation (a copy, cheaper than
    /// re-translating); L1 and L2 miss runs the full dynamic translation
    /// routine and fills both levels.
    fn step_two_level(&mut self, pc: u32) -> Result<Next, Trap> {
        // Degraded region: pure interpretation, never touching either level.
        if self.degraded.contains(&pc) {
            self.metrics.degraded_instructions += 1;
            return self.interp_one(pc);
        }
        self.inject_dtb_faults();
        let (tau_d, tau2) = (self.costs().mem.tau_d, self.costs().tau_dtb2);
        self.charge(|c| &mut c.lookup, tau_d);
        let looked = require(self.dtb.as_mut(), NO_DTB)?.lookup(pc);
        let mut recovered = false;
        let l1_handle = match looked {
            Some(h) => match self.verify_hit(pc, h)? {
                LineState::Clean(h) => Some(h),
                LineState::Recovered => {
                    // Fall to the miss path: a second-level hit repairs the
                    // line by promotion, cheaper than retranslating.
                    recovered = true;
                    None
                }
                LineState::Degraded(next) => return Ok(next),
            },
            None => None,
        };
        let handle = match l1_handle {
            Some(h) => {
                if S::ENABLED {
                    self.sink.emit(Event::DtbHit { addr: pc });
                }
                h
            }
            None => {
                // A recovery already emitted its own miss event.
                if S::ENABLED && !recovered {
                    let kind = require(self.dtb.as_ref(), NO_DTB)?
                        .last_miss_kind()
                        .unwrap_or(MissKind::Cold);
                    self.sink.emit(Event::DtbMiss { addr: pc, kind });
                }
                // Probe the second-level store.
                self.charge(|c| &mut c.lookup2, tau2);
                let l2_hit = require(self.dtb2.as_mut(), NO_DTB2)?.lookup(pc);
                let sequence: Arc<[ShortInstr]> = match l2_hit {
                    Some(h2) => {
                        // Promote: read each word from L2 (tau_dtb2) and
                        // store it into L1 (store_per_word each).
                        let dtb2 = require(self.dtb2.as_ref(), NO_DTB2)?;
                        let len = dtb2.len(h2);
                        let words: Vec<ShortInstr> = (0..len).map(|i| dtb2.word(h2, i)).collect();
                        let promote_cost = len as u64 * (tau2 + self.costs().store_per_word);
                        self.charge(|c| &mut c.promote, promote_cost);
                        if S::ENABLED {
                            self.sink.emit(Event::Promote {
                                addr: pc,
                                words: len,
                            });
                        }
                        words.into()
                    }
                    None => {
                        // Full translation, then fill L2 as well.
                        let d0 = self.metrics.cycles.decode;
                        let inst = self.fetch_decode(pc)?;
                        let sequence = self.translated(inst, pc + 1);
                        let gen = sequence.len() as u64 * self.costs().gen_per_word;
                        let store = sequence.len() as u64 * self.costs().store_per_word * 2; // stored at both levels
                        self.charge(|c| &mut c.generate, gen * self.costs().mem.t1);
                        self.charge(|c| &mut c.store, store * self.costs().mem.t1);
                        if S::ENABLED {
                            self.sink.emit(Event::Translate {
                                addr: pc,
                                decode_cycles: self.metrics.cycles.decode - d0,
                                generate_cycles: (gen + store) * self.costs().mem.t1,
                            });
                        }
                        require(self.dtb2.as_mut(), NO_DTB2)?.fill(pc, &sequence);
                        sequence
                    }
                };
                let dtb = require(self.dtb.as_mut(), NO_DTB)?;
                match dtb.fill(pc, &sequence) {
                    Some(h) => {
                        if S::ENABLED {
                            if let Some(victim) = dtb.last_evicted() {
                                self.sink.emit(Event::Evict { addr: pc, victim });
                            }
                            let occupancy = dtb.occupancy() as u32;
                            self.sink.emit(Event::DtbFill {
                                addr: pc,
                                occupancy,
                            });
                        }
                        h
                    }
                    None => return self.run_inline(&sequence),
                }
            }
        };
        if S::ENABLED {
            self.tier = Tier::Psder;
        }
        let len = require(self.dtb.as_ref(), NO_DTB)?.len(handle);
        for i in 0..len {
            let word = require(self.dtb.as_ref(), NO_DTB)?.word(handle, i);
            self.metrics.short_words += 1;
            self.charge(|c| &mut c.fetch_dtb, tau_d);
            if let Some(next) = self.exec_short(word)? {
                return Ok(next);
            }
        }
        Err(Trap::Malformed("translation ended without INTERP"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dir::compiler::compile;

    /// Run options with the fault plane attached.
    fn faulty(faults: FaultConfig) -> RunOptions {
        RunOptions {
            faults: Some(faults),
            ..RunOptions::default()
        }
    }

    fn modes() -> Vec<Mode> {
        vec![
            Mode::Interpreter,
            Mode::Dtb(DtbConfig::with_capacity(64)),
            Mode::ICache {
                geometry: Geometry::new(16, 4),
            },
        ]
    }

    #[test]
    fn all_modes_agree_with_the_reference_on_samples() {
        for s in hlr::programs::ALL {
            let p = compile(&s.compile().unwrap());
            let want = dir::exec::run(&p).unwrap();
            let m = Machine::new(&p, SchemeKind::Packed);
            for mode in modes() {
                let r = m.run(&mode).unwrap_or_else(|e| panic!("{}: {e}", s.name));
                assert_eq!(r.output, want, "{} under {mode:?}", s.name);
            }
        }
    }

    #[test]
    fn all_schemes_execute_identically() {
        let p = compile(&hlr::programs::GCD_CHAIN.compile().unwrap());
        let want = dir::exec::run(&p).unwrap();
        for scheme in SchemeKind::all() {
            let m = Machine::new(&p, scheme);
            for mode in modes() {
                assert_eq!(m.run(&mode).unwrap().output, want, "{scheme} {mode:?}");
            }
        }
    }

    #[test]
    fn modes_agree_on_generated_programs() {
        for seed in 0..15 {
            let ast = hlr::generate::program(seed, &hlr::generate::Config::default());
            let hir = hlr::sema::analyze(&ast).unwrap();
            let p = compile(&hir);
            let want = dir::exec::run(&p).unwrap();
            let m = Machine::new(&p, SchemeKind::Huffman);
            for mode in modes() {
                assert_eq!(m.run(&mode).unwrap().output, want, "seed {seed}");
            }
        }
    }

    #[test]
    fn traps_are_identical_across_modes() {
        for src in [
            "proc main() begin write 1 / 0; end",
            "proc main() begin int a[3]; write a[5]; end",
        ] {
            let p = compile(&hlr::compile(src).unwrap());
            let want = dir::exec::run(&p).unwrap_err();
            let m = Machine::new(&p, SchemeKind::Packed);
            for mode in modes() {
                assert_eq!(m.run(&mode).unwrap_err(), want, "{src} {mode:?}");
            }
        }
    }

    #[test]
    fn dtb_beats_interpreter_on_loopy_code() {
        let p = compile(&hlr::programs::SIEVE.compile().unwrap());
        let m = Machine::new(&p, SchemeKind::Huffman);
        let t1 = m
            .run(&Mode::Interpreter)
            .unwrap()
            .metrics
            .time_per_instruction();
        let t2 = m
            .run(&Mode::Dtb(DtbConfig::with_capacity(256)))
            .unwrap()
            .metrics
            .time_per_instruction();
        assert!(
            t2 < t1,
            "DTB ({t2:.2}) must beat the interpreter ({t1:.2}) on sieve"
        );
    }

    #[test]
    fn dtb_hit_ratio_is_high_in_loops() {
        let p = compile(&hlr::programs::FIB_ITER.compile().unwrap());
        let m = Machine::new(&p, SchemeKind::Packed);
        let r = m.run(&Mode::Dtb(DtbConfig::with_capacity(256))).unwrap();
        let h = r.metrics.dtb.unwrap().hit_ratio();
        assert!(h > 0.9, "hit ratio {h}");
    }

    #[test]
    fn interpreter_decodes_every_instruction() {
        let p = compile(&hlr::programs::FIB_ITER.compile().unwrap());
        let m = Machine::new(&p, SchemeKind::Packed);
        let r = m.run(&Mode::Interpreter).unwrap();
        assert_eq!(r.metrics.decoded, r.metrics.instructions);
        assert!(r.metrics.dtb.is_none());
    }

    #[test]
    fn dtb_decodes_only_misses() {
        let p = compile(&hlr::programs::FIB_ITER.compile().unwrap());
        let m = Machine::new(&p, SchemeKind::Packed);
        let r = m.run(&Mode::Dtb(DtbConfig::with_capacity(256))).unwrap();
        let dtb = r.metrics.dtb.unwrap();
        assert_eq!(r.metrics.decoded, dtb.misses - dtb.uncached);
        assert!(r.metrics.decoded < r.metrics.instructions / 2);
    }

    #[test]
    fn icache_short_fetches_hit_after_warmup() {
        let p = compile(&hlr::programs::FIB_ITER.compile().unwrap());
        let m = Machine::new(&p, SchemeKind::Packed);
        let r = m
            .run(&Mode::ICache {
                geometry: Geometry::new(64, 4),
            })
            .unwrap();
        let c = r.metrics.icache.unwrap();
        assert!(c.hit_ratio() > 0.9, "icache hit ratio {}", c.hit_ratio());
    }

    #[test]
    fn step_limit_applies() {
        let p = compile(&hlr::compile("proc main() begin while true do skip; end").unwrap());
        let m = Machine::with(
            &p,
            SchemeKind::Packed,
            CostModel::default(),
            Limits {
                max_steps: 1000,
                max_depth: 16,
            },
        );
        for mode in modes() {
            assert_eq!(m.run(&mode).unwrap_err(), Trap::StepLimit, "{mode:?}");
        }
    }

    #[test]
    fn fuel_budget_preempts_runaway_programs_in_every_mode() {
        let p = compile(&hlr::compile("proc main() begin while true do skip; end").unwrap());
        let m = Machine::new(&p, SchemeKind::Packed);
        for mode in modes() {
            let opts = RunOptions {
                budget: Budget::fuel(100_000),
                ..RunOptions::default()
            };
            let err = m.run_with(&mode, &mut NullSink, opts).unwrap_err();
            assert_eq!(err, Trap::FuelExhausted, "{mode:?}");
        }
    }

    #[test]
    fn deadline_budget_preempts_runaway_programs() {
        let p = compile(&hlr::compile("proc main() begin while true do skip; end").unwrap());
        let m = Machine::new(&p, SchemeKind::Packed);
        // 1ms wall-clock: far below what an unbounded spin would take,
        // far above the time to reach the first amortized check.
        let opts = RunOptions {
            budget: Budget::deadline_ns(1_000_000),
            ..RunOptions::default()
        };
        assert_eq!(
            m.run_with(&Mode::Interpreter, &mut NullSink, opts)
                .unwrap_err(),
            Trap::DeadlineExceeded
        );
    }

    #[test]
    fn unfired_budget_is_invisible() {
        let p = compile(&hlr::programs::SIEVE.compile().unwrap());
        let mode = Mode::Dtb(DtbConfig::with_capacity(64));
        let m = Machine::new(&p, SchemeKind::Huffman);
        let plain = m.run(&mode).unwrap();
        let opts = RunOptions {
            budget: Budget {
                fuel: Some(u64::MAX),
                deadline_ns: Some(u64::MAX / 4),
            },
            ..RunOptions::default()
        };
        let budgeted = m.run_with(&mode, &mut NullSink, opts).unwrap();
        assert_eq!(budgeted.output, plain.output);
        assert_eq!(budgeted.metrics, plain.metrics);
    }

    #[test]
    fn poisoned_artifacts_trap_and_bypass_recovers_bit_identically() {
        let p = compile(&hlr::programs::FIB_ITER.compile().unwrap());
        let mut m = Machine::new(&p, SchemeKind::Huffman);
        m.freeze_translations();
        let plain = m.run(&Mode::Interpreter).unwrap();
        let poisoned = Arc::new(FrozenTransCache::for_program(&p.code).poisoned());
        for mode in modes() {
            let err = m
                .run_with(
                    &mode,
                    &mut NullSink,
                    RunOptions {
                        shared: SharedArtifacts::Override(Arc::clone(&poisoned)),
                        ..RunOptions::default()
                    },
                )
                .unwrap_err();
            assert!(
                matches!(err, Trap::Malformed(_)),
                "poisoned artifacts must be caught, got {err:?} under {mode:?}"
            );
        }
        // Bypassing shared artifacts rebuilds templates privately:
        // host-side only, so the result is bit-identical to the shared run.
        let bypass = m
            .run_with(
                &Mode::Interpreter,
                &mut NullSink,
                RunOptions {
                    shared: SharedArtifacts::Bypass,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(bypass.output, plain.output);
        assert_eq!(bypass.metrics, plain.metrics);
    }

    #[test]
    fn measured_parameters_are_plausible() {
        let p = compile(&hlr::programs::SIEVE.compile().unwrap());
        let m = Machine::new(&p, SchemeKind::PairHuffman);
        let r = m.run(&Mode::Interpreter).unwrap();
        let d = r.metrics.mean_decode();
        let x = r.metrics.mean_semantic();
        let s1 = r.metrics.mean_s1();
        assert!((4.0..40.0).contains(&d), "d = {d}");
        assert!((0.5..10.0).contains(&x), "x = {x}");
        assert!((1.5..4.5).contains(&s1), "s1 = {s1}");
    }

    #[test]
    fn tiny_dtb_thrashes_but_stays_correct() {
        let p = compile(&hlr::programs::QUEENS.compile().unwrap());
        let want = dir::exec::run(&p).unwrap();
        let m = Machine::new(&p, SchemeKind::Packed);
        let cfg = DtbConfig {
            geometry: Geometry::new(1, 2),
            unit_words: psder::MAX_TRANSLATION_WORDS,
            allocation: crate::dtb::Allocation::Fixed,
            replacement: crate::dtb::Replacement::Lru,
        };
        let r = m.run(&Mode::Dtb(cfg)).unwrap();
        assert_eq!(r.output, want);
        assert!(r.metrics.dtb.unwrap().hit_ratio() < 0.6);
    }

    #[test]
    fn two_level_dtb_agrees_and_promotes() {
        let p = compile(&hlr::programs::QUEENS.compile().unwrap());
        let want = dir::exec::run(&p).unwrap();
        let m = Machine::new(&p, SchemeKind::PairHuffman);
        let mode = Mode::TwoLevelDtb {
            l1: DtbConfig::with_capacity(8),
            l2: DtbConfig::with_capacity(256),
        };
        let r = m.run(&mode).unwrap();
        assert_eq!(r.output, want);
        let l1 = r.metrics.dtb.unwrap();
        let l2 = r.metrics.dtb2.unwrap();
        // L1 misses that hit L2 were promoted, not re-translated: the
        // decode count equals L2 misses (each instruction translated once
        // per L2 residency), far below L1 misses.
        assert_eq!(r.metrics.decoded, l2.misses - l2.uncached);
        assert!(l2.misses < l1.misses / 2);
        assert!(r.metrics.cycles.promote > 0);
    }

    #[test]
    fn two_level_beats_single_small_dtb_when_working_set_overflows_l1() {
        let p = compile(&hlr::programs::QUEENS.compile().unwrap());
        let m = Machine::new(&p, SchemeKind::PairHuffman);
        let small = DtbConfig::with_capacity(8);
        let t_small = m
            .run(&Mode::Dtb(small))
            .unwrap()
            .metrics
            .time_per_instruction();
        let t_two = m
            .run(&Mode::TwoLevelDtb {
                l1: small,
                l2: DtbConfig::with_capacity(256),
            })
            .unwrap()
            .metrics
            .time_per_instruction();
        assert!(
            t_two < t_small,
            "two-level ({t_two:.2}) must beat the lone small DTB ({t_small:.2})"
        );
    }

    #[test]
    fn decoder_modes_produce_identical_reports() {
        // The host decoder must be invisible to everything modeled:
        // output, instruction counts, cycle breakdowns, DTB statistics.
        let p = compile(&hlr::programs::GCD_CHAIN.compile().unwrap());
        for scheme in SchemeKind::all() {
            for mode in modes() {
                let mut tree = Machine::new(&p, scheme);
                tree.set_decoder(DecodeMode::Tree);
                let mut table = Machine::new(&p, scheme);
                table.set_decoder(DecodeMode::Table);
                let a = tree.run(&mode).unwrap();
                let b = table.run(&mode).unwrap();
                assert_eq!(a.output, b.output, "{scheme} {mode:?}");
                assert_eq!(a.metrics, b.metrics, "{scheme} {mode:?}");
            }
        }
    }

    #[test]
    fn decode_events_corroborate_the_decode_counter() {
        let p = compile(&hlr::programs::FIB_ITER.compile().unwrap());
        let m = Machine::new(&p, SchemeKind::Huffman);
        let mut ring = telemetry::RingSink::new(256);
        let r = m
            .run_with(&Mode::Interpreter, &mut ring, RunOptions::default())
            .unwrap();
        assert_eq!(ring.counts().decodes, r.metrics.decoded);
        // Every retained event carries the modeled per-instruction cost.
        let mut saw_cost = false;
        for e in ring.events() {
            if let Event::Decode { cost, bits, .. } = e {
                assert!(*cost > 0 && *bits > 0);
                saw_cost = true;
            }
        }
        assert!(saw_cost, "ring retained no decode events");
    }

    #[test]
    fn shared_translations_change_no_observable_result() {
        // The frozen template snapshot is a host-side cache: every output,
        // trap and modeled metric must be identical with and without it,
        // in every mode, including two-level translation.
        let p = compile(&hlr::programs::QUEENS.compile().unwrap());
        let mut all = modes();
        all.push(Mode::TwoLevelDtb {
            l1: DtbConfig::with_capacity(8),
            l2: DtbConfig::with_capacity(256),
        });
        for mode in all {
            let plain = Machine::new(&p, SchemeKind::Huffman).run(&mode).unwrap();
            let mut shared = Machine::new(&p, SchemeKind::Huffman);
            shared.freeze_translations();
            let r = shared.run(&mode).unwrap();
            assert_eq!(r.output, plain.output, "{mode:?}");
            assert_eq!(r.metrics, plain.metrics, "{mode:?}");
        }
    }

    #[test]
    fn machine_is_shareable_across_threads() {
        let p = compile(&hlr::programs::FIB_ITER.compile().unwrap());
        let mut m = Machine::new(&p, SchemeKind::Huffman);
        m.freeze_translations();
        let machine = Arc::new(m);
        let want = machine.run(&Mode::Interpreter).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let machine = Arc::clone(&machine);
                let want = &want;
                scope.spawn(move || {
                    let r = machine
                        .run(&Mode::Dtb(DtbConfig::with_capacity(64)))
                        .unwrap();
                    assert_eq!(r.output, want.output);
                });
            }
        });
    }

    #[test]
    fn verified_machine_matches_unverified_exactly() {
        // Loading through a witness must be invisible to everything
        // observable: output and every modeled metric, in every mode.
        for s in hlr::programs::ALL {
            let p = compile(&s.compile().unwrap());
            let verified = analyze::verify(&p, SchemeKind::Huffman.encode(&p)).unwrap();
            let loaded = Machine::load(&verified);
            let plain = Machine::new(&p, SchemeKind::Huffman);
            for mode in modes() {
                let a = loaded.run(&mode).unwrap();
                let b = plain.run(&mode).unwrap();
                assert_eq!(a.output, b.output, "{} {mode:?}", s.name);
                assert_eq!(a.metrics, b.metrics, "{} {mode:?}", s.name);
            }
        }
    }

    #[test]
    fn verified_machine_still_traps_on_dynamic_errors() {
        // Division by zero is not statically refutable; a loaded machine
        // must keep the dynamic traps.
        let p = compile(&hlr::compile("proc main() begin write 1 / 0; end").unwrap());
        let want = dir::exec::run(&p).unwrap_err();
        let verified = analyze::verify(&p, SchemeKind::Packed.encode(&p)).unwrap();
        let m = Machine::load(&verified);
        for mode in modes() {
            assert_eq!(m.run(&mode).unwrap_err(), want, "{mode:?}");
        }
    }

    #[test]
    fn faulted_verified_machine_stays_correct() {
        let p = compile(&hlr::programs::SIEVE.compile().unwrap());
        let want = dir::exec::run(&p).unwrap();
        let verified = analyze::verify(&p, SchemeKind::Huffman.encode(&p)).unwrap();
        let m = Machine::load(&verified);
        let opts = faulty(FaultConfig::only(0xFA, FaultKind::DtbWord, 0.01));
        let r = m
            .run_with(
                &Mode::Dtb(DtbConfig::with_capacity(64)),
                &mut NullSink,
                opts,
            )
            .unwrap();
        assert_eq!(r.output, want, "faulted verified run must recover");
        assert!(r.metrics.recoveries > 0);
    }

    #[test]
    fn require_reports_misconfigured_mode() {
        let err = require(None::<Handle>, NO_DTB).unwrap_err();
        assert_eq!(err, Trap::MisconfiguredMode(NO_DTB));
        assert!(format!("{err}").contains("misconfigured machine mode"));
    }

    #[test]
    fn dtb_corruption_is_recovered_transparently() {
        let p = compile(&hlr::programs::SIEVE.compile().unwrap());
        let want = dir::exec::run(&p).unwrap();
        let m = Machine::new(&p, SchemeKind::Huffman);
        let opts = faulty(FaultConfig::only(0xFA, FaultKind::DtbWord, 0.01));
        let r = m
            .run_with(
                &Mode::Dtb(DtbConfig::with_capacity(64)),
                &mut NullSink,
                opts,
            )
            .unwrap();
        assert_eq!(r.output, want, "recovery must preserve semantics");
        assert!(r.metrics.recoveries > 0, "corruption was never detected");
        assert_eq!(
            r.metrics.recoveries,
            r.metrics.dtb.unwrap().recoveries,
            "machine and DTB recovery counters must agree"
        );
        assert!(r.metrics.faults.unwrap().dtb_words_corrupted > 0);
    }

    #[test]
    fn overflow_allocation_stays_correct_under_pressure() {
        let p = compile(&hlr::programs::QUEENS.compile().unwrap());
        let want = dir::exec::run(&p).unwrap();
        let m = Machine::new(&p, SchemeKind::Packed);
        let cfg = DtbConfig {
            geometry: Geometry::new(8, 2),
            unit_words: 2,
            allocation: crate::dtb::Allocation::Overflow { blocks: 4 },
            replacement: crate::dtb::Replacement::Lru,
        };
        let r = m.run(&Mode::Dtb(cfg)).unwrap();
        assert_eq!(r.output, want);
        let stats = r.metrics.dtb.unwrap();
        assert!(stats.uncached > 0, "pressure must force uncached runs");
    }
}
