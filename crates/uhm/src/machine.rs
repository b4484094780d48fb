//! The universal host machine in its three Section-7 configurations.
//!
//! All three share the [`psder::Engine`] architectural state, the
//! semantic [`psder::RoutineLib`] and the encoded DIR image; they differ
//! only in the fetch path of DIR instructions:
//!
//! * [`Mode::Interpreter`] — the conventional UHM (T1): every DIR
//!   instruction is fetched from level 2 and decoded, every time.
//! * [`Mode::Dtb`] — the paper's proposal (T2): the INTERP instruction
//!   presents the DIR address to the DTB; hits run the line stamped when
//!   the translation was stored, misses trap to the dynamic translation
//!   routine.
//! * [`Mode::ICache`] — the resource-matched baseline (T3): level-2 words
//!   are cached, but every instruction is still decoded.
//!
//! Every translation event — an interpreted or degraded step, a DTB
//! miss, a two-level promotion, an uncached overflow step — stamps the
//! decoded instruction's executable line out of its shape's stencil
//! ([`Stencils`]); nothing else makes a line. A DTB level claims its way
//! by the translation's length: lengths, and the generate, store and
//! promote charges they imply, are each level's modeled contents. The
//! second level keeps the decoded instruction of each way, which a
//! promotion stamps again. Short words ([`Template::new`]) exist only as
//! the first level's fault surface: they are built and stored under the
//! fault plane, whose guard checksums and injected faults read them. The
//! DTB is the only place a translation is kept, as in the paper.

use dir::encode::{word_index, DecodeMode, Image, SchemeKind};
use dir::exec::Trap;
use dir::program::Program;
use memsim::{Access, Geometry, SetAssocCache};
use psder::line::Edge;
use psder::{Engine, Flow, Instance, Line, Stencils, Template};
use std::collections::{HashMap, HashSet};
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

/// Per-run options for [`Machine::run_with`]: every setting that may
/// vary between runs of one shared machine. The default is a plain run —
/// no fault plane, an unlimited budget, clean translations — which is
/// what [`Machine::run`] passes. Observation is the
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
    /// The chaos plane's corrupted-translation injection: every line the
    /// run stamps is dropped again ([`Line::clear`]), so the first
    /// dispatch runs off its end and traps [`Trap::Malformed`] before it
    /// executes anything.
    pub poison_translations: bool,
}

/// A universal host machine bound to one encoded program.
///
/// [`Machine::run`] takes `&self`, and every field is immutable run
/// state, so one machine behind an [`Arc`](std::sync::Arc) can serve any
/// number of concurrent runs — the basis of [`crate::pool::MachinePool`].
#[derive(Debug)]
pub struct Machine {
    program: Program,
    image: Image,
    stencils: &'static Stencils,
    costs: CostModel,
    limits: Limits,
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
            stencils: Stencils::shared(),
            costs,
            limits,
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
            stencils: Stencils::shared(),
            costs,
            limits,
        }
    }

    /// Selects the host decoder implementation (tree-walking reference or
    /// table-driven fast plane). Outputs, traps and every *modeled*
    /// metric are identical either way; only host wall-clock differs.
    pub fn set_decoder(&mut self, mode: DecodeMode) -> &mut Self {
        self.image.set_decode_mode(mode);
        self
    }

    /// Does nothing. It used to pre-translate the program into a shared
    /// template snapshot; a translation is now stamped out of its shape's
    /// stencil, cheaper than a snapshot lookup, so there is nothing to
    /// freeze. Kept so callers written against it still compile.
    pub fn freeze_translations(&mut self) -> &mut Self {
        self
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
    /// only `opts` between attempts (fault seed, budget, whether the
    /// chaos plane corrupts the translations).
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
            poison_translations,
        } = opts;
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
        // Guard checksums cost a pass over every filled line and only
        // the fault plane's dispatch check reads them.
        if faults.is_some() {
            if let Some(d) = dtb.as_mut() {
                d.enable_guards();
            }
        }
        let way = Way {
            line: Line::EMPTY,
            next: 0,
        };
        let ways = vec![way; dtb.as_ref().map_or(0, Dtb::ways_total)];
        // Read only at a second-level hit, so only after the claim that
        // wrote the way's instruction.
        let insts2 = vec![dir::Inst::Halt; dtb2.as_ref().map_or(0, Dtb::ways_total)];
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
            poison: poison_translations,
            fuel: budget.fuel,
            deadline: budget
                .deadline_ns
                .map(|ns| Instant::now() + std::time::Duration::from_nanos(ns)),
            pending: 0,
            ways,
            prev: 0,
            insts2,
            scratch: Line::EMPTY,
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
    icache: Option<SetAssocCache>,
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
    /// Whether every line this run stamps is dropped again
    /// ([`RunOptions::poison_translations`]).
    poison: bool,
    /// Modeled-cycle allowance, compared against the run's cycle total
    /// every [`BUDGET_CHECK_INTERVAL`] retires.
    fuel: Option<u64>,
    /// Absolute wall-clock deadline, checked on the same amortized
    /// schedule as `fuel`.
    deadline: Option<Instant>,
    /// Cycles [`Run::charge`] has charged to the instruction in flight,
    /// kept only when the sink is enabled and handed to its `Retire` by
    /// [`Run::retire`].
    pending: u64,
    /// The host record of each first-level DTB way: its executable line
    /// and its chain hint.
    ways: Vec<Way>,
    /// The first-level way the latest DTB step ran from: the record
    /// whose hint the next lookup tries.
    prev: usize,
    /// The decoded instruction of each second-level way, written when the
    /// way is claimed: a promotion stamps its line from it. The way's
    /// length and the charges it implies are the modeled contents; the
    /// second level stores no words.
    insts2: Vec<dir::Inst>,
    /// The line non-resident translations are stamped into.
    scratch: Line,
}

/// The host's record of one first-level DTB way.
#[derive(Clone)]
struct Way {
    /// The executable line, stamped when the way is claimed and dropped
    /// when it is invalidated. The way's length and the charges it
    /// implies are the modeled contents; its short words, stored only
    /// under the fault plane, are the fault surface. A hit runs this
    /// line.
    line: Line,
    /// The way this line's exit last led to: the first way the next
    /// lookup tries ([`Run::lookup`]). Only a guess; a lookup validates
    /// it against the tag array.
    next: usize,
}

/// Where one DIR instruction's execution leads.
enum Next {
    Goto(u32),
    Halt,
}

/// Outcome of the dispatch-time integrity check on a DTB hit.
enum LineState {
    /// Checksum verified: dispatch.
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
    /// Every cycle-cost site routes through here, so with an enabled
    /// sink `pending` holds what the instruction in flight has been
    /// charged so far.
    #[inline]
    fn charge(&mut self, component: impl FnOnce(&mut CycleBreakdown) -> &mut u64, v: u64) {
        *component(&mut self.metrics.cycles) += v;
        if S::ENABLED {
            self.pending += v;
        }
    }

    /// Emits the `Retire` of the instruction at `pc`, after every
    /// sub-event it caused, carrying the cycles [`Run::charge`] summed
    /// for it: retire cycles sum to the run's cycle total exactly.
    #[inline]
    fn retire(&mut self, pc: u32, tier: Tier) {
        if S::ENABLED {
            let cycles = std::mem::take(&mut self.pending);
            self.sink.emit(Event::Retire {
                addr: pc,
                tier,
                cycles: cycles.min(u64::from(u32::MAX)) as u32,
            });
        }
    }

    /// Stamps a translation into the line `way` names — a first-level
    /// way's, or the scratch line when `way` is `None`. Under the chaos
    /// plane's poisoning the line is dropped again, so its dispatch runs
    /// off its end and traps [`Trap::Malformed`].
    #[inline(always)]
    fn stamp(&mut self, stencil: Instance<'_>, way: Option<usize>) {
        let line = match way {
            Some(way) => &mut self.ways[way].line,
            None => &mut self.scratch,
        };
        stencil.line_into(line);
        if self.poison {
            line.clear();
        }
    }

    /// Pure interpretation of one DIR instruction: fetch, decode and run
    /// the translation inline, bypassing every translation buffer. The
    /// interpreter mode's step, and the fallback degraded addresses take.
    /// Only the line is stamped out; no words are built.
    fn interp_one(&mut self, pc: u32) -> Result<Next, Trap> {
        let inst = self.fetch_decode(pc)?;
        self.stamp(self.machine.stencils.instance(inst, pc + 1), None);
        self.run_line(None)
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

    /// Dispatch-time integrity check of a first-level DTB hit, made only
    /// when a fault plane is attached (the step function without one
    /// never calls it). On a checksum failure the line is invalidated
    /// and counted as a `recovery`-class miss; when the consecutive-
    /// failure count at this address crosses the retry policy's
    /// threshold, the address degrades to pure interpretation for the
    /// rest of the run.
    fn verify_hit(&mut self, pc: u32, handle: Handle) -> Result<LineState, Trap> {
        if require(self.dtb.as_ref(), NO_DTB)?.verify(handle) {
            self.fail_counts.remove(&pc);
            return Ok(LineState::Clean(handle));
        }
        require(self.dtb.as_mut(), NO_DTB)?.invalidate(handle);
        self.ways[handle.way()].line.clear();
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
    ///
    /// Inlined into each step that calls it: as a call it made the loop
    /// mix through a 16-entry DTB ~16% slower, and `interp_huffman` ~20%.
    #[inline(always)]
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
                let first = word_index(image.offsets[pc as usize], word_bits);
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

    /// Runs a stamped line — a first-level DTB way's, or the scratch
    /// line when `way` is `None` — and charges its constant cost: each
    /// short word at `τ_D` from the buffer array or at `t1` as level-1
    /// steering code, each routine word at `t1`. A trap drops the run's
    /// metrics, so only the two exits need exact charges.
    #[inline(always)]
    fn run_line(&mut self, way: Option<usize>) -> Result<Next, Trap> {
        let line = match way {
            Some(way) => &self.ways[way].line,
            None => &self.scratch,
        };
        let flow = if S::ENABLED && S::ROUTINE_EDGES {
            let sink = &mut *self.sink;
            self.engine.exec_line_traced(line, |edge| {
                sink.emit(match edge {
                    Edge::Enter(id) => Event::RoutineEnter {
                        id: id.index() as u16,
                    },
                    Edge::Exit(id, words) => Event::RoutineExit {
                        id: id.index() as u16,
                        words,
                    },
                });
            })?
        } else {
            self.engine.exec_line(line)?
        };
        let meta = line.meta();
        let (short, routine) = (u64::from(meta.short_words), u64::from(meta.routine_words));
        self.metrics.short_words += short;
        self.metrics.routine_words += routine;
        let (t1, tau_d) = (self.costs().mem.t1, self.costs().mem.tau_d);
        match way {
            Some(_) => self.charge(|c| &mut c.fetch_dtb, short * tau_d),
            None => self.charge(|c| &mut c.steering, short * t1),
        }
        self.charge(|c| &mut c.semantic, routine * t1);
        match flow {
            Flow::Goto(addr) => Ok(Next::Goto(addr)),
            Flow::Halt => Ok(Next::Halt),
            Flow::Continue if way.is_some() => {
                Err(Trap::Malformed("translation ended without INTERP"))
            }
            Flow::Continue => Err(Trap::Malformed("sequence ended without INTERP")),
        }
    }

    /// Runs the program to its halt. The step function is chosen here,
    /// once per run, by mode kind and by whether a fault plane is
    /// attached, so each loop is specialised to one of them.
    fn execute(&mut self, mode: &Mode) -> Result<(), Trap> {
        match mode {
            Mode::Interpreter | Mode::ICache { .. } => self.steps(Self::step_interp),
            Mode::Dtb(_) | Mode::TwoLevelDtb { .. } if self.faults.is_some() => {
                self.steps(Self::step_dtb::<true>)
            }
            Mode::Dtb(_) | Mode::TwoLevelDtb { .. } => self.steps(Self::step_dtb::<false>),
        }
    }

    /// The fetch-execute loop around one step function. One countdown
    /// stands for the step limit and the budget: it reaches zero at the
    /// next [`Run::check_point`], the only place either is tested.
    #[inline(always)]
    fn steps(&mut self, step: impl Fn(&mut Self, u32) -> Result<Next, Trap>) -> Result<(), Trap> {
        let mut pc: u32 = 0;
        let mut left = self.until_check(0);
        loop {
            left -= 1;
            if left == 0 {
                left = self.check_point()?;
            }
            self.metrics.instructions += 1;
            if pc as usize >= self.machine.image.len() {
                return Err(Trap::Malformed("pc out of range"));
            }
            match step(self, pc)? {
                Next::Goto(addr) => pc = addr,
                Next::Halt => return Ok(()),
            }
        }
    }

    /// Steps from step `s` to the next check point: the first step past
    /// the limit, or, when a budget bound is set, the next multiple of
    /// [`BUDGET_CHECK_INTERVAL`] if that comes sooner.
    fn until_check(&self, s: u64) -> u64 {
        let limit = self.machine.limits.max_steps.saturating_add(1);
        let budget = if self.fuel.is_some() || self.deadline.is_some() {
            (s / BUDGET_CHECK_INTERVAL + 1).saturating_mul(BUDGET_CHECK_INTERVAL)
        } else {
            u64::MAX
        };
        limit.min(budget) - s
    }

    /// The check point before step `s`, the next to retire: the step
    /// limit first, then, on a multiple of [`BUDGET_CHECK_INTERVAL`],
    /// fuel and the deadline. Fuel is modeled cycles, so fuel preemption
    /// fires at a deterministic instruction; the deadline reads the host
    /// clock and is availability-only. Returns the steps to the next
    /// check point.
    #[cold]
    fn check_point(&mut self) -> Result<u64, Trap> {
        let s = self.metrics.instructions + 1;
        if s > self.machine.limits.max_steps {
            return Err(Trap::StepLimit);
        }
        if s.is_multiple_of(BUDGET_CHECK_INTERVAL) {
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
        Ok(self.until_check(s))
    }

    /// One DIR instruction interpreted: the interpreter and i-cache
    /// modes' step, and a degraded address's.
    fn step_interp(&mut self, pc: u32) -> Result<Next, Trap> {
        let next = self.interp_one(pc)?;
        self.retire(pc, Tier::Interp);
        Ok(next)
    }

    /// One DIR instruction under the DTB: the INTERP flow of Figure 4.
    /// With `FAULTS` the fault plane's degrade, inject and verify wrap
    /// the hit path. Without it a hit is the chained lookup
    /// ([`Run::lookup`]), line and retire; every other case takes
    /// [`Run::step_dtb_slow`].
    #[inline(always)]
    fn step_dtb<const FAULTS: bool>(&mut self, pc: u32) -> Result<Next, Trap> {
        if FAULTS {
            // Degraded region: pure interpretation, never touching the DTB.
            if self.degraded.contains(&pc) {
                self.metrics.degraded_instructions += 1;
                return self.step_interp(pc);
            }
            self.inject_dtb_faults();
        }
        // INTERP presents the DIR address to the associative address array.
        self.charge(|c| &mut c.lookup, self.costs().mem.tau_d);
        let looked = self.lookup::<FAULTS>(pc)?;
        match looked {
            Some(h) if !FAULTS => {
                if S::ENABLED {
                    self.sink.emit(Event::DtbHit { addr: pc });
                }
                self.prev = h.way();
                let next = self.run_line(Some(h.way()))?;
                self.retire(pc, Tier::Psder);
                Ok(next)
            }
            _ => self.step_dtb_slow::<FAULTS>(pc, looked),
        }
    }

    /// INTERP presenting `pc` to the first level's associative address
    /// array. A fault-free run without the miss classifier first tries
    /// the way the previous step's exit last led to: one tag compare,
    /// which on a match is the set search's answer ([`Dtb::hit_at`]).
    /// Otherwise the set search runs, and a hit it finds re-points the
    /// hint. Both keep the same books; the modeled charge is the
    /// caller's and the same either way.
    #[inline(always)]
    fn lookup<const FAULTS: bool>(&mut self, pc: u32) -> Result<Option<Handle>, Trap> {
        let dtb = require(self.dtb.as_mut(), NO_DTB)?;
        if FAULTS || (S::ENABLED && S::CLASSIFY_MISSES) {
            return Ok(dtb.lookup(pc));
        }
        let prev = &mut self.ways[self.prev];
        if let Some(h) = dtb.hit_at(pc, prev.next) {
            return Ok(Some(h));
        }
        let looked = dtb.lookup(pc);
        if let Some(h) = looked {
            prev.next = h.way();
        }
        Ok(looked)
    }

    /// The rest of a DTB step after the lookup: a hit under the fault
    /// plane (verified first), and every miss. Under two-level
    /// translation a first-level miss probes the second-level store
    /// before translating. Kept out of the hit loop: inlined into it,
    /// it made every hit of `dtb_hot` ~24% slower.
    #[inline(never)]
    fn step_dtb_slow<const FAULTS: bool>(
        &mut self,
        pc: u32,
        looked: Option<Handle>,
    ) -> Result<Next, Trap> {
        let mut recovered = false;
        let hit = match looked {
            Some(h) if FAULTS => match self.verify_hit(pc, h)? {
                LineState::Clean(h) => Some(h),
                // Fall to the miss path: it retranslates the line, or a
                // second-level hit repairs it by promotion.
                LineState::Recovered => {
                    recovered = true;
                    None
                }
                LineState::Degraded(next) => {
                    self.retire(pc, Tier::Interp);
                    return Ok(next);
                }
            },
            looked => looked,
        };
        let way = match hit {
            Some(h) => {
                if S::ENABLED {
                    self.sink.emit(Event::DtbHit { addr: pc });
                }
                h.way()
            }
            None => {
                // A recovery already emitted its own miss event.
                if S::ENABLED && !recovered {
                    let kind = require(self.dtb.as_ref(), NO_DTB)?
                        .last_miss_kind()
                        .unwrap_or(MissKind::Cold);
                    self.sink.emit(Event::DtbMiss { addr: pc, kind });
                }
                let inst = if self.dtb2.is_some() {
                    self.second_level(pc)?
                } else {
                    self.translate_miss(pc, 1)?
                };
                let stencil = self.machine.stencils.instance(inst, pc + 1);
                let dtb = require(self.dtb.as_mut(), NO_DTB)?;
                let Some(h) = dtb.claim(pc, stencil.words()) else {
                    // Overflow area exhausted: execute without caching,
                    // the steering words at `t1` from level-1 code.
                    self.stamp(stencil, None);
                    let next = self.run_line(None)?;
                    self.retire(pc, Tier::Interp);
                    return Ok(next);
                };
                // The first level's words are read only by the fault
                // plane: its guard checksums and injected faults.
                if FAULTS {
                    dtb.store(h, &Template::new(inst, pc + 1));
                }
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
                self.stamp(stencil, Some(h.way()));
                // The predecessor's exit now leads to the new line.
                self.ways[self.prev].next = h.way();
                h.way()
            }
        };
        self.prev = way;
        // Execute the PSDER translation out of the buffer array, one short
        // word per τ_D.
        let next = self.run_line(Some(way))?;
        self.retire(pc, Tier::Psder);
        Ok(next)
    }

    /// A first-level miss: trap to the dynamic translation routine (via
    /// DTRPOINT) — fetch the DIR instruction, decode it, and charge
    /// generating its PSDER translation and storing `copies` copies of it
    /// (one per level it will fill), by the translation's length.
    ///
    /// Inlined into the miss path: as a call, the loop mix through a
    /// 16-entry DTB read ~24% slower.
    #[inline(always)]
    fn translate_miss(&mut self, pc: u32, copies: u64) -> Result<dir::Inst, Trap> {
        let d0 = self.metrics.cycles.decode;
        let inst = self.fetch_decode(pc)?;
        let len = self.machine.stencils.instance(inst, pc + 1).words() as u64;
        let t1 = self.costs().mem.t1;
        let gen = len * self.costs().gen_per_word;
        let store = len * self.costs().store_per_word * copies;
        self.charge(|c| &mut c.generate, gen * t1);
        self.charge(|c| &mut c.store, store * t1);
        if S::ENABLED {
            self.sink.emit(Event::Translate {
                addr: pc,
                decode_cycles: self.metrics.cycles.decode - d0,
                generate_cycles: (gen + store) * t1,
            });
        }
        Ok(inst)
    }

    /// A first-level miss under two-level translation. A second-level
    /// hit *promotes* the stored translation (a copy, cheaper than
    /// re-translating) and hands back the instruction it was made from;
    /// a second-level miss runs the full dynamic translation routine and
    /// claims a second-level way too.
    fn second_level(&mut self, pc: u32) -> Result<dir::Inst, Trap> {
        let tau2 = self.costs().tau_dtb2;
        self.charge(|c| &mut c.lookup2, tau2);
        let Some(h2) = require(self.dtb2.as_mut(), NO_DTB2)?.lookup(pc) else {
            let inst = self.translate_miss(pc, 2)?;
            let len = self.machine.stencils.instance(inst, pc + 1).words();
            if let Some(h2) = require(self.dtb2.as_mut(), NO_DTB2)?.claim(pc, len) {
                self.insts2[h2.way()] = inst;
            }
            return Ok(inst);
        };
        // Promote: read each word from L2 (tau_dtb2) and store it into L1
        // (store_per_word each).
        let len = require(self.dtb2.as_ref(), NO_DTB2)?.len(h2);
        let promote_cost = u64::from(len) * (tau2 + self.costs().store_per_word);
        self.charge(|c| &mut c.promote, promote_cost);
        if S::ENABLED {
            self.sink.emit(Event::Promote {
                addr: pc,
                words: len,
            });
        }
        Ok(self.insts2[h2.way()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtb::{Allocation, Replacement};
    use dir::compiler::compile;
    use std::sync::Arc;

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

    /// Asks for the miss taxonomy and keeps nothing.
    struct Classifying;

    impl TraceSink for Classifying {
        const ROUTINE_EDGES: bool = false;

        fn emit(&mut self, _event: Event) {}
    }

    #[test]
    fn chained_hits_are_invisible_to_the_model() {
        // A run into `NullSink` chains its hits; a classifying sink's run
        // keeps every lookup to the set search. Only the taxonomy the
        // classifier fills may differ.
        let untaxed = |mut metrics: Metrics| {
            for stats in [&mut metrics.dtb, &mut metrics.dtb2].into_iter().flatten() {
                stats.cold_misses = 0;
                stats.capacity_misses = 0;
                stats.conflict_misses = 0;
            }
            metrics
        };
        let cfg = |geometry, unit_words, allocation, replacement| DtbConfig {
            geometry,
            unit_words,
            allocation,
            replacement,
        };
        let (unit, lru) = (psder::MAX_TRANSLATION_WORDS, Replacement::Lru);
        let l1s = [
            cfg(Geometry::new(1, 8), unit, Allocation::Fixed, lru),
            cfg(
                Geometry::new(8, 1),
                unit,
                Allocation::Fixed,
                Replacement::Fifo,
            ),
            cfg(
                Geometry::new(4, 4),
                2,
                Allocation::Overflow { blocks: 6 },
                Replacement::Random { seed: 9 },
            ),
            cfg(Geometry::new(3, 4), unit, Allocation::Fixed, lru),
        ];
        for s in hlr::programs::ALL {
            let p = compile(&s.compile().unwrap());
            let m = Machine::new(&p, SchemeKind::Packed);
            for l1 in l1s {
                let two = Mode::TwoLevelDtb {
                    l1,
                    l2: DtbConfig::with_capacity(64),
                };
                for mode in [Mode::Dtb(l1), two] {
                    let chained = m.run(&mode).unwrap();
                    let searched = m
                        .run_with(&mode, &mut Classifying, RunOptions::default())
                        .unwrap();
                    let stats = searched.metrics.dtb.unwrap();
                    let taxonomy =
                        stats.cold_misses + stats.capacity_misses + stats.conflict_misses;
                    assert_eq!(taxonomy, stats.misses, "{}: unclassified", s.name);
                    assert_eq!(chained.output, searched.output, "{} {mode:?}", s.name);
                    assert_eq!(
                        untaxed(chained.metrics),
                        untaxed(searched.metrics),
                        "{} {mode:?}",
                        s.name
                    );
                }
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

    /// Every mode, the two-level DTB included.
    fn all_modes() -> Vec<Mode> {
        let mut all = modes();
        all.push(Mode::TwoLevelDtb {
            l1: DtbConfig::with_capacity(8),
            l2: DtbConfig::with_capacity(256),
        });
        all
    }

    /// Counts `Retire` events and nothing else, without asking for
    /// routine edges or the miss taxonomy.
    #[derive(Default)]
    struct Retires(u64);

    impl TraceSink for Retires {
        const CLASSIFY_MISSES: bool = false;
        const ROUTINE_EDGES: bool = false;

        fn emit(&mut self, event: Event) {
            if let Event::Retire { .. } = event {
                self.0 += 1;
            }
        }
    }

    fn limited(p: &Program, max_steps: u64) -> Machine {
        let limits = Limits {
            max_steps,
            ..Limits::default()
        };
        Machine::with(p, SchemeKind::Packed, CostModel::default(), limits)
    }

    /// Runs `m` under `mode` with `budget` into a retire-counting sink
    /// and into a ring (which walks routine edges): the result and the
    /// number of retires, which both sinks must agree on.
    fn counted(m: &Machine, mode: &Mode, budget: Budget) -> (Result<Report, Trap>, u64) {
        let opts = RunOptions {
            budget,
            ..RunOptions::default()
        };
        let mut retires = Retires::default();
        let a = m.run_with(mode, &mut retires, opts.clone());
        let mut ring = telemetry::RingSink::new(0);
        let b = m.run_with(mode, &mut ring, opts);
        assert_eq!(a.as_ref().err(), b.as_ref().err(), "{mode:?}");
        assert_eq!(retires.0, ring.counts().retires, "{mode:?}");
        (a, retires.0)
    }

    #[test]
    fn step_limit_applies() {
        // A program that halts after exactly `n` retires completes with
        // `max_steps = n` and traps at `n - 1`, under every sink.
        let p = compile(&hlr::programs::FIB_ITER.compile().unwrap());
        let n = Machine::new(&p, SchemeKind::Packed)
            .run(&Mode::Interpreter)
            .unwrap()
            .metrics
            .instructions;
        for mode in all_modes() {
            let r = limited(&p, n).run(&mode).unwrap();
            assert_eq!(r.metrics.instructions, n, "{mode:?}");
            assert_eq!(limited(&p, n - 1).run(&mode).unwrap_err(), Trap::StepLimit);
            let (r, retires) = counted(&limited(&p, n), &mode, Budget::unlimited());
            assert!(r.is_ok() && retires == n, "{mode:?}");
            let (r, retires) = counted(&limited(&p, n - 1), &mode, Budget::unlimited());
            assert_eq!(r.unwrap_err(), Trap::StepLimit, "{mode:?}");
            assert_eq!(retires, n - 1, "{mode:?}");
        }
        // Around a budget check point the step limit still fires first,
        // at exactly its own retire.
        let spin = compile(&hlr::compile("proc main() begin while true do skip; end").unwrap());
        let unfired = Budget {
            fuel: Some(u64::MAX),
            deadline_ns: Some(u64::MAX / 4),
        };
        for max_steps in [
            BUDGET_CHECK_INTERVAL - 1,
            BUDGET_CHECK_INTERVAL,
            2 * BUDGET_CHECK_INTERVAL + 1,
        ] {
            for mode in all_modes() {
                let m = limited(&spin, max_steps);
                for budget in [Budget::unlimited(), unfired] {
                    let (r, retires) = counted(&m, &mode, budget);
                    assert_eq!(r.unwrap_err(), Trap::StepLimit, "{mode:?}");
                    assert_eq!(retires, max_steps, "{max_steps} {mode:?} {budget:?}");
                }
            }
        }
    }

    #[test]
    fn fuel_budget_preempts_runaway_programs_in_every_mode() {
        // Fuel is modeled cycles, so it fires at a fixed retire: the
        // first check point past 100,000 cycles.
        let p = compile(&hlr::compile("proc main() begin while true do skip; end").unwrap());
        let m = Machine::new(&p, SchemeKind::Packed);
        for (mode, want) in all_modes().into_iter().zip([5119, 14335, 11263, 14335]) {
            let (r, retires) = counted(&m, &mode, Budget::fuel(100_000));
            assert_eq!(r.unwrap_err(), Trap::FuelExhausted, "{mode:?}");
            assert_eq!(retires, want, "{mode:?}");
        }
        // A deadline already past fires at the first check point.
        for mode in all_modes() {
            let (r, retires) = counted(&m, &mode, Budget::deadline_ns(1));
            assert_eq!(r.unwrap_err(), Trap::DeadlineExceeded, "{mode:?}");
            assert_eq!(retires, BUDGET_CHECK_INTERVAL - 1, "{mode:?}");
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
        let m = Machine::new(&p, SchemeKind::Huffman);
        let plain = m.run(&Mode::Interpreter).unwrap();
        // An image whose first instruction is `Halt`, whose translation
        // is a single word.
        let halt_first = Program {
            code: vec![dir::Inst::Halt, dir::Inst::Return],
            procs: Vec::new(),
            entry_proc: 0,
            globals_size: 0,
        };
        let halt_first = Machine::new(&halt_first, SchemeKind::Huffman);
        let poisoned = RunOptions {
            poison_translations: true,
            ..RunOptions::default()
        };
        for machine in [&m, &halt_first] {
            for mode in all_modes() {
                let err = machine.run_with(&mode, &mut NullSink, poisoned.clone());
                assert!(
                    matches!(err, Err(Trap::Malformed(_))),
                    "poisoned translations must be caught, got {err:?} under {mode:?}"
                );
            }
        }
        // Nothing of a poisoned run outlives it: a clean retry on the
        // same machine is bit-identical to a run that was never poisoned.
        let retry = m.run(&Mode::Interpreter).unwrap();
        assert_eq!(retry.output, plain.output);
        assert_eq!(retry.metrics, plain.metrics);
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
    fn machine_is_shareable_across_threads() {
        let p = compile(&hlr::programs::FIB_ITER.compile().unwrap());
        let machine = Arc::new(Machine::new(&p, SchemeKind::Huffman));
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
