//! Pass 5: interprocedural interval dataflow and per-site fact discharge.
//!
//! Where [`absint`] proves *structural* safety (depths,
//! slots, branch containment), this pass tracks *values*: an interval
//! `[lo, hi]` per local slot and per operand-stack entry, propagated to a
//! fixpoint over each region's CFG and across the call graph via
//! argument/return summaries. From the converged states it discharges
//! per-instruction facts into a [`SiteFacts`] bitmap:
//!
//! - **divisor nonzero** — a `Div`/`Mod` whose divisor interval excludes
//!   zero may skip its zero guard;
//! - **index in bounds** — an array access whose index interval fits
//!   `[0, len)` may skip its bounds guard;
//! - **branch never/always taken** — a conditional whose condition
//!   interval is decided ([`DiagCode::BranchNeverTaken`] /
//!   [`DiagCode::BranchAlwaysTaken`]), which in turn proves code
//!   unreachable ([`DiagCode::UnreachableCode`]);
//! - **stack depth exact** — every converged address carries one exact
//!   static stack depth (counted in the report).
//!
//! Branch refinement gives the pass most of its power: a stack value
//! remembers the comparison that produced it (its `Origin`), so
//! `i <= n` guarding a loop body narrows `i`'s interval on the taken
//! edge — which is what discharges `a[i]` inside the loop. Widening
//! (applied at loop heads after `WIDEN_AFTER` joins) keeps loop counters'
//! stationary bounds while forcing the moving bound to converge.
//!
//! The pass only runs on images the load proof (passes 1–2) accepts: the
//! absint invariants (no underflow, consistent depths, in-range slots) are
//! its preconditions. Every assumption is still guarded defensively — an
//! inconsistency aborts the region with no facts rather than panicking.
//! Soundness of the published bitmap is closed dynamically by the
//! conformance auditor, which evaluates every discharged guard and reports
//! a firing as a divergence.

use std::collections::BTreeMap;

use dir::facts::SiteFacts;
use dir::isa::{AluOp, Inst};
use dir::program::Program;

use crate::absint::{self, Region};
use crate::diag::{DiagCode, Diagnostic};

/// Joins at one address before widening kicks in.
const WIDEN_AFTER: u32 = 3;
/// Argument/return summary joins before widening to the extremes.
const SUMMARY_WIDEN_AFTER: u32 = 3;

/// A closed integer interval `[lo, hi]` over the wrapped `i64` domain.
/// `TOP` is the full range; there is no explicit bottom — absence of a
/// state plays that role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Least value the quantity can take.
    pub lo: i64,
    /// Greatest value the quantity can take.
    pub hi: i64,
}

impl Interval {
    /// The full `i64` range (no information).
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// The interval containing exactly `v`.
    #[must_use]
    pub fn singleton(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// True when the interval cannot contain zero (a discharged divisor).
    #[must_use]
    pub fn excludes_zero(self) -> bool {
        self.lo > 0 || self.hi < 0
    }

    /// True when the interval is exactly `[0, 0]`.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.lo == 0 && self.hi == 0
    }

    /// True when `v` lies inside the interval.
    #[must_use]
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Least upper bound: the smallest interval containing both.
    #[must_use]
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Classic asymmetric widening: a bound that moved since `self` jumps
    /// to its extreme, a stationary bound is kept. `next` must contain
    /// `self` (it is a join with `self`). Guarantees convergence in at
    /// most two applications per bound while preserving the stationary
    /// bound of loop counters.
    #[must_use]
    pub fn widen(self, next: Interval) -> Interval {
        Interval {
            lo: if next.lo < self.lo { i64::MIN } else { self.lo },
            hi: if next.hi > self.hi { i64::MAX } else { self.hi },
        }
    }

    /// Greatest lower bound, or `None` when the intervals are disjoint.
    #[must_use]
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }
}

/// Interval transfer of one ALU operation. Wrapping arithmetic forces
/// `TOP` whenever any concrete operand pair could overflow; comparisons
/// and booleans produce decided `[0,0]`/`[1,1]` or undecided `[0,1]`.
fn alu_interval(op: AluOp, a: Interval, b: Interval) -> Interval {
    let bool_itv = |t: Option<bool>| match t {
        Some(true) => Interval::singleton(1),
        Some(false) => Interval::singleton(0),
        None => Interval { lo: 0, hi: 1 },
    };
    match op {
        AluOp::Add => match (a.lo.checked_add(b.lo), a.hi.checked_add(b.hi)) {
            (Some(lo), Some(hi)) => Interval { lo, hi },
            _ => Interval::TOP,
        },
        AluOp::Sub => match (a.lo.checked_sub(b.hi), a.hi.checked_sub(b.lo)) {
            (Some(lo), Some(hi)) => Interval { lo, hi },
            _ => Interval::TOP,
        },
        AluOp::Mul => {
            let corners = [
                a.lo.checked_mul(b.lo),
                a.lo.checked_mul(b.hi),
                a.hi.checked_mul(b.lo),
                a.hi.checked_mul(b.hi),
            ];
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            for c in corners {
                match c {
                    Some(v) => {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    None => return Interval::TOP,
                }
            }
            Interval { lo, hi }
        }
        // Quotients and remainders are not tracked (their transfer is
        // fiddly around mixed-sign divisors); TOP is always sound. The
        // *divisor* interval is what discharges the site fact.
        AluOp::Div | AluOp::Mod => Interval::TOP,
        AluOp::Eq => bool_itv(if a.lo == a.hi && b.lo == b.hi && a.lo == b.lo {
            Some(true)
        } else if a.intersect(b).is_none() {
            Some(false)
        } else {
            None
        }),
        AluOp::Ne => bool_itv(if a.intersect(b).is_none() {
            Some(true)
        } else if a.lo == a.hi && b.lo == b.hi && a.lo == b.lo {
            Some(false)
        } else {
            None
        }),
        AluOp::Lt => bool_itv(if a.hi < b.lo {
            Some(true)
        } else if a.lo >= b.hi {
            Some(false)
        } else {
            None
        }),
        AluOp::Le => bool_itv(if a.hi <= b.lo {
            Some(true)
        } else if a.lo > b.hi {
            Some(false)
        } else {
            None
        }),
        AluOp::Gt => bool_itv(if a.lo > b.hi {
            Some(true)
        } else if a.hi <= b.lo {
            Some(false)
        } else {
            None
        }),
        AluOp::Ge => bool_itv(if a.lo >= b.hi {
            Some(true)
        } else if a.hi < b.lo {
            Some(false)
        } else {
            None
        }),
        AluOp::And => bool_itv(if a.excludes_zero() && b.excludes_zero() {
            Some(true)
        } else if a.is_zero() || b.is_zero() {
            Some(false)
        } else {
            None
        }),
        AluOp::Or => bool_itv(if a.excludes_zero() || b.excludes_zero() {
            Some(true)
        } else if a.is_zero() && b.is_zero() {
            Some(false)
        } else {
            None
        }),
    }
}

/// `x op rhs` with the operands swapped: `x < y` ⇔ `y > x`.
fn flip(op: AluOp) -> AluOp {
    match op {
        AluOp::Lt => AluOp::Gt,
        AluOp::Le => AluOp::Ge,
        AluOp::Gt => AluOp::Lt,
        AluOp::Ge => AluOp::Le,
        other => other,
    }
}

/// Narrows `x` under the assumption that the comparison `x op rhs`
/// evaluated to `truth`. Returns `None` when the assumption is infeasible
/// (the edge carrying it is dead). Non-comparison operations refine
/// nothing.
fn refine(op: AluOp, x: Interval, rhs: Interval, truth: bool) -> Option<Interval> {
    let mut lo = x.lo;
    let mut hi = x.hi;
    // The runtime rhs value r lies in `rhs`; each case derives the
    // tightest bound on x that holds for *every* feasible r.
    match (op, truth) {
        (AluOp::Lt, true) | (AluOp::Ge, false) => {
            // x < r <= rhs.hi, so x <= rhs.hi - 1.
            if let Some(b) = rhs.hi.checked_sub(1) {
                hi = hi.min(b);
            }
        }
        (AluOp::Le, true) | (AluOp::Gt, false) => {
            // x <= r <= rhs.hi.
            hi = hi.min(rhs.hi);
        }
        (AluOp::Gt, true) | (AluOp::Le, false) => {
            // x > r >= rhs.lo, so x >= rhs.lo + 1.
            if let Some(b) = rhs.lo.checked_add(1) {
                lo = lo.max(b);
            }
        }
        (AluOp::Ge, true) | (AluOp::Lt, false) => {
            // x >= r >= rhs.lo.
            lo = lo.max(rhs.lo);
        }
        (AluOp::Eq, true) | (AluOp::Ne, false) => {
            let i = x.intersect(rhs)?;
            lo = i.lo;
            hi = i.hi;
        }
        // Only a singleton rhs can trim a disequality; trimming is only
        // sound at the interval's endpoints.
        (AluOp::Eq, false) | (AluOp::Ne, true) if rhs.lo == rhs.hi => {
            let c = rhs.lo;
            if lo == c && hi == c {
                return None;
            }
            if lo == c {
                lo = c.checked_add(1)?;
            }
            if hi == c {
                hi = c.checked_sub(1)?;
            }
        }
        _ => {}
    }
    (lo <= hi).then_some(Interval { lo, hi })
}

/// Where a stack value came from, for branch refinement. Invalidated the
/// moment any slot it references is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Nothing known.
    None,
    /// The value equals frame slot `.0` (unchanged since the push).
    Local(u32),
    /// The value is the 0/1 result of `locals[slot] op rhs`.
    Cmp { op: AluOp, slot: u32, rhs: Rhs },
}

/// The right-hand side of a remembered comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rhs {
    Const(i64),
    Slot(u32),
}

/// One abstract operand-stack entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AbsVal {
    itv: Interval,
    origin: Origin,
}

impl AbsVal {
    fn top() -> AbsVal {
        AbsVal {
            itv: Interval::TOP,
            origin: Origin::None,
        }
    }
}

/// The abstract machine state at one address: one interval per frame slot
/// plus the typed operand stack. Globals are not tracked (always `TOP`):
/// they are shared across calls and their flow-insensitive treatment here
/// is always sound.
#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    stack: Vec<AbsVal>,
    locals: Vec<Interval>,
}

impl State {
    /// Joins `other` into `self`; reports whether anything changed.
    /// Depths are guaranteed equal by the caller.
    fn join_from(&mut self, other: &State) -> bool {
        let mut changed = false;
        for (a, b) in self.stack.iter_mut().zip(&other.stack) {
            let j = a.itv.join(b.itv);
            if j != a.itv {
                a.itv = j;
                changed = true;
            }
            if a.origin != b.origin && a.origin != Origin::None {
                a.origin = Origin::None;
                changed = true;
            }
        }
        for (a, b) in self.locals.iter_mut().zip(&other.locals) {
            let j = a.join(*b);
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        changed
    }

    /// Widens `self` against its pre-join copy `before` (standard
    /// widen-after-join: any bound that moved goes to its extreme).
    fn widen_from(&mut self, before: &State) {
        for (a, b) in self.stack.iter_mut().zip(&before.stack) {
            a.itv = b.itv.widen(a.itv);
        }
        for (a, b) in self.locals.iter_mut().zip(&before.locals) {
            *a = b.widen(*a);
        }
    }

    /// Drops every origin that references slot `s` (it was just written).
    fn invalidate(&mut self, s: u32) {
        for v in &mut self.stack {
            let hit = match v.origin {
                Origin::None => false,
                Origin::Local(t) => t == s,
                Origin::Cmp { slot, rhs, .. } => slot == s || matches!(rhs, Rhs::Slot(t) if t == s),
            };
            if hit {
                v.origin = Origin::None;
            }
        }
    }
}

/// Interprocedural summary of one procedure.
#[derive(Debug, Clone)]
struct Summary {
    /// Joined argument intervals over every reachable call site; `None`
    /// until the first reachable call is seen.
    args: Option<Vec<Interval>>,
    arg_joins: u32,
    /// Joined return-value interval (valued procedures only).
    ret: Option<Interval>,
    ret_joins: u32,
    /// Whether any `Return` is reachable: until it is, code after a call
    /// to this procedure is unreachable.
    may_return: bool,
}

impl Summary {
    fn new() -> Summary {
        Summary {
            args: None,
            arg_joins: 0,
            ret: None,
            ret_joins: 0,
            may_return: false,
        }
    }
}

/// Everything one intra-region fixpoint produced.
struct RegionRun {
    /// Converged state per relative address (`None` = unreachable).
    states: Vec<Option<State>>,
    /// Joined argument intervals per called procedure.
    calls: BTreeMap<u32, Vec<Interval>>,
    /// Joined return interval, if a valued `Return` was reached.
    ret: Option<Interval>,
    /// Whether any `Return` was reached.
    may_return: bool,
    /// The run hit a structural inconsistency; publish no facts for it.
    aborted: bool,
}

/// Per-region fact coverage, for discharge-ratio reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionFacts {
    /// `<prelude>` or the procedure name.
    pub name: String,
    /// Whether the region converged (unreachable or aborted regions carry
    /// textual site counts with nothing proved).
    pub analyzed: bool,
    /// `Div`/`Mod` sites in the region.
    pub div_sites: u32,
    /// Divisor-nonzero facts discharged.
    pub div_proved: u32,
    /// Array-access sites in the region.
    pub idx_sites: u32,
    /// Index-in-bounds facts discharged.
    pub idx_proved: u32,
}

/// Aggregate output of the dataflow pass, alongside the [`SiteFacts`]
/// bitmap itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FactsReport {
    /// `Div`/`Mod` sites in the program.
    pub div_sites: u32,
    /// Divisor-nonzero facts discharged.
    pub div_proved: u32,
    /// Array-access sites in the program.
    pub idx_sites: u32,
    /// Index-in-bounds facts discharged.
    pub idx_proved: u32,
    /// Reachable addresses with an exact static stack depth (all of them,
    /// by construction of the join).
    pub depth_exact: u32,
    /// Conditional branches proved never taken.
    pub branches_never: u32,
    /// Conditional branches proved always taken.
    pub branches_always: u32,
    /// Instructions proved unreachable.
    pub unreachable_insts: u32,
    /// Per-region breakdown.
    pub per_region: Vec<RegionFacts>,
}

/// Runs the interprocedural dataflow pass, appending `AN6xx` findings to
/// `diags` and returning the fact bitmap plus its coverage report.
///
/// Callers must only invoke this on programs that are clean after the
/// structural passes (see the module docs); on anything else every region
/// aborts defensively and the bitmap stays empty.
pub(crate) fn analyze(program: &Program, diags: &mut Vec<Diagnostic>) -> (SiteFacts, FactsReport) {
    let regions = absint::regions(program);
    let mut facts = SiteFacts::empty(program.code.len() as u32);
    let mut report = FactsReport::default();

    // Textual caller map: proc index -> regions containing a call to it.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); program.procs.len()];
    for (ri, r) in regions.iter().enumerate() {
        for inst in code_of(program, r) {
            if let Inst::Call(p) = *inst {
                if let Some(c) = callers.get_mut(p as usize) {
                    if !c.contains(&ri) {
                        c.push(ri);
                    }
                }
            }
        }
    }

    let mut summaries: Vec<Summary> = program.procs.iter().map(|_| Summary::new()).collect();
    let mut runs: Vec<Option<RegionRun>> = (0..regions.len()).map(|_| None).collect();
    let mut queue: Vec<usize> = vec![0];
    let mut queued: Vec<bool> = vec![false; regions.len()];
    queued[0] = true;
    let mut budget = regions.len() * 64 + 64;

    while let Some(ri) = queue.pop() {
        queued[ri] = false;
        if budget == 0 {
            // Fixpoint budget exhausted (requires an adversarial call
            // graph): publish nothing rather than unconverged facts.
            report.per_region = regions
                .iter()
                .map(|r| textual_region_facts(program, r))
                .collect();
            sum_region_facts(&mut report);
            return (SiteFacts::empty(program.code.len() as u32), report);
        }
        budget -= 1;

        let region = &regions[ri];
        let entry_locals = entry_locals(region, ri.checked_sub(1).map(|p| &summaries[p]));
        let run = run_region(program, region, entry_locals, &summaries);

        // Merge this run's interprocedural effects and requeue whoever
        // they invalidate.
        let mut requeue: Vec<usize> = Vec::new();
        if run.aborted {
            // Defensive: assume the broken region can call its textual
            // callees with anything and that they all return.
            for inst in code_of(program, region) {
                if let Inst::Call(p) = *inst {
                    if let Some(info) = program.procs.get(p as usize) {
                        let top_args = vec![Interval::TOP; info.n_args as usize];
                        merge_call(
                            &mut summaries[p as usize],
                            top_args,
                            Some(Interval::TOP),
                            true,
                            p as usize,
                            &callers,
                            &mut requeue,
                        );
                    }
                }
            }
        } else {
            for (p, args) in &run.calls {
                merge_call(
                    &mut summaries[*p as usize],
                    args.clone(),
                    None,
                    false,
                    *p as usize,
                    &callers,
                    &mut requeue,
                );
            }
            if let Some(p) = ri.checked_sub(1) {
                let s = &mut summaries[p];
                let mut changed = false;
                if run.may_return && !s.may_return {
                    s.may_return = true;
                    changed = true;
                }
                if let Some(r) = run.ret {
                    let next = match s.ret {
                        None => r,
                        Some(cur) => {
                            let j = cur.join(r);
                            if j != cur {
                                s.ret_joins += 1;
                                if s.ret_joins >= SUMMARY_WIDEN_AFTER {
                                    cur.widen(j)
                                } else {
                                    j
                                }
                            } else {
                                cur
                            }
                        }
                    };
                    if s.ret != Some(next) {
                        s.ret = Some(next);
                        changed = true;
                    }
                }
                if changed {
                    requeue.extend(callers[p].iter().copied());
                }
            }
        }
        runs[ri] = Some(run);
        for t in requeue {
            // A region whose inputs changed must re-run even if it has a
            // stored result; the callee itself re-runs when its args grew.
            if !queued[t] {
                queued[t] = true;
                queue.push(t);
            }
        }
        // A callee whose args changed was pushed via requeue only if it
        // appears in `callers`; merge_call queues the callee directly.
    }

    // Final extraction over the converged runs. Regions never reached
    // (dead procedures) publish textual site counts and nothing proved:
    // they cannot execute, and AN301 already flags them.
    for (ri, region) in regions.iter().enumerate() {
        match &runs[ri] {
            Some(run) if !run.aborted => {
                let rf = extract_region_facts(program, region, run, &mut facts, &mut report, diags);
                report.per_region.push(rf);
            }
            _ => report
                .per_region
                .push(textual_region_facts(program, region)),
        }
    }
    sum_region_facts(&mut report);
    (facts, report)
}

fn code_of<'p>(program: &'p Program, region: &Region) -> &'p [Inst] {
    let start = region.start as usize;
    let end = (region.end as usize).min(program.code.len());
    if start >= end {
        &[]
    } else {
        &program.code[start..end]
    }
}

/// Entry locals for a region: arguments from the summary (or the region's
/// declared arity of `TOP`s for the prelude/fallback), remaining slots
/// zero — frames are zero-filled by every executor.
fn entry_locals(region: &Region, summary: Option<&Summary>) -> Vec<Interval> {
    let fs = region.frame_size as usize;
    let n_args = (region.n_args as usize).min(fs);
    let mut locals = vec![Interval::singleton(0); fs];
    for (i, slot) in locals.iter_mut().enumerate().take(n_args) {
        *slot = match summary.and_then(|s| s.args.as_ref()) {
            Some(args) => args.get(i).copied().unwrap_or(Interval::TOP),
            None => Interval::TOP,
        };
    }
    locals
}

/// Joins one call's effects into a summary; queues the callee (and, when
/// its return summary grew, its callers) for re-analysis.
#[allow(clippy::too_many_arguments)]
fn merge_call(
    s: &mut Summary,
    args: Vec<Interval>,
    ret: Option<Interval>,
    may_return: bool,
    p: usize,
    callers: &[Vec<usize>],
    requeue: &mut Vec<usize>,
) {
    let mut callee_changed = false;
    match &mut s.args {
        None => {
            s.args = Some(args);
            callee_changed = true;
        }
        Some(cur) => {
            let mut grew = false;
            for (c, n) in cur.iter_mut().zip(&args) {
                let j = c.join(*n);
                if j != *c {
                    grew = true;
                    *c = j;
                }
            }
            if grew {
                s.arg_joins += 1;
                if s.arg_joins >= SUMMARY_WIDEN_AFTER {
                    for c in cur.iter_mut() {
                        *c = Interval::TOP;
                    }
                }
                callee_changed = true;
            }
        }
    }
    let mut caller_visible = false;
    if may_return && !s.may_return {
        s.may_return = true;
        caller_visible = true;
    }
    if let Some(r) = ret {
        let next = match s.ret {
            None => r,
            Some(cur) => cur.join(r),
        };
        if s.ret != Some(next) {
            s.ret = Some(next);
            caller_visible = true;
        }
    }
    if callee_changed {
        // Region index of procedure p is p + 1.
        requeue.push(p + 1);
    }
    if caller_visible {
        requeue.extend(callers[p].iter().copied());
    }
}

/// Runs the intra-region worklist to a fixpoint.
fn run_region(
    program: &Program,
    region: &Region,
    entry_locals: Vec<Interval>,
    summaries: &[Summary],
) -> RegionRun {
    let code = &program.code;
    let start = region.start as usize;
    let end = region.end as usize;
    let aborted_run = |states: Vec<Option<State>>| RegionRun {
        states,
        calls: BTreeMap::new(),
        ret: None,
        may_return: false,
        aborted: true,
    };
    if start >= end || end > code.len() {
        return aborted_run(Vec::new());
    }
    let n = end - start;
    let fs = region.frame_size as usize;

    let mut states: Vec<Option<State>> = vec![None; n];
    states[0] = Some(State {
        stack: Vec::new(),
        locals: entry_locals,
    });
    let mut join_counts: Vec<u32> = vec![0; n];
    // Widening is confined to loop heads (targets of backward branches):
    // widening mid-body would erase branch refinements before the head
    // converges. Every cycle this compiler emits passes through such a
    // head, and the iteration budget below backstops termination anyway.
    let mut widen_point: Vec<bool> = vec![false; n];
    for (i, inst) in code[start..end].iter().enumerate() {
        if let Some(t) = inst.target() {
            if t >= region.start && (t as usize) < start + i + 1 {
                widen_point[t as usize - start] = true;
            }
        }
    }
    let mut work: Vec<usize> = vec![0];
    let mut calls: BTreeMap<u32, Vec<Interval>> = BTreeMap::new();
    let mut ret: Option<Interval> = None;
    let mut may_return = false;
    let mut budget = n * 48 + 256;

    while let Some(rel) = work.pop() {
        if budget == 0 {
            return aborted_run(states);
        }
        budget -= 1;
        let mut st = states[rel].clone().expect("queued index has a state");
        let addr = (start + rel) as u32;
        let inst = code[start + rel];

        // (successor address, refined state) pairs; terminal instructions
        // and proved-infeasible edges push nothing.
        let mut succs: Vec<(u32, State)> = Vec::with_capacity(2);
        let fall = addr + 1;
        macro_rules! pop {
            () => {
                match st.stack.pop() {
                    Some(v) => v,
                    None => return aborted_run(states),
                }
            };
        }
        macro_rules! slot {
            ($s:expr) => {{
                let s = $s as usize;
                if s >= fs {
                    return aborted_run(states);
                }
                s
            }};
        }

        match inst {
            Inst::PushConst(v) => {
                st.stack.push(AbsVal {
                    itv: Interval::singleton(v),
                    origin: Origin::None,
                });
                succs.push((fall, st));
            }
            Inst::PushLocal(s) => {
                let itv = st.locals[slot!(s)];
                st.stack.push(AbsVal {
                    itv,
                    origin: Origin::Local(s),
                });
                succs.push((fall, st));
            }
            Inst::PushGlobal(s) => {
                if s >= program.globals_size {
                    return aborted_run(states);
                }
                st.stack.push(AbsVal::top());
                succs.push((fall, st));
            }
            Inst::StoreLocal(s) => {
                let v = pop!();
                let si = slot!(s);
                st.locals[si] = v.itv;
                st.invalidate(s);
                succs.push((fall, st));
            }
            Inst::StoreGlobal(s) => {
                if s >= program.globals_size {
                    return aborted_run(states);
                }
                pop!();
                succs.push((fall, st));
            }
            Inst::LoadArrLocal { base, len } | Inst::LoadArrGlobal { base, len } => {
                let area = if matches!(inst, Inst::LoadArrLocal { .. }) {
                    region.frame_size
                } else {
                    program.globals_size
                };
                if base.saturating_add(len) > area {
                    return aborted_run(states);
                }
                pop!();
                st.stack.push(AbsVal::top());
                succs.push((fall, st));
            }
            Inst::StoreArrLocal { base, len } => {
                if base.saturating_add(len) > region.frame_size {
                    return aborted_run(states);
                }
                pop!(); // value
                pop!(); // index
                for s in base..base.saturating_add(len) {
                    st.locals[s as usize] = Interval::TOP;
                    st.invalidate(s);
                }
                succs.push((fall, st));
            }
            Inst::StoreArrGlobal { base, len } => {
                if base.saturating_add(len) > program.globals_size {
                    return aborted_run(states);
                }
                pop!();
                pop!();
                succs.push((fall, st));
            }
            Inst::Pop | Inst::Write => {
                pop!();
                succs.push((fall, st));
            }
            Inst::Bin(op) => {
                let b = pop!();
                let a = pop!();
                if op.traps_on_zero() {
                    if b.itv.is_zero() {
                        // Always traps; nothing executes past this site.
                        continue;
                    }
                    // Execution past the site proves the divisor nonzero.
                    if let Origin::Local(s) = b.origin {
                        if let Some(r) =
                            refine(AluOp::Ne, st.locals[slot!(s)], Interval::singleton(0), true)
                        {
                            st.locals[s as usize] = r;
                        }
                    }
                }
                let itv = alu_interval(op, a.itv, b.itv);
                let origin = cmp_origin(op, &a, &b);
                st.stack.push(AbsVal { itv, origin });
                succs.push((fall, st));
            }
            Inst::Neg => {
                let v = pop!();
                let itv = alu_interval(AluOp::Sub, Interval::singleton(0), v.itv);
                st.stack.push(AbsVal {
                    itv,
                    origin: Origin::None,
                });
                succs.push((fall, st));
            }
            Inst::Not => {
                let v = pop!();
                let itv = if v.itv.excludes_zero() {
                    Interval::singleton(0)
                } else if v.itv.is_zero() {
                    Interval::singleton(1)
                } else {
                    Interval { lo: 0, hi: 1 }
                };
                let origin = match v.origin {
                    // !x is 1 exactly when x == 0.
                    Origin::Local(s) => Origin::Cmp {
                        op: AluOp::Eq,
                        slot: s,
                        rhs: Rhs::Const(0),
                    },
                    Origin::Cmp { op, slot, rhs } => Origin::Cmp {
                        op: negate(op),
                        slot,
                        rhs,
                    },
                    Origin::None => Origin::None,
                };
                st.stack.push(AbsVal { itv, origin });
                succs.push((fall, st));
            }
            Inst::Jump(t) => {
                if !in_region(t, region) {
                    return aborted_run(states);
                }
                succs.push((t, st));
            }
            Inst::JumpIfFalse(t) | Inst::JumpIfTrue(t) => {
                if !in_region(t, region) || fall >= region.end {
                    return aborted_run(states);
                }
                let c = pop!();
                let jump_when = matches!(inst, Inst::JumpIfFalse(_));
                // JumpIfFalse jumps when c == 0; JumpIfTrue when c != 0.
                let (zero_succ, nonzero_succ) = if jump_when { (t, fall) } else { (fall, t) };
                if !c.itv.is_zero() {
                    // The condition can be nonzero (true).
                    if let Some(s2) = assume(&st, &c.origin, true) {
                        succs.push((nonzero_succ, s2));
                    }
                }
                if c.itv.contains(0) {
                    if let Some(s2) = assume(&st, &c.origin, false) {
                        succs.push((zero_succ, s2));
                    }
                }
            }
            Inst::Call(p) => {
                let Some(info) = program.procs.get(p as usize) else {
                    return aborted_run(states);
                };
                let n_args = info.n_args as usize;
                if st.stack.len() < n_args {
                    return aborted_run(states);
                }
                let at = st.stack.len() - n_args;
                let args: Vec<Interval> = st.stack[at..].iter().map(|v| v.itv).collect();
                st.stack.truncate(at);
                match calls.get_mut(&p) {
                    Some(cur) => {
                        for (c, a) in cur.iter_mut().zip(&args) {
                            *c = c.join(*a);
                        }
                    }
                    None => {
                        calls.insert(p, args);
                    }
                }
                let s = &summaries[p as usize];
                if s.may_return {
                    if info.returns_value {
                        st.stack.push(AbsVal {
                            itv: s.ret.unwrap_or(Interval::TOP),
                            origin: Origin::None,
                        });
                    }
                    if fall >= region.end {
                        return aborted_run(states);
                    }
                    succs.push((fall, st));
                }
                // !may_return: the continuation is (currently) proved
                // unreachable; the callee's own Return requeues us.
            }
            Inst::Return => {
                if region.is_prelude {
                    return aborted_run(states);
                }
                if region.returns_value {
                    let v = pop!();
                    ret = Some(match ret {
                        None => v.itv,
                        Some(cur) => cur.join(v.itv),
                    });
                }
                may_return = true;
            }
            Inst::Halt => {}
            Inst::BinLocals { op, a, b, dst } => {
                let (ai, bi, di) = (slot!(a), slot!(b), slot!(dst));
                let (va, vb) = (st.locals[ai], st.locals[bi]);
                if op.traps_on_zero() {
                    if vb.is_zero() {
                        // Always traps: terminal.
                        continue;
                    }
                    if let Some(r) = refine(AluOp::Ne, vb, Interval::singleton(0), true) {
                        st.locals[bi] = r;
                    }
                }
                let r = alu_interval(op, va, vb);
                st.locals[di] = r;
                st.invalidate(dst);
                succs.push((fall, st));
            }
            Inst::IncLocal { slot, imm } => {
                let si = slot!(slot);
                st.locals[si] = alu_interval(AluOp::Add, st.locals[si], Interval::singleton(imm));
                st.invalidate(slot);
                succs.push((fall, st));
            }
            Inst::SetLocalConst { slot, imm } => {
                let si = slot!(slot);
                st.locals[si] = Interval::singleton(imm);
                st.invalidate(slot);
                succs.push((fall, st));
            }
            Inst::CmpConstBr {
                op,
                slot,
                imm,
                target,
            } => {
                if !in_region(target, region) || fall >= region.end {
                    return aborted_run(states);
                }
                let si = slot!(slot);
                if op.traps_on_zero() && imm == 0 {
                    // Division by a zero immediate always traps: terminal.
                    continue;
                }
                let lhs = st.locals[si];
                let rhs = Interval::singleton(imm);
                let r = alu_interval(op, lhs, rhs);
                // Jumps when the result is zero (false).
                if !r.is_zero() {
                    if let Some(x) = refine(op, lhs, rhs, true) {
                        let mut s2 = st.clone();
                        s2.locals[si] = x;
                        s2.invalidate(slot);
                        succs.push((fall, s2));
                    }
                }
                if r.contains(0) {
                    if let Some(x) = refine(op, lhs, rhs, false) {
                        st.locals[si] = x;
                        st.invalidate(slot);
                        succs.push((target, st));
                    }
                }
            }
            Inst::CmpLocalsBr { op, a, b, target } => {
                if !in_region(target, region) || fall >= region.end {
                    return aborted_run(states);
                }
                let (ai, bi) = (slot!(a), slot!(b));
                if op.traps_on_zero() {
                    if st.locals[bi].is_zero() {
                        // Always traps: terminal.
                        continue;
                    }
                    // Execution past the site proves the divisor nonzero.
                    if let Some(r) = refine(AluOp::Ne, st.locals[bi], Interval::singleton(0), true)
                    {
                        st.locals[bi] = r;
                    }
                }
                let (va, vb) = (st.locals[ai], st.locals[bi]);
                let r = alu_interval(op, va, vb);
                if !r.is_zero() {
                    if let (Some(x), Some(y)) =
                        (refine(op, va, vb, true), refine(flip(op), vb, va, true))
                    {
                        let mut s2 = st.clone();
                        s2.locals[ai] = x;
                        s2.locals[bi] = y;
                        s2.invalidate(a);
                        s2.invalidate(b);
                        succs.push((fall, s2));
                    }
                }
                if r.contains(0) {
                    if let (Some(x), Some(y)) =
                        (refine(op, va, vb, false), refine(flip(op), vb, va, false))
                    {
                        st.locals[ai] = x;
                        st.locals[bi] = y;
                        st.invalidate(a);
                        st.invalidate(b);
                        succs.push((target, st));
                    }
                }
            }
        }

        for (t, s2) in succs {
            if !in_region(t, region) {
                return aborted_run(states);
            }
            let trel = t as usize - start;
            match &mut states[trel] {
                slot @ None => {
                    *slot = Some(s2);
                    work.push(trel);
                }
                Some(old) => {
                    if old.stack.len() != s2.stack.len() || old.locals.len() != s2.locals.len() {
                        return aborted_run(states);
                    }
                    let before = old.clone();
                    if old.join_from(&s2) {
                        join_counts[trel] += 1;
                        if widen_point[trel] && join_counts[trel] >= WIDEN_AFTER {
                            old.widen_from(&before);
                        }
                        work.push(trel);
                    }
                }
            }
        }
    }

    RegionRun {
        states,
        calls,
        ret,
        may_return,
        aborted: false,
    }
}

fn in_region(addr: u32, region: &Region) -> bool {
    addr >= region.start && addr < region.end
}

/// Negation of a remembered comparison (`!(a < b)` is `a >= b`).
fn negate(op: AluOp) -> AluOp {
    match op {
        AluOp::Eq => AluOp::Ne,
        AluOp::Ne => AluOp::Eq,
        AluOp::Lt => AluOp::Ge,
        AluOp::Ge => AluOp::Lt,
        AluOp::Le => AluOp::Gt,
        AluOp::Gt => AluOp::Le,
        other => other,
    }
}

/// Origin for the result of `a op b`, when the comparison is one branch
/// refinement understands.
fn cmp_origin(op: AluOp, a: &AbsVal, b: &AbsVal) -> Origin {
    if !matches!(
        op,
        AluOp::Eq | AluOp::Ne | AluOp::Lt | AluOp::Le | AluOp::Gt | AluOp::Ge
    ) {
        return Origin::None;
    }
    match (a.origin, b.origin) {
        (Origin::Local(s), _) if b.itv.lo == b.itv.hi => Origin::Cmp {
            op,
            slot: s,
            rhs: Rhs::Const(b.itv.lo),
        },
        (Origin::Local(s), Origin::Local(t)) => Origin::Cmp {
            op,
            slot: s,
            rhs: Rhs::Slot(t),
        },
        (_, Origin::Local(t)) if a.itv.lo == a.itv.hi => Origin::Cmp {
            op: flip(op),
            slot: t,
            rhs: Rhs::Const(a.itv.lo),
        },
        _ => Origin::None,
    }
}

/// Refines a state under the assumption that a just-popped condition with
/// the given origin was nonzero (`truth`) or zero (`!truth`). Returns
/// `None` when the assumption is infeasible.
fn assume(st: &State, origin: &Origin, truth: bool) -> Option<State> {
    let mut s2 = st.clone();
    match *origin {
        Origin::None => {}
        Origin::Local(s) => {
            let cur = *s2.locals.get(s as usize)?;
            let refined = if truth {
                refine(AluOp::Ne, cur, Interval::singleton(0), true)?
            } else {
                cur.intersect(Interval::singleton(0))?
            };
            s2.locals[s as usize] = refined;
        }
        Origin::Cmp { op, slot, rhs } => {
            let lhs = *s2.locals.get(slot as usize)?;
            let rhs_itv = match rhs {
                Rhs::Const(c) => Interval::singleton(c),
                Rhs::Slot(t) => *s2.locals.get(t as usize)?,
            };
            let refined = refine(op, lhs, rhs_itv, truth)?;
            s2.locals[slot as usize] = refined;
            if let Rhs::Slot(t) = rhs {
                let other = refine(flip(op), rhs_itv, lhs, truth)?;
                s2.locals[t as usize] = other;
            }
        }
    }
    Some(s2)
}

/// Counts div/idx sites of a region without any proof (for unreachable or
/// aborted regions).
fn textual_region_facts(program: &Program, region: &Region) -> RegionFacts {
    let mut rf = RegionFacts {
        name: region.name.clone(),
        analyzed: false,
        div_sites: 0,
        div_proved: 0,
        idx_sites: 0,
        idx_proved: 0,
    };
    for inst in code_of(program, region) {
        match *inst {
            Inst::Bin(op)
            | Inst::BinLocals { op, .. }
            | Inst::CmpConstBr { op, .. }
            | Inst::CmpLocalsBr { op, .. }
                if op.traps_on_zero() =>
            {
                rf.div_sites += 1;
            }
            Inst::LoadArrLocal { .. }
            | Inst::LoadArrGlobal { .. }
            | Inst::StoreArrLocal { .. }
            | Inst::StoreArrGlobal { .. } => rf.idx_sites += 1,
            _ => {}
        }
    }
    rf
}

fn sum_region_facts(report: &mut FactsReport) {
    report.div_sites = report.per_region.iter().map(|r| r.div_sites).sum();
    report.div_proved = report.per_region.iter().map(|r| r.div_proved).sum();
    report.idx_sites = report.per_region.iter().map(|r| r.idx_sites).sum();
    report.idx_proved = report.per_region.iter().map(|r| r.idx_proved).sum();
}

/// Walks one converged region, setting fact bits and emitting `AN6xx`
/// diagnostics from the final states.
fn extract_region_facts(
    program: &Program,
    region: &Region,
    run: &RegionRun,
    facts: &mut SiteFacts,
    report: &mut FactsReport,
    diags: &mut Vec<Diagnostic>,
) -> RegionFacts {
    let start = region.start as usize;
    let mut rf = textual_region_facts(program, region);
    rf.analyzed = true;

    for (rel, inst) in code_of(program, region).iter().enumerate() {
        let addr = (start + rel) as u32;
        let Some(st) = &run.states[rel] else { continue };
        report.depth_exact += 1;

        // Divisor / index facts.
        let divisor: Option<Interval> = match *inst {
            Inst::Bin(op) if op.traps_on_zero() => st.stack.last().map(|v| v.itv),
            Inst::BinLocals { op, b, .. } | Inst::CmpLocalsBr { op, b, .. }
                if op.traps_on_zero() =>
            {
                st.locals.get(b as usize).copied()
            }
            Inst::CmpConstBr { op, imm, .. } if op.traps_on_zero() => {
                Some(Interval::singleton(imm))
            }
            _ => None,
        };
        if let Some(d) = divisor {
            if d.excludes_zero() {
                facts.set_div_ok(addr);
                rf.div_proved += 1;
            }
        }
        let index: Option<(Interval, u32)> = match *inst {
            Inst::LoadArrLocal { len, .. } | Inst::LoadArrGlobal { len, .. } => {
                st.stack.last().map(|v| (v.itv, len))
            }
            Inst::StoreArrLocal { len, .. } | Inst::StoreArrGlobal { len, .. } => {
                let d = st.stack.len();
                d.checked_sub(2)
                    .and_then(|i| st.stack.get(i))
                    .map(|v| (v.itv, len))
            }
            _ => None,
        };
        if let Some((idx, len)) = index {
            if idx.lo >= 0 && idx.hi < i64::from(len) {
                facts.set_idx_ok(addr);
                rf.idx_proved += 1;
            }
        }

        // Decided-branch diagnostics.
        let decided: Option<Option<bool>> = match *inst {
            Inst::JumpIfFalse(_) => st.stack.last().map(|c| {
                if c.itv.is_zero() {
                    Some(true) // condition zero: always jumps
                } else if c.itv.excludes_zero() {
                    Some(false) // never jumps
                } else {
                    None
                }
            }),
            Inst::JumpIfTrue(_) => st.stack.last().map(|c| {
                if c.itv.excludes_zero() {
                    Some(true)
                } else if c.itv.is_zero() {
                    Some(false)
                } else {
                    None
                }
            }),
            Inst::CmpConstBr { op, slot, imm, .. } => {
                let lhs = st.locals.get(slot as usize).copied();
                let rhs = Interval::singleton(imm);
                if op.traps_on_zero() && !rhs.excludes_zero() {
                    None
                } else {
                    lhs.map(|l| {
                        let r = alu_interval(op, l, rhs);
                        if r.is_zero() {
                            Some(true) // result false: always jumps
                        } else if r.excludes_zero() {
                            Some(false)
                        } else {
                            None
                        }
                    })
                }
            }
            Inst::CmpLocalsBr { op, a, b, .. } => {
                let lhs = st.locals.get(a as usize).copied();
                let rhs = st.locals.get(b as usize).copied();
                match (lhs, rhs) {
                    (Some(l), Some(r)) if !op.traps_on_zero() || r.excludes_zero() => {
                        let v = alu_interval(op, l, r);
                        if v.is_zero() {
                            Some(Some(true))
                        } else if v.excludes_zero() {
                            Some(Some(false))
                        } else {
                            Some(None)
                        }
                    }
                    _ => None,
                }
            }
            _ => None,
        };
        match decided {
            Some(Some(true)) => {
                report.branches_always += 1;
                diags.push(Diagnostic::at(
                    DiagCode::BranchAlwaysTaken,
                    addr,
                    &region.name,
                    "branch condition is statically decided: always taken".to_string(),
                ));
            }
            Some(Some(false)) => {
                report.branches_never += 1;
                diags.push(Diagnostic::at(
                    DiagCode::BranchNeverTaken,
                    addr,
                    &region.name,
                    "branch condition is statically decided: never taken".to_string(),
                ));
            }
            _ => {}
        }
    }

    // Unreachable-code runs (coalesced into one diagnostic per run).
    let mut rel = 0usize;
    let n = run.states.len();
    while rel < n {
        if run.states[rel].is_none() {
            let first = rel;
            while rel < n && run.states[rel].is_none() {
                rel += 1;
            }
            let count = (rel - first) as u32;
            report.unreachable_insts += count;
            let a = (start + first) as u32;
            let b = (start + rel - 1) as u32;
            let span = if a == b {
                format!("instruction {a} is unreachable")
            } else {
                format!("instructions {a}..={b} are unreachable")
            };
            diags.push(Diagnostic::at(
                DiagCode::UnreachableCode,
                a,
                &region.name,
                span,
            ));
        } else {
            rel += 1;
        }
    }
    rf
}

#[cfg(test)]
mod tests {
    use super::*;
    use dir::compiler::compile;

    fn facts_for(src: &str) -> (SiteFacts, FactsReport, Vec<Diagnostic>) {
        let hir = hlr::compile(src).unwrap();
        let program = compile(&hir);
        let mut diags = Vec::new();
        let (facts, report) = analyze(&program, &mut diags);
        (facts, report, diags)
    }

    #[test]
    fn constant_divisor_is_discharged() {
        let (facts, report, _) = facts_for("proc main() begin write 10 / 2; end");
        assert_eq!(report.div_sites, 1);
        assert_eq!(report.div_proved, 1);
        assert_eq!(facts.div_count(), 1);
    }

    #[test]
    fn possibly_zero_divisor_is_not_discharged() {
        let (facts, report, _) = facts_for(
            "proc main() begin
                int d; d := 3 - 3;
                write 10 / d;
            end",
        );
        assert_eq!(report.div_sites, 1);
        assert_eq!(report.div_proved, 0);
        assert_eq!(facts.div_count(), 0);
    }

    #[test]
    fn loop_counter_index_is_discharged() {
        let (facts, report, _) = facts_for(
            "proc main() begin
                int a[10]; int i;
                for i := 0 to 9 do a[i] := i;
                write a[3];
            end",
        );
        assert!(report.idx_sites >= 2, "store in loop + literal load");
        assert_eq!(
            report.idx_proved, report.idx_sites,
            "bounded counter and literal index must both discharge"
        );
        assert_eq!(facts.idx_count(), report.idx_sites);
    }

    #[test]
    fn unbounded_index_is_not_discharged() {
        let (_, report, _) = facts_for(
            "int g;
             proc main() begin
                int a[4];
                write a[g];
            end",
        );
        assert_eq!(report.idx_sites, 1);
        assert_eq!(report.idx_proved, 0);
    }

    #[test]
    fn interprocedural_argument_ranges_discharge_callee_sites() {
        let (_, report, _) = facts_for(
            "proc half(int d) -> int begin return 100 / d; end
             proc main() begin write half(4); write half(5); end",
        );
        assert_eq!(report.div_sites, 1);
        assert_eq!(
            report.div_proved, 1,
            "both call sites pass nonzero constants; the join [4,5] excludes 0"
        );
    }

    #[test]
    fn zero_argument_voids_the_callee_fact() {
        let (_, report, _) = facts_for(
            "proc half(int d) -> int begin return 100 / d; end
             proc main() begin write half(4); write half(0 * 3); end",
        );
        assert_eq!(report.div_sites, 1);
        assert_eq!(report.div_proved, 0);
    }

    #[test]
    fn decided_branches_are_reported() {
        let (_, report, diags) = facts_for(
            "proc main() begin
                if 1 < 2 then write 7;
            end",
        );
        assert!(
            report.branches_never + report.branches_always >= 1,
            "a constant comparison must be decided: {report:?}"
        );
        assert!(diags.iter().any(|d| matches!(
            d.code,
            DiagCode::BranchNeverTaken | DiagCode::BranchAlwaysTaken
        )));
    }

    #[test]
    fn while_true_tail_is_unreachable() {
        let (_, report, diags) = facts_for(
            "proc spin() begin while true do skip; end
             proc main() begin call spin(); write 1; end",
        );
        // The loop never exits: spin's Return and main's continuation
        // (everything after the call) are unreachable.
        assert!(report.unreachable_insts > 0, "{report:?}");
        assert!(diags.iter().any(|d| d.code == DiagCode::UnreachableCode));
    }

    #[test]
    fn every_sample_program_analyzes_with_sound_depths() {
        for s in hlr::programs::ALL {
            let program = compile(&s.compile().unwrap());
            let mut diags = Vec::new();
            let (facts, report) = analyze(&program, &mut diags);
            assert!(
                report.per_region.iter().all(|r| r.analyzed),
                "{}: all regions reachable from the prelude must converge",
                s.name
            );
            assert!(report.div_proved <= report.div_sites, "{}", s.name);
            assert!(report.idx_proved <= report.idx_sites, "{}", s.name);
            assert_eq!(facts.div_count(), report.div_proved, "{}", s.name);
            assert_eq!(facts.idx_count(), report.idx_proved, "{}", s.name);
        }
    }

    #[test]
    fn join_is_monotone_and_widen_reaches_fixpoint_within_bound() {
        // Seeded property test: join is an upper bound of both operands,
        // and iterate-with-widen converges within the modeled bound.
        let mut rng = hlr::rng::Rng::new(0xDA7A_F10F);
        let rand_itv = |rng: &mut hlr::rng::Rng| {
            let a = rng.range_i64(-1_000_000, 1_000_000);
            let b = rng.range_i64(-1_000_000, 1_000_000);
            Interval {
                lo: a.min(b),
                hi: a.max(b),
            }
        };
        for _ in 0..2_000 {
            let x = rand_itv(&mut rng);
            let y = rand_itv(&mut rng);
            let j = x.join(y);
            assert!(j.lo <= x.lo && j.hi >= x.hi, "join contains x");
            assert!(j.lo <= y.lo && j.hi >= y.hi, "join contains y");
            assert_eq!(j, y.join(x), "join is commutative");
            assert_eq!(j.join(j), j, "join is idempotent");

            // Widening chain: feed an endless stream of fresh samples; the
            // state must stop changing after at most WIDEN_AFTER joins
            // plus two widening steps (one per bound).
            let mut state = x;
            let mut changes = 0u32;
            for _ in 0..64 {
                let sample = rand_itv(&mut rng);
                let joined = state.join(sample);
                if joined == state {
                    continue;
                }
                changes += 1;
                state = if changes >= WIDEN_AFTER {
                    state.widen(joined)
                } else {
                    joined
                };
            }
            assert!(
                changes <= WIDEN_AFTER + 2,
                "widening must cap the ascending chain, saw {changes} changes"
            );
            // And the fixpoint really is a fixpoint.
            assert_eq!(state.widen(state.join(state)), state);
        }
    }

    #[test]
    fn refine_preserves_soundness_on_samples() {
        let mut rng = hlr::rng::Rng::new(0x5EED_0123);
        let ops = [
            AluOp::Eq,
            AluOp::Ne,
            AluOp::Lt,
            AluOp::Le,
            AluOp::Gt,
            AluOp::Ge,
        ];
        for _ in 0..4_000 {
            let a = rng.range_i64(-40, 40);
            let b = rng.range_i64(-40, 40);
            let (xl, xh) = {
                let l = rng.range_i64(-40, 40);
                (l.min(a), l.max(a))
            };
            let x = Interval { lo: xl, hi: xh };
            let rhs = Interval::singleton(b);
            let op = ops[rng.range_u32(0, ops.len() as u32) as usize];
            let truth = op.apply(a, b).unwrap() != 0;
            // `a` satisfies `a op b == truth` and lies in x, so the
            // refined interval must keep it.
            let refined = refine(op, x, rhs, truth)
                .unwrap_or_else(|| panic!("feasible refinement dropped: {op:?} {a} {b} {truth}"));
            assert!(
                refined.contains(a),
                "{op:?} x={x:?} rhs={b} truth={truth}: refined {refined:?} lost {a}"
            );
        }
    }
}
