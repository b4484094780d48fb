//! The always-on counter plane: per-region, per-opcode and per-tier
//! attribution at retire granularity, and the per-instruction execution
//! profile with its coverage curve.
//!
//! [`CounterPlane`] is a [`TraceSink`] designed to stay attached to
//! production runs: it reacts to exactly three event kinds (`Retire`,
//! `DtbFill`, `Evict`), does a constant amount of array arithmetic per
//! retire, and allocates nothing on the hot path. Crucially it sets
//! [`TraceSink::CLASSIFY_MISSES`] to `false`, so attaching it does not
//! switch on the shadow three-C miss classifier — a profiled run's
//! modeled metrics are bit-identical to an untraced run (the differential
//! test in `tests/profile_plane.rs` enforces this), and the extra host
//! cost stays inside the `profile_gate` bench's ≤ 5 % budget.

use dir::isa::{OPCODES, OPCODE_COUNT};
use dir::program::Program;
use telemetry::{Event, Json, Tier, TraceSink};

use crate::map::ProcMap;

/// Retained samples per timeline before the sampling stride doubles.
const TIMELINE_CAP: usize = 4096;

/// A sampled timeline: `(retire_index, value)` points with a power-of-two
/// sampling stride that doubles whenever the buffer fills, so memory is
/// bounded on arbitrarily long runs while short runs keep every point.
/// Compaction is purely a function of the sample ordinals, so the
/// retained set is deterministic for a given event stream.
#[derive(Debug, Clone)]
struct Timeline {
    samples: Vec<(u64, u32)>,
    stride: u64,
    seen: u64,
}

impl Timeline {
    fn new() -> Timeline {
        Timeline {
            samples: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }

    fn push(&mut self, at: u64, value: u32) {
        let ordinal = self.seen;
        self.seen += 1;
        // The stride is always a power of two, so the subsampling gate is
        // a mask, not a division — this runs once per DTB fill.
        if ordinal & (self.stride - 1) != 0 {
            return;
        }
        self.samples.push((at, value));
        if self.samples.len() >= TIMELINE_CAP {
            // Retained ordinals are the multiples of `stride`; keeping
            // the even positions keeps exactly the multiples of
            // `2 * stride`, matching the new gate below.
            let mut pos = 0usize;
            self.samples.retain(|_| {
                let keep = pos.is_multiple_of(2);
                pos += 1;
                keep
            });
            self.stride *= 2;
        }
    }

    fn to_json(&self, key: &'static str) -> Json {
        let points: Vec<Json> = self
            .samples
            .iter()
            .map(|&(at, v)| Json::obj([("at", Json::from(at)), (key, Json::from(i64::from(v)))]))
            .collect();
        Json::obj([
            ("events", Json::from(self.seen)),
            ("stride", Json::from(self.stride)),
            ("points", Json::Arr(points)),
        ])
    }
}

/// Per-row accumulation: dynamic retires and modeled cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Dynamic DIR instructions attributed to this row.
    pub retires: u64,
    /// Modeled level-1 cycles attributed to this row.
    pub cycles: u64,
}

/// The per-address hot-path row: everything one retire touches lives in
/// one indexed load — count, cycle accumulator, and the (static) opcode
/// needed for the pair histogram. Region and opcode attribution are
/// *derived* from these rows at report time instead of being updated per
/// retire, which keeps the emit path to three array touches.
#[derive(Debug, Clone, Copy, Default)]
struct AddrRow {
    retires: u64,
    cycles: u64,
    opcode: u8,
    /// `opcode * OPCODE_COUNT`, precomputed so the pair-histogram index
    /// is one add instead of a multiply on the retire path.
    pair_base: u16,
}

/// The always-on attribution sink.
#[derive(Debug, Clone)]
pub struct CounterPlane {
    map: ProcMap,
    rows: Vec<AddrRow>,
    tiers: [Attribution; Tier::COUNT],
    /// `(OPCODE_COUNT + 1) × OPCODE_COUNT` adjacency counts; the extra
    /// row is the start-of-run sentinel so the hot path needs no branch
    /// on "was there a previous retire". Saturating `u32` cells keep the
    /// whole histogram in half the cache footprint of `u64`; the default
    /// step limit (200 M) retires cannot overflow one.
    pairs: Vec<u32>,
    /// Row base (`prev_opcode * OPCODE_COUNT`) of the previous retire.
    prev_base: u16,
    occupancy: Timeline,
    evictions: Timeline,
    evicted: u64,
}

impl CounterPlane {
    /// Creates a counter plane for one program.
    pub fn new(program: &Program) -> CounterPlane {
        let rows = program
            .code
            .iter()
            .map(|i| {
                let opcode = i.opcode() as u8;
                AddrRow {
                    opcode,
                    pair_base: u16::from(opcode) * OPCODE_COUNT as u16,
                    ..AddrRow::default()
                }
            })
            .collect();
        CounterPlane {
            map: ProcMap::new(program),
            rows,
            tiers: [Attribution::default(); Tier::COUNT],
            pairs: vec![0; (OPCODE_COUNT + 1) * OPCODE_COUNT],
            prev_base: (OPCODE_COUNT * OPCODE_COUNT) as u16,
            occupancy: Timeline::new(),
            evictions: Timeline::new(),
            evicted: 0,
        }
    }

    /// Total retired DIR instructions observed (the tier rows partition
    /// the retire stream, so their sum is the total — no extra counter
    /// is maintained on the hot path).
    pub fn retired(&self) -> u64 {
        self.tiers.iter().map(|t| t.retires).sum()
    }

    /// Total modeled cycles observed (sum of per-retire deltas — equals
    /// the run's `CycleBreakdown::total()` by the retire invariant).
    pub fn cycles(&self) -> u64 {
        self.tiers.iter().map(|t| t.cycles).sum()
    }

    /// Per-region attribution as `(name, attribution)` rows, region 0
    /// being the prelude. Derived from the per-address rows (region is a
    /// static property of the address), so it costs nothing per retire.
    pub fn by_region(&self) -> Vec<(&str, Attribution)> {
        let mut regions = vec![Attribution::default(); self.map.regions()];
        for (addr, row) in self.rows.iter().enumerate() {
            let r = &mut regions[self.map.region_of(addr as u32)];
            r.retires += row.retires;
            r.cycles += row.cycles;
        }
        regions
            .into_iter()
            .enumerate()
            .map(|(i, a)| (self.map.name(i), a))
            .collect()
    }

    /// Per-opcode attribution in discriminant order (dense, includes
    /// zero rows). Derived from the per-address rows at call time.
    pub fn by_opcode(&self) -> [Attribution; OPCODE_COUNT] {
        let mut opcodes = [Attribution::default(); OPCODE_COUNT];
        for row in &self.rows {
            let o = &mut opcodes[row.opcode as usize];
            o.retires += row.retires;
            o.cycles += row.cycles;
        }
        opcodes
    }

    /// Per-tier attribution indexed by [`Tier::index`].
    pub fn by_tier(&self) -> [Attribution; Tier::COUNT] {
        self.tiers
    }

    /// The dynamic count of the ordered opcode pair `(from, to)` —
    /// retire-adjacency frequencies, the classic peephole-superinstruction
    /// signal.
    pub fn pair(&self, from: usize, to: usize) -> u64 {
        u64::from(self.pairs[from * OPCODE_COUNT + to])
    }

    /// The `n` most frequent ordered opcode pairs as
    /// `(from, to, count)`, descending by count with deterministic
    /// index-order tie-breaks. The start-of-run sentinel row is excluded.
    pub fn hottest_pairs(&self, n: usize) -> Vec<(usize, usize, u64)> {
        let mut rows: Vec<(usize, usize, u64)> = self.pairs[..OPCODE_COUNT * OPCODE_COUNT]
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i / OPCODE_COUNT, i % OPCODE_COUNT, u64::from(c)))
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        rows.truncate(n);
        rows
    }

    /// Attribution of static instruction `addr` (zero when out of range).
    pub fn at(&self, addr: u32) -> Attribution {
        self.rows
            .get(addr as usize)
            .map_or(Attribution::default(), |r| Attribution {
                retires: r.retires,
                cycles: r.cycles,
            })
    }

    /// Static instructions that retired at least once.
    pub fn touched(&self) -> usize {
        self.rows.iter().filter(|r| r.retires > 0).count()
    }

    /// The `n` hottest instructions as `(index, retires)`, descending by
    /// count; ties break by ascending instruction index, so the listing
    /// is stable run to run.
    pub fn hottest(&self, n: usize) -> Vec<(u32, u64)> {
        let mut pairs: Vec<(u32, u64)> = self
            .rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.retires > 0)
            .map(|(i, r)| (i as u32, r.retires))
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(n);
        pairs
    }

    /// For each `k` in `ks`, the fraction of dynamic execution covered
    /// by the hottest `k` static instructions — the locality skew a DTB
    /// of capacity `k` can exploit at best (with perfect replacement),
    /// and the paper's empirical case for a small DTB. Zero everywhere
    /// on an empty run. The rows are sorted once per call, however many
    /// points the curve has.
    pub fn coverage(&self, ks: &[usize]) -> Vec<f64> {
        let total = self.retired();
        if total == 0 {
            return vec![0.0; ks.len()];
        }
        let mut counts: Vec<u64> = self.rows.iter().map(|r| r.retires).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        ks.iter()
            .map(|&k| counts.iter().take(k).sum::<u64>() as f64 / total as f64)
            .collect()
    }

    /// Total DTB evictions observed.
    pub fn evictions(&self) -> u64 {
        self.evicted
    }

    /// The attribution payload as the canonical `profile` section of a
    /// [`telemetry::Kind::Profile`] report.
    pub fn to_json(&self) -> Json {
        let regions: Vec<Json> = self
            .by_region()
            .into_iter()
            .map(|(name, a)| {
                Json::obj([
                    ("name", Json::from(name)),
                    ("retires", Json::from(a.retires)),
                    ("cycles", Json::from(a.cycles)),
                ])
            })
            .collect();
        let opcodes: Vec<Json> = self
            .by_opcode()
            .iter()
            .enumerate()
            .filter(|(_, a)| a.retires > 0)
            .map(|(i, a)| {
                Json::obj([
                    ("opcode", Json::from(format!("{:?}", OPCODES[i]))),
                    ("retires", Json::from(a.retires)),
                    ("cycles", Json::from(a.cycles)),
                ])
            })
            .collect();
        let tiers: Vec<Json> = Tier::ALL
            .iter()
            .map(|t| {
                let a = self.tiers[t.index()];
                Json::obj([
                    ("tier", Json::from(t.label())),
                    ("retires", Json::from(a.retires)),
                    ("cycles", Json::from(a.cycles)),
                ])
            })
            .collect();
        let pairs: Vec<Json> = self
            .hottest_pairs(16)
            .into_iter()
            .map(|(from, to, count)| {
                Json::obj([
                    ("from", Json::from(format!("{:?}", OPCODES[from]))),
                    ("to", Json::from(format!("{:?}", OPCODES[to]))),
                    ("count", Json::from(count)),
                ])
            })
            .collect();
        let hottest: Vec<Json> = self
            .hottest(16)
            .into_iter()
            .map(|(addr, count)| {
                Json::obj([
                    ("addr", Json::from(addr)),
                    (
                        "region",
                        Json::from(self.map.name(self.map.region_of(addr))),
                    ),
                    ("opcode", {
                        let op = self.rows[addr as usize].opcode as usize;
                        Json::from(format!("{:?}", OPCODES[op]))
                    }),
                    ("retires", Json::from(count)),
                    ("cycles", Json::from(self.at(addr).cycles)),
                ])
            })
            .collect();
        let len = self.rows.len();
        let mut ks: Vec<usize> = std::iter::successors(Some(1usize), |k| Some(k * 2))
            .take_while(|&k| k < len.max(1))
            .collect();
        ks.push(len);
        let coverage: Vec<Json> = ks
            .iter()
            .zip(self.coverage(&ks))
            .map(|(&k, c)| Json::obj([("k", Json::from(k)), ("coverage", Json::from(c))]))
            .collect();
        Json::obj([
            ("regions", Json::Arr(regions)),
            ("opcodes", Json::Arr(opcodes)),
            ("tiers", Json::Arr(tiers)),
            ("pairs", Json::Arr(pairs)),
            ("hottest", Json::Arr(hottest)),
            ("coverage", Json::Arr(coverage)),
            (
                "dtb_timeline",
                Json::obj([
                    ("occupancy", self.occupancy.to_json("resident")),
                    ("evictions", self.evictions.to_json("victim")),
                ]),
            ),
        ])
    }
}

impl TraceSink for CounterPlane {
    // Attribution only — never perturb the modeled metrics by switching
    // on the shadow miss classifier.
    const CLASSIFY_MISSES: bool = false;

    #[inline]
    fn emit(&mut self, event: Event) {
        match event {
            Event::Retire { addr, tier, cycles } => {
                let cycles = u64::from(cycles);
                let t = &mut self.tiers[tier.index()];
                t.retires += 1;
                t.cycles += cycles;
                // Three touches total: the address row (count, cycles,
                // opcode and pair base share a load), the tier row above,
                // and one pair bump. Region and opcode attribution are
                // derived from the rows at report time, not per retire.
                if let Some(row) = self.rows.get_mut(addr as usize) {
                    row.retires += 1;
                    row.cycles += cycles;
                    let (op, base) = (row.opcode, row.pair_base);
                    let cell = &mut self.pairs[self.prev_base as usize + op as usize];
                    *cell = cell.saturating_add(1);
                    self.prev_base = base;
                }
            }
            Event::DtbFill { occupancy, .. } => self.on_fill(occupancy),
            Event::Evict { victim, .. } => self.on_evict(victim),
            _ => {}
        }
    }
}

impl CounterPlane {
    // The timeline arms live out of line so the inlined `emit` body at
    // every machine emit site stays small enough to actually inline —
    // fills and evictions happen at miss frequency, not retire frequency.
    #[cold]
    fn on_fill(&mut self, occupancy: u32) {
        self.occupancy.push(self.retired(), occupancy);
    }

    #[cold]
    fn on_evict(&mut self, victim: u32) {
        self.evicted += 1;
        self.evictions.push(self.retired(), victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dir::encode::SchemeKind;
    use uhm::{DtbConfig, Machine, Mode, RunOptions};

    fn plane_for(src: &str, mode: &Mode) -> (CounterPlane, uhm::Report) {
        let program = dir::compiler::compile(&hlr::compile(src).unwrap());
        let machine = Machine::new(&program, SchemeKind::Packed);
        let mut plane = CounterPlane::new(&program);
        let report = machine
            .run_with(mode, &mut plane, RunOptions::default())
            .unwrap();
        (plane, report)
    }

    const LOOP: &str = "proc main() begin
        int i; int s := 0;
        for i := 0 to 99 do s := s + i;
        write s;
    end";

    #[test]
    fn attribution_sums_match_the_run_exactly() {
        let (plane, report) = plane_for(LOOP, &Mode::Dtb(DtbConfig::with_capacity(16)));
        // The retire invariant: counts and cycle deltas partition the
        // run's totals exactly, along every attribution axis.
        assert_eq!(plane.retired(), report.metrics.instructions);
        assert_eq!(plane.cycles(), report.metrics.cycles.total());
        let region_sum: u64 = plane.by_region().iter().map(|(_, a)| a.cycles).sum();
        let opcode_sum: u64 = plane.by_opcode().iter().map(|a| a.cycles).sum();
        let tier_sum: u64 = plane.by_tier().iter().map(|a| a.cycles).sum();
        assert_eq!(region_sum, plane.cycles());
        assert_eq!(opcode_sum, plane.cycles());
        assert_eq!(tier_sum, plane.cycles());
        let tier_retires: u64 = plane.by_tier().iter().map(|a| a.retires).sum();
        assert_eq!(tier_retires, plane.retired());
    }

    #[test]
    fn tiers_split_between_interp_and_psder_in_dtb_mode() {
        let (plane, _) = plane_for(LOOP, &Mode::Dtb(DtbConfig::with_capacity(16)));
        let tiers = plane.by_tier();
        // First visits interpret (miss path counts as dispatch after
        // fill), loop re-executions dispatch from the DTB.
        assert!(
            tiers[Tier::Psder.index()].retires > 0,
            "no psder dispatches"
        );
    }

    #[test]
    fn interpreter_mode_is_all_interp_tier() {
        let (plane, report) = plane_for(LOOP, &Mode::Interpreter);
        let tiers = plane.by_tier();
        assert_eq!(
            tiers[Tier::Interp.index()].retires,
            report.metrics.instructions
        );
        assert_eq!(tiers[Tier::Psder.index()].retires, 0);
    }

    #[test]
    fn pairs_count_adjacent_retires() {
        let (plane, report) = plane_for(LOOP, &Mode::Interpreter);
        let total_pairs: u64 = (0..OPCODE_COUNT)
            .flat_map(|a| (0..OPCODE_COUNT).map(move |b| (a, b)))
            .map(|(a, b)| plane.pair(a, b))
            .sum();
        // N retires produce exactly N-1 adjacent pairs.
        assert_eq!(total_pairs, report.metrics.instructions - 1);
        let hottest = plane.hottest_pairs(4);
        assert!(!hottest.is_empty());
        assert!(hottest.windows(2).all(|w| w[0].2 >= w[1].2));
    }

    #[test]
    fn profile_matches_the_reference_trace() {
        // The machine's counter plane must agree, address by address,
        // with counts tallied from the reference executor's recorded
        // trace.
        let program = dir::compiler::compile(&hlr::compile(LOOP).unwrap());
        let machine = Machine::new(&program, SchemeKind::Packed);
        let mut plane = CounterPlane::new(&program);
        machine
            .run_with(&Mode::Interpreter, &mut plane, RunOptions::default())
            .unwrap();
        let (_, stats) = dir::exec::run_with(&program, dir::exec::Limits::default(), true).unwrap();
        let mut tally = vec![0u64; program.len()];
        for addr in stats.trace.unwrap() {
            tally[addr as usize] += 1;
        }
        let retires: Vec<u64> = (0..program.len() as u32)
            .map(|a| plane.at(a).retires)
            .collect();
        assert_eq!(retires, tally);
        assert_eq!(plane.retired(), tally.iter().sum::<u64>());
    }

    /// A plane over a `counts.len()`-instruction program, fed
    /// `counts[a]` `Retire` events at each address `a`.
    fn plane_with_counts(counts: &[u64]) -> CounterPlane {
        let program = Program {
            code: vec![dir::Inst::Halt; counts.len()],
            procs: Vec::new(),
            entry_proc: 0,
            globals_size: 0,
        };
        let mut plane = CounterPlane::new(&program);
        for (addr, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                plane.emit(Event::Retire {
                    addr: addr as u32,
                    tier: Tier::Interp,
                    cycles: 1,
                });
            }
        }
        plane
    }

    #[test]
    fn hottest_breaks_count_ties_by_ascending_index() {
        // Regression: `hottest` once depended on the (unstable) sort
        // order for equal counts, so tied instructions could come back
        // in any order and profile listings diffed across runs.
        let plane = plane_with_counts(&[5, 7, 5, 7, 0, 5]);
        assert_eq!(
            plane.hottest(10),
            vec![(1, 7), (3, 7), (0, 5), (2, 5), (5, 5)]
        );
        // Truncation keeps the deterministic prefix.
        assert_eq!(plane.hottest(3), vec![(1, 7), (3, 7), (0, 5)]);
        assert_eq!(plane.touched(), 5);
    }

    #[test]
    fn coverage_is_bounded_monotone_and_saturates() {
        // Property: on random retire streams, coverage never decreases
        // as k grows, stays in [0, 1], is 0 at k = 0 and 1 from the
        // program length on.
        let mut rng = hlr::rng::Rng::new(0x636f_7665);
        for case in 0..32 {
            let len = rng.range_usize(1, 40);
            let steps = rng.range_usize(1, 400);
            let mut counts = vec![0u64; len];
            for _ in 0..steps {
                counts[rng.range_usize(0, len)] += 1;
            }
            let plane = plane_with_counts(&counts);
            let ks: Vec<usize> = (0..=len * 2).collect();
            let curve = plane.coverage(&ks);
            assert_eq!(curve[0], 0.0, "case {case}");
            for (k, pair) in curve.windows(2).enumerate() {
                assert!(
                    (0.0..=1.0 + 1e-12).contains(&pair[1]),
                    "case {case}: coverage({}) = {} out of range",
                    k + 1,
                    pair[1]
                );
                assert!(pair[1] >= pair[0] - 1e-12, "case {case}: dips at {}", k + 1);
            }
            for &c in &curve[len..] {
                assert!((c - 1.0).abs() < 1e-12, "case {case}: saturates at {c}");
            }
        }
        // A flat profile (straight-line code) covers linearly.
        let flat = plane_with_counts(&[1; 40]);
        assert_eq!(flat.touched(), 40);
        assert_eq!(flat.coverage(&[20]), vec![0.5]);
    }

    #[test]
    fn empty_run_has_zero_coverage() {
        let plane = plane_with_counts(&[0; 6]);
        assert_eq!(plane.retired(), 0);
        assert_eq!(plane.touched(), 0);
        assert!(plane.hottest(4).is_empty());
        assert_eq!(plane.coverage(&[0, 1, 6, 60]), vec![0.0; 4]);
    }

    #[test]
    fn loop_bodies_dominate_and_bound_the_dtb_hit_ratio() {
        let (plane, _) = plane_for(LOOP, &Mode::Interpreter);
        // The hottest instruction executes once per iteration, and a
        // handful of instructions cover almost everything.
        assert!(plane.hottest(1)[0].1 >= 100);
        assert!(plane.coverage(&[12])[0] > 0.9);
        // A DTB's hit ratio can never exceed the coverage of its
        // capacity (perfect replacement bound).
        let program = dir::compiler::compile(&hlr::programs::QUEENS.compile().unwrap());
        let machine = Machine::new(&program, SchemeKind::Packed);
        let mut plane = CounterPlane::new(&program);
        machine
            .run_with(&Mode::Interpreter, &mut plane, RunOptions::default())
            .unwrap();
        let caps = [8usize, 32];
        for (cap, bound) in caps.into_iter().zip(plane.coverage(&caps)) {
            let r = machine
                .run(&Mode::Dtb(DtbConfig::with_capacity(cap)))
                .unwrap();
            let h = r.metrics.dtb.unwrap().hit_ratio();
            assert!(h <= bound + 1e-9, "cap {cap}: hit ratio {h} > {bound}");
        }
    }

    #[test]
    fn dtb_timelines_record_fills_and_evictions() {
        let (plane, report) = plane_for(LOOP, &Mode::Dtb(DtbConfig::with_capacity(4)));
        let dtb = report.metrics.dtb.unwrap();
        assert!(plane.occupancy.seen > 0, "no fills observed");
        assert_eq!(plane.evictions(), dtb.evictions);
        let j = plane.to_json();
        let tl = j.get("dtb_timeline").unwrap();
        let occ = tl.get("occupancy").unwrap();
        assert!(occ.get("points").and_then(Json::as_arr).is_some());
        // Occupancy never exceeds capacity.
        for p in occ.get("points").and_then(Json::as_arr).unwrap() {
            let r = p.get("resident").and_then(Json::as_i64).unwrap();
            assert!((0..=4).contains(&r), "occupancy {r} out of range");
        }
    }

    #[test]
    fn timeline_compaction_is_bounded_and_deterministic() {
        let mut a = Timeline::new();
        let mut b = Timeline::new();
        for i in 0..100_000u64 {
            a.push(i, (i % 7) as u32);
            b.push(i, (i % 7) as u32);
        }
        assert!(a.samples.len() < TIMELINE_CAP);
        assert_eq!(a.seen, 100_000);
        assert!(a.stride > 1);
        assert_eq!(a.samples, b.samples, "compaction must be deterministic");
        // Retained ordinals are exactly the multiples of the final stride.
        for (at, _) in &a.samples {
            assert_eq!(at % a.stride, 0);
        }
    }

    #[test]
    fn json_payload_has_all_sections() {
        let (plane, _) = plane_for(LOOP, &Mode::Dtb(DtbConfig::with_capacity(16)));
        let j = plane.to_json();
        for key in [
            "regions",
            "opcodes",
            "tiers",
            "pairs",
            "hottest",
            "coverage",
            "dtb_timeline",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        // Coverage is monotone in k.
        let cov = j.get("coverage").and_then(Json::as_arr).unwrap();
        let values: Vec<f64> = cov
            .iter()
            .map(|c| c.get("coverage").and_then(Json::as_f64).unwrap())
            .collect();
        assert!(values.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        assert!((values.last().unwrap() - 1.0).abs() < 1e-12);
    }
}
