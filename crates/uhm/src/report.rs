//! Canonical JSON serialization of machine runs: the bridge between
//! [`Metrics`] and the versioned [`telemetry::Report`] envelope.
//!
//! Every machine-readable emitter in the workspace — `raul run --json`,
//! `raul profile --json`, the bench binaries — goes through these
//! builders so the reports share one shape: a `metrics` section with the
//! raw counters and per-activity cycle breakdown, and a `derived`
//! section with the paper's Section 7 parameters (`T`, `d`, `g`, `x`,
//! `s1`, `s2`) plus hit ratios. Consumers should check `schema_version`
//! (currently [`telemetry::SCHEMA_VERSION`]) and `kind`.

use telemetry::{Json, Kind, Percentiles, Report};

use crate::dtb::DtbStats;
use crate::fault::FaultStats;
use crate::metrics::{CycleBreakdown, Metrics};
use crate::pool::{PoolRun, TenantResult};
use crate::service::{RequestOutcome, ServiceRun, StepRun};
use crate::window::WindowSample;
use memsim::CacheStats;

/// Serializes a cycle breakdown as an object of per-activity counts plus
/// the total.
pub fn cycles_json(c: &CycleBreakdown) -> Json {
    Json::obj(vec![
        ("fetch_l2", c.fetch_l2.into()),
        ("fetch_dtb", c.fetch_dtb.into()),
        ("fetch_cache", c.fetch_cache.into()),
        ("lookup", c.lookup.into()),
        ("lookup2", c.lookup2.into()),
        ("promote", c.promote.into()),
        ("decode", c.decode.into()),
        ("generate", c.generate.into()),
        ("store", c.store.into()),
        ("steering", c.steering.into()),
        ("semantic", c.semantic.into()),
        ("total", c.total().into()),
    ])
}

/// Serializes DTB statistics, including the cold/capacity/conflict
/// taxonomy (the per-kind counters are zero unless the run had
/// classification enabled, i.e. ran under an enabled trace sink).
pub fn dtb_stats_json(s: &DtbStats) -> Json {
    Json::obj(vec![
        ("hits", s.hits.into()),
        ("misses", s.misses.into()),
        ("evictions", s.evictions.into()),
        ("uncached", s.uncached.into()),
        ("overflow_peak", s.overflow_peak.into()),
        ("hit_ratio", s.hit_ratio().into()),
        ("cold_misses", s.cold_misses.into()),
        ("capacity_misses", s.capacity_misses.into()),
        ("conflict_misses", s.conflict_misses.into()),
        ("recoveries", s.recoveries.into()),
    ])
}

/// Serializes fault-injection totals (fault plane only).
pub fn fault_stats_json(s: &FaultStats) -> Json {
    Json::obj(vec![
        ("dir_bits_flipped", s.dir_bits_flipped.into()),
        ("dtb_words_corrupted", s.dtb_words_corrupted.into()),
        ("dtb_tags_poisoned", s.dtb_tags_poisoned.into()),
        ("fetches_dropped", s.fetches_dropped.into()),
        ("total", s.total().into()),
    ])
}

fn cache_stats_json(s: &CacheStats) -> Json {
    Json::obj(vec![
        ("hits", s.hits.into()),
        ("misses", s.misses.into()),
        ("evictions", s.evictions.into()),
        ("hit_ratio", s.hit_ratio().into()),
    ])
}

/// Serializes the raw counters of a run: instruction/word counts, the
/// cycle breakdown, the IU1/IU2/memory cycle partition, and any DTB or
/// i-cache statistics.
pub fn metrics_json(m: &Metrics) -> Json {
    let mut fields = vec![
        ("instructions", m.instructions.into()),
        ("decoded", m.decoded.into()),
        ("l2_words", m.l2_words.into()),
        ("short_words", m.short_words.into()),
        ("routine_words", m.routine_words.into()),
        ("cycles", cycles_json(&m.cycles)),
        ("iu1_cycles", m.iu1_cycles().into()),
        ("iu2_cycles", m.iu2_cycles().into()),
        ("memory_cycles", m.memory_cycles().into()),
        ("recoveries", m.recoveries.into()),
        ("degraded_instructions", m.degraded_instructions.into()),
        ("fetch_retries", m.fetch_retries.into()),
    ];
    if let Some(s) = &m.dtb {
        fields.push(("dtb", dtb_stats_json(s)));
    }
    if let Some(s) = &m.dtb2 {
        fields.push(("dtb2", dtb_stats_json(s)));
    }
    if let Some(s) = &m.icache {
        fields.push(("icache", cache_stats_json(s)));
    }
    if let Some(s) = &m.faults {
        fields.push(("faults", fault_stats_json(s)));
    }
    Json::obj(fields)
}

/// Serializes the measured Section 7 parameters of a run.
pub fn derived_json(m: &Metrics) -> Json {
    Json::obj(vec![
        ("time_per_instruction", m.time_per_instruction().into()),
        ("d", m.mean_decode().into()),
        ("g", m.mean_generate().into()),
        ("x", m.mean_semantic().into()),
        ("s1", m.mean_s1().into()),
        ("s2", m.mean_s2().into()),
    ])
}

/// Serializes one window sample.
pub fn window_json(w: &WindowSample) -> Json {
    Json::obj(vec![
        ("start", w.start.into()),
        ("instructions", w.instructions.into()),
        ("dtb_hits", w.dtb_hits.into()),
        ("dtb_misses", w.dtb_misses.into()),
        ("hit_rate", w.hit_rate().into()),
        ("occupancy", w.occupancy.into()),
        ("time_per_instruction", w.time_per_instruction().into()),
        ("cycles", w.cycles.into()),
    ])
}

/// Builds the canonical [`Kind::Run`] report for a finished run: `tool`
/// names the emitting binary, `config` describes the run's inputs
/// (free-form, tool-specific). A caller that sampled windows pushes
/// them as a `windows` section of [`window_json`] rows.
pub fn run_report(tool: &str, config: Json, metrics: &Metrics) -> Report {
    Report::new(
        Kind::Run,
        tool,
        config,
        [
            ("metrics", metrics_json(metrics)),
            ("derived", derived_json(metrics)),
        ],
    )
}

/// Serializes trace-sink health for a report's `trace_health` section:
/// `ring` is the flight recorder's `(retained, dropped)` split, `file`
/// the streaming sink's `(written, deferred write error)` status. Pass
/// what the run used; absent sinks are simply omitted, and an all-`None`
/// call yields an empty object (callers should then skip the section).
pub fn trace_health_json(ring: Option<(u64, u64)>, file: Option<(u64, Option<String>)>) -> Json {
    let mut fields = Vec::new();
    if let Some((retained, dropped)) = ring {
        fields.push((
            "ring",
            Json::obj(vec![
                ("retained", (retained as i64).into()),
                ("dropped", (dropped as i64).into()),
            ]),
        ));
    }
    if let Some((written, error)) = file {
        let mut f = vec![("written", Json::from(written as i64))];
        if let Some(e) = error {
            f.push(("write_error", e.as_str().into()));
        }
        fields.push(("file", Json::obj(f)));
    }
    Json::obj(fields)
}

/// Serializes one tenant's result: identity, placement, latency,
/// supervision counters, and — for completed tenants — the modeled
/// instruction/cycle totals. Every non-completed outcome carries a
/// `detail` string instead.
pub fn tenant_json(r: &TenantResult) -> Json {
    let mut fields = vec![
        ("tenant", (r.tenant as i64).into()),
        ("name", r.name.as_str().into()),
        ("worker", (r.worker as i64).into()),
        ("status", r.outcome.status().into()),
        ("latency_ns", (r.latency_ns as i64).into()),
        ("attempts", (r.attempts as i64).into()),
        ("backoff_ns", (r.backoff_ns as i64).into()),
    ];
    match &r.outcome {
        RequestOutcome::Completed(report) => {
            fields.push(("instructions", report.metrics.instructions.into()));
            fields.push(("cycles", report.metrics.cycles.total().into()));
            fields.push(("output_len", (report.output.len() as i64).into()));
        }
        RequestOutcome::Trapped(trap) | RequestOutcome::TimedOut(trap) => {
            fields.push(("detail", format!("{trap:?}").as_str().into()));
        }
        RequestOutcome::Panicked(msg)
        | RequestOutcome::Rejected(msg)
        | RequestOutcome::Shed(msg)
        | RequestOutcome::Quarantined(msg) => {
            fields.push(("detail", msg.as_str().into()));
        }
    }
    Json::obj(fields)
}

/// Builds the canonical [`Kind::Pool`] report for a finished pool run:
/// per-tenant results in tenant order, pool aggregates (wall-clock,
/// modeled totals, aggregate Minstr/s, utilization) and the served
/// tenants' latency percentiles in nanoseconds.
pub fn pool_report(tool: &str, config: Json, run: &PoolRun) -> Report {
    let tenants = Json::Arr(run.results.iter().map(tenant_json).collect());
    let utilization = run.worker_utilization();
    let mut aggregate = vec![
        ("wall_ns", (run.wall_ns as i64).into()),
        ("workers", (run.workers as i64).into()),
        ("tenants", (run.results.len() as i64).into()),
    ];
    aggregate.extend(status_counts(&[], |s| run.outcome_count(s)));
    aggregate.extend([
        ("retries", (run.retries as i64).into()),
        ("worker_crashes", (run.worker_crashes as i64).into()),
        ("instructions", run.total_instructions().into()),
        ("cycles", run.total_cycles().into()),
        ("minstr_per_sec", run.minstr_per_sec().into()),
        (
            "utilization",
            Json::Arr(utilization.iter().map(|&u| Json::from(u)).collect()),
        ),
    ]);
    Report::new(
        Kind::Pool,
        tool,
        config,
        [
            ("tenants", tenants),
            ("aggregate", Json::obj(aggregate)),
            ("latency_ns", percentiles_json(&run.latency_percentiles())),
        ],
    )
}

/// The statuses a service run never produces: they need a pool
/// supervisor's budget and circuit breakers, so service reports omit
/// their always-zero counts.
const SUPERVISED_ONLY: [&str; 2] = ["timed_out", "quarantined"];

/// One `(status, count)` field per [`RequestOutcome::STATUSES`] entry,
/// in order, except those in `omit`.
fn status_counts<'a>(
    omit: &'a [&str],
    count: impl Fn(&str) -> usize + 'a,
) -> impl Iterator<Item = (&'static str, Json)> + 'a {
    RequestOutcome::STATUSES
        .into_iter()
        .filter(|s| !omit.contains(s))
        .map(move |s| (s, (count(s) as i64).into()))
}

/// Serializes a percentile quadruple.
fn percentiles_json(p: &Percentiles) -> Json {
    Json::obj(vec![
        ("p50", p.p50.into()),
        ("p95", p.p95.into()),
        ("p99", p.p99.into()),
        ("p999", p.p999.into()),
    ])
}

/// Serializes one load step of a service run: the arrival rate, the
/// request outcome table, queue behavior, the step's modeled-latency
/// percentiles (the deterministic trajectory point), and the host-side
/// pool observables (wall-clock, throughput — never asserted against).
pub fn step_json(s: &StepRun) -> Json {
    let mut fields = vec![
        ("rate_per_mcycle", (s.rate_per_mcycle as i64).into()),
        ("requests", (s.results.len() as i64).into()),
    ];
    fields.extend(status_counts(&SUPERVISED_ONLY, |x| s.outcome_count(x)));
    fields.extend([
        ("served", (s.served() as i64).into()),
        ("lost", (s.lost() as i64).into()),
        ("queue_peak", (s.queue_peak as i64).into()),
        ("makespan_cycles", (s.makespan_cycles() as i64).into()),
        ("latency_cycles", percentiles_json(&s.latency_percentiles())),
        (
            "host",
            Json::obj(vec![
                ("wall_ns", (s.pool.wall_ns as i64).into()),
                ("minstr_per_sec", s.pool.minstr_per_sec().into()),
            ]),
        ),
    ]);
    Json::obj(fields)
}

/// Builds the canonical [`Kind::Service`] report for a finished load
/// sweep: one trajectory entry per step plus the cross-step outcome
/// aggregate. The caller supplies `config` (free-form: policy knobs,
/// request mix) and may attach an `slo` section afterwards.
pub fn service_report(tool: &str, config: Json, run: &ServiceRun) -> Report {
    let steps = Json::Arr(run.steps.iter().map(step_json).collect());
    let mut aggregate = vec![
        ("steps", (run.steps.len() as i64).into()),
        ("requests", (run.total_requests() as i64).into()),
    ];
    aggregate.extend(status_counts(&SUPERVISED_ONLY, |s| run.outcome_count(s)));
    aggregate.extend([
        ("lost", (run.lost() as i64).into()),
        ("workers", (run.workers as i64).into()),
        ("seed", (run.seed as i64).into()),
    ]);
    Report::new(
        Kind::Service,
        tool,
        config,
        [("steps", steps), ("aggregate", Json::obj(aggregate))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Metrics {
        Metrics {
            instructions: 100,
            decoded: 10,
            l2_words: 20,
            short_words: 250,
            routine_words: 90,
            cycles: CycleBreakdown {
                fetch_l2: 40,
                fetch_dtb: 250,
                lookup: 100,
                decode: 80,
                generate: 30,
                store: 10,
                semantic: 90,
                ..CycleBreakdown::default()
            },
            dtb: Some(DtbStats {
                hits: 90,
                misses: 10,
                evictions: 2,
                cold_misses: 8,
                capacity_misses: 1,
                conflict_misses: 1,
                ..DtbStats::default()
            }),
            ..Metrics::default()
        }
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let m = sample_metrics();
        let config = Json::obj(vec![("mode", "dtb".into()), ("capacity", 64i64.into())]);
        let rendered = run_report("raul", config, &m).render();
        let back = Report::parse(&rendered, Kind::Run).unwrap();
        assert_eq!(back.tool, "raul");
        assert_eq!(back.config.get("capacity").unwrap().as_i64(), Some(64));
        let metrics = back.section("metrics").unwrap();
        assert_eq!(metrics.get("instructions").unwrap().as_i64(), Some(100));
        let dtb = metrics.get("dtb").unwrap();
        assert_eq!(dtb.get("hits").unwrap().as_i64(), Some(90));
        assert_eq!(dtb.get("cold_misses").unwrap().as_i64(), Some(8));
        let derived = back.section("derived").unwrap();
        let t = derived.get("time_per_instruction").unwrap().as_f64();
        assert_eq!(t, Some(6.0));
    }

    #[test]
    fn schema_version_is_stamped() {
        let m = Metrics::default();
        let json = run_report("t", Json::obj(vec![]), &m).to_json();
        assert_eq!(
            json.get("schema_version").and_then(Json::as_i64),
            Some(telemetry::SCHEMA_VERSION)
        );
    }

    #[test]
    fn cycle_partition_matches_breakdown_total() {
        let m = sample_metrics();
        let json = metrics_json(&m);
        let total = json
            .get("cycles")
            .and_then(|c| c.get("total"))
            .and_then(Json::as_i64)
            .unwrap();
        let parts = ["iu1_cycles", "iu2_cycles", "memory_cycles"]
            .iter()
            .map(|k| json.get(k).and_then(Json::as_i64).unwrap())
            .sum::<i64>();
        assert_eq!(parts, total);
    }

    #[test]
    fn fault_plane_counters_serialize_when_present() {
        let mut m = sample_metrics();
        m.recoveries = 4;
        m.degraded_instructions = 2;
        m.faults = Some(FaultStats {
            dtb_words_corrupted: 5,
            dtb_tags_poisoned: 1,
            ..FaultStats::default()
        });
        let json = metrics_json(&m);
        assert_eq!(json.get("recoveries").unwrap().as_i64(), Some(4));
        assert_eq!(json.get("degraded_instructions").unwrap().as_i64(), Some(2));
        let f = json.get("faults").unwrap();
        assert_eq!(f.get("dtb_words_corrupted").unwrap().as_i64(), Some(5));
        assert_eq!(f.get("total").unwrap().as_i64(), Some(6));
        // Absent fault plane: no "faults" object at all.
        assert!(metrics_json(&sample_metrics()).get("faults").is_none());
    }

    #[test]
    fn windows_serialize_with_total_cycles() {
        let w0 = window_json(&WindowSample {
            start: 0,
            instructions: 50,
            dtb_hits: 40,
            dtb_misses: 10,
            occupancy: 7,
            cycles: 200,
        });
        assert_eq!(w0.get("occupancy").unwrap().as_i64(), Some(7));
        assert_eq!(w0.get("hit_rate").unwrap().as_f64(), Some(0.8));
        assert_eq!(w0.get("cycles").unwrap().as_i64(), Some(200));
        assert_eq!(w0.get("time_per_instruction").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn service_report_round_trips_with_trajectory_and_aggregate() {
        use crate::machine::{Machine, Mode};
        use crate::service::{Service, ServiceConfig};
        use dir::encode::SchemeKind;
        use std::sync::Arc;

        let hir = hlr::compile("proc main() begin write 3; end").unwrap();
        let prog = dir::compiler::compile(&hir);
        let machine = Arc::new(Machine::new(&prog, SchemeKind::Packed));
        let mut service = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        for i in 0..4 {
            service.submit(
                format!("t{}", i % 2),
                format!("r{i}"),
                Arc::clone(&machine),
                Mode::Interpreter,
            );
        }
        let run = service.run_load(&[2, 50]);

        let config = Json::obj(vec![("workers", 2i64.into())]);
        let report = service_report("raul load", config, &run);
        let back = Report::parse(&report.render(), Kind::Service).unwrap();
        assert_eq!(back, report);

        let steps = back.section("steps").and_then(Json::as_arr).unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(
            steps[0].get("rate_per_mcycle").and_then(Json::as_i64),
            Some(2)
        );
        assert_eq!(steps[0].get("completed").and_then(Json::as_i64), Some(4));
        assert_eq!(steps[0].get("lost").and_then(Json::as_i64), Some(0));
        assert!(
            steps[1]
                .get("latency_cycles")
                .and_then(|l| l.get("p99"))
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        let agg = back.section("aggregate").unwrap();
        assert_eq!(agg.get("requests").and_then(Json::as_i64), Some(8));
        assert_eq!(agg.get("completed").and_then(Json::as_i64), Some(8));
        assert_eq!(agg.get("lost").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn pool_report_round_trips_with_tenant_and_aggregate_sections() {
        use crate::machine::{Machine, Mode};
        use crate::pool::MachinePool;
        use dir::encode::SchemeKind;
        use std::sync::Arc;

        let hir = hlr::compile("proc main() begin write 3; end").unwrap();
        let prog = dir::compiler::compile(&hir);
        let machine = Arc::new(Machine::new(&prog, SchemeKind::Packed));
        let mut pool = MachinePool::new(2);
        for i in 0..3 {
            pool.push(format!("t{i}"), Arc::clone(&machine), Mode::Interpreter);
        }
        let run = pool.run();

        let config = Json::obj(vec![("workers", 2i64.into())]);
        let report = pool_report("raul pool", config, &run);
        let back = Report::parse(&report.render(), Kind::Pool).unwrap();
        assert_eq!(back, report);

        let tenants = back.section("tenants").and_then(Json::as_arr).unwrap();
        assert_eq!(tenants.len(), 3);
        assert_eq!(
            tenants[0].get("status").and_then(Json::as_str),
            Some("completed")
        );
        assert_eq!(tenants[1].get("name").and_then(Json::as_str), Some("t1"));
        assert!(tenants[2].get("latency_ns").unwrap().as_i64().unwrap() > 0);
        let agg = back.section("aggregate").unwrap();
        assert_eq!(agg.get("completed").and_then(Json::as_i64), Some(3));
        assert_eq!(
            agg.get("instructions").and_then(Json::as_i64),
            Some(run.total_instructions() as i64)
        );
        let p50 = back.section("latency_ns").and_then(|l| l.get("p50"));
        assert!(p50.and_then(Json::as_f64).unwrap() > 0.0);
    }
}
