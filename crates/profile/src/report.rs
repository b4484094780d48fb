//! Builders for the [`Kind::Profile`] report: single-run attribution and
//! pool-wide aggregation.
//!
//! The single-run builder pairs a [`CounterPlane`] with the run's
//! [`Metrics`]; the pool builder folds a [`PoolRun`] into mergeable
//! per-worker latency histograms ([`telemetry::LogHistogram`] shards,
//! merged bucket-exactly), worker utilization and the queue-depth
//! timeline.

use telemetry::{Json, Kind, LogHistogram, Report};
use uhm::pool::PoolRun;
use uhm::Metrics;

use crate::counters::CounterPlane;

/// Assembles a profile report from one run's counter plane and metrics.
/// `config` is the free-form run configuration (workload, mode, scheme,
/// knobs) the caller already knows.
pub fn profile_report(tool: &str, config: Json, plane: &CounterPlane, metrics: &Metrics) -> Report {
    let aggregate = Json::obj([
        ("instructions", Json::from(metrics.instructions)),
        ("cycles", Json::from(metrics.cycles.total())),
        (
            "time_per_instruction",
            Json::from(metrics.time_per_instruction()),
        ),
        ("retires_observed", Json::from(plane.retired())),
        ("cycles_observed", Json::from(plane.cycles())),
        ("dtb_evictions", Json::from(plane.evictions())),
    ]);
    Report::new(
        Kind::Profile,
        tool,
        config,
        [("profile", plane.to_json()), ("aggregate", aggregate)],
    )
}

/// Folds a pool run into the report's optional `pool` section:
/// per-worker latency histogram shards of the served tenants
/// ([`uhm::RequestOutcome::served`]), their exact bucket-wise merge,
/// merged percentile estimates and per-worker utilization. The shards
/// are kept in the payload precisely because the merge is exact — a
/// consumer can re-aggregate any worker subset and get the same numbers
/// this builder would.
pub fn pool_profile_json(run: &PoolRun) -> Json {
    let mut shards: Vec<LogHistogram> = (0..run.workers).map(|_| LogHistogram::new()).collect();
    for r in run.results.iter().filter(|r| r.outcome.served()) {
        if let Some(shard) = shards.get_mut(r.worker) {
            shard.record(r.latency_ns);
        }
    }
    let mut merged = LogHistogram::new();
    for shard in &shards {
        merged.merge(shard);
    }
    let utilization = run.worker_utilization();
    let workers: Vec<Json> = shards
        .iter()
        .zip(utilization.iter())
        .enumerate()
        .map(|(w, (shard, &util))| {
            Json::obj([
                ("worker", Json::from(w)),
                ("utilization", Json::from(util)),
                ("latency_ns", shard.to_json()),
            ])
        })
        .collect();
    Json::obj([
        ("tenants", Json::from(run.results.len())),
        ("completed", Json::from(run.completed())),
        ("workers", Json::Arr(workers)),
        ("latency_ns", merged.to_json()),
        (
            "latency_percentiles_ns",
            Json::obj([
                ("p50", Json::from(merged.percentile(50.0))),
                ("p95", Json::from(merged.percentile(95.0))),
                ("p99", Json::from(merged.percentile(99.0))),
                ("p999", Json::from(merged.percentile(99.9))),
            ]),
        ),
        ("wall_ns", Json::from(run.wall_ns)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dir::encode::SchemeKind;
    use std::sync::Arc;
    use uhm::pool::MachinePool;
    use uhm::{DtbConfig, Machine, Mode, RunOptions};

    const LOOP: &str = "proc main() begin
        int i; int s := 0;
        for i := 0 to 199 do s := s + i;
        write s;
    end";

    #[test]
    fn single_run_report_round_trips_as_a_profile_report() {
        let program = dir::compiler::compile(&hlr::compile(LOOP).unwrap());
        let machine = Machine::new(&program, SchemeKind::Packed);
        let mut plane = CounterPlane::new(&program);
        let report = machine
            .run_with(
                &Mode::Dtb(DtbConfig::with_capacity(16)),
                &mut plane,
                RunOptions::default(),
            )
            .unwrap();
        let pr = profile_report(
            "raul profile",
            Json::obj([("workload", Json::from("loop"))]),
            &plane,
            &report.metrics,
        );
        let text = pr.render();
        let back = Report::parse(&text, Kind::Profile).unwrap();
        assert_eq!(back, pr);
        let aggregate = back.section("aggregate").unwrap();
        assert_eq!(
            aggregate.get("instructions").and_then(Json::as_i64),
            aggregate.get("retires_observed").and_then(Json::as_i64),
            "counter plane must have observed every retire"
        );
    }

    #[test]
    fn pool_section_histograms_merge_exactly() {
        let program = dir::compiler::compile(&hlr::compile(LOOP).unwrap());
        let m = Arc::new(Machine::new(&program, SchemeKind::Packed));
        let mut pool = MachinePool::new(3);
        for t in 0..9 {
            pool.push(format!("t{t}"), Arc::clone(&m), Mode::Interpreter);
        }
        let run = pool.run();
        let j = pool_profile_json(&run);

        assert_eq!(j.get("tenants").and_then(Json::as_i64), Some(9));
        assert_eq!(j.get("completed").and_then(Json::as_i64), Some(9));

        // The merged histogram's total equals the tenant count, and the
        // per-worker shard totals sum to it (the exact-merge property).
        let merged_total = j
            .get("latency_ns")
            .and_then(|h| h.get("total"))
            .and_then(Json::as_i64)
            .unwrap();
        assert_eq!(merged_total, 9);
        let shard_sum: i64 = j
            .get("workers")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("latency_ns")
                    .and_then(|h| h.get("total"))
                    .and_then(Json::as_i64)
                    .unwrap()
            })
            .sum();
        assert_eq!(shard_sum, merged_total);

        // Percentile estimates are ordered.
        let p = j.get("latency_percentiles_ns").unwrap();
        let get = |k: &str| p.get(k).and_then(Json::as_f64).unwrap();
        assert!(get("p50") <= get("p95"));
        assert!(get("p95") <= get("p99"));
        assert!(get("p99") <= get("p999"));

        // Utilization is sane.
        for w in j.get("workers").and_then(Json::as_arr).unwrap() {
            let u = w.get("utilization").and_then(Json::as_f64).unwrap();
            assert!((0.0..=1.0).contains(&u));
        }
    }

    #[test]
    fn empty_pool_folds_to_zeros() {
        let run = MachinePool::new(2).run();
        let j = pool_profile_json(&run);
        assert_eq!(j.get("tenants").and_then(Json::as_i64), Some(0));
        let p = j.get("latency_percentiles_ns").unwrap();
        assert_eq!(p.get("p999").and_then(Json::as_f64), Some(0.0));
    }
}
