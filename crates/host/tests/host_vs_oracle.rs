//! Differential tests: the real-threads executor must produce exactly the
//! oracle's tuple multiset for every worker count and allocation strategy —
//! parallelism may reorder pages, never change the answer.

use df_core::AllocationStrategy;
use df_host::{run_host_queries, run_host_query, HostParams};
use df_query::{execute_readonly, parse_query, ExecParams, QueryTree};
use df_relalg::Catalog;
use df_sim::rng::SimRng;
use df_workload::{benchmark_queries, generate_database, random_query, BenchmarkSpec};
use proptest::prelude::*;

fn setup(scale: f64) -> (Catalog, Vec<QueryTree>, i64) {
    let spec = BenchmarkSpec::scaled(scale);
    let db = generate_database(&spec.database);
    let queries = benchmark_queries(&db, &spec).expect("benchmark queries build");
    (db, queries, spec.cutoff())
}

fn worker_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut counts = vec![1, 2, cores];
    counts.dedup();
    counts
}

/// The tentpole acceptance check: all ten benchmark queries, at 1, 2 and
/// `available_parallelism` workers, under every allocation strategy,
/// tuple-set-identical to the sequential oracle.
#[test]
fn ten_queries_match_oracle_at_all_worker_counts_and_strategies() {
    let (db, queries, _) = setup(0.01);
    let oracle_params = ExecParams::default();
    let oracles: Vec<_> = queries
        .iter()
        .map(|q| execute_readonly(&db, q, &oracle_params).expect("oracle executes"))
        .collect();

    for workers in worker_counts() {
        for strategy in AllocationStrategy::ALL {
            let params = HostParams {
                strategy,
                ..HostParams::with_workers(workers)
            };
            let out = run_host_queries(&db, &queries, &params).expect("host executes");
            assert_eq!(out.results.len(), queries.len());
            for (i, (got, want)) in out.results.iter().zip(&oracles).enumerate() {
                let got = got.as_ref().expect("query succeeds");
                assert!(
                    got.same_contents(want),
                    "query {i} diverged from oracle at {workers} workers, {strategy}: \
                     {} tuples vs {}",
                    got.num_tuples(),
                    want.num_tuples(),
                );
            }
            assert_eq!(out.metrics.per_worker.len(), workers);
        }
    }
}

/// Concurrent admission of the whole batch (single `run_host_queries` call
/// admits all ten at once — the benchmark is read-only, so every query
/// holds shared locks concurrently) still matches per-query runs.
#[test]
fn batch_metrics_are_consistent() {
    let (db, mut queries, _) = setup(0.01);
    // A bare scan root fires no unit: the relation's pages are the result.
    queries.push(parse_query(&db, "(scan r03)").expect("parses"));
    let params = HostParams::with_workers(4);
    let out = run_host_queries(&db, &queries, &params).expect("host executes");

    assert_eq!(out.metrics.per_query.len(), queries.len());
    let fired: usize = out.metrics.per_query.iter().map(|q| q.units_fired).sum();
    assert_eq!(
        fired,
        out.metrics.total_units(),
        "scheduler and worker unit counts agree"
    );
    for (i, (q, rel)) in out.metrics.per_query.iter().zip(&out.results).enumerate() {
        let rel = rel.as_ref().expect("query succeeds");
        assert_eq!(
            q.result_tuples,
            rel.num_tuples(),
            "query {i} result accounting"
        );
        assert!(q.elapsed <= out.metrics.elapsed);
    }
    let bare = out.metrics.per_query.last().expect("bare scan ran");
    assert_eq!(bare.units_fired, 0, "a bare scan fires no unit");
    assert_eq!(bare.pages_moved, 0);
    assert_eq!(bare.result_tuples, db.get("r03").expect("r03").num_tuples());
    assert!(out.metrics.total_bytes() > 0);
}

/// Deterministic mode: repeated runs are byte-identical page-for-page, not
/// just multiset-equal, regardless of interleaving.
#[test]
fn deterministic_mode_repeated_runs_agree_exactly() {
    let (db, queries, _) = setup(0.01);
    let params = HostParams {
        deterministic: true,
        ..HostParams::with_workers(4)
    };
    let images = |queries: &[QueryTree]| -> Vec<Vec<Vec<u8>>> {
        run_host_queries(&db, queries, &params)
            .expect("host executes")
            .results
            .iter()
            .map(|r| {
                let r = r.as_ref().expect("query succeeds");
                r.pages().iter().map(|p| p.raw_data().to_vec()).collect()
            })
            .collect()
    };
    let first = images(&queries);
    for _ in 0..3 {
        assert_eq!(images(&queries), first, "deterministic runs diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random join-chain trees at random worker counts and strategies
    /// always match the oracle.
    #[test]
    fn random_chain_queries_match_oracle(seed in 0u64..1_000, workers in 1usize..5) {
        let (db, _, cutoff) = setup(0.01);
        let mut rng = SimRng::new(seed);
        let query = random_query(&db, 5, 3, cutoff, &mut rng).expect("query builds");
        let strategy = AllocationStrategy::ALL[(seed % 4) as usize];
        let params = HostParams { strategy, ..HostParams::with_workers(workers) };

        let want = execute_readonly(&db, &query, &ExecParams::default()).expect("oracle");
        let (got, metrics) = run_host_query(&db, &query, &params).expect("host");
        prop_assert!(
            got.same_contents(&want),
            "seed {} diverged: {} tuples vs {}", seed, got.num_tuples(), want.num_tuples()
        );
        prop_assert_eq!(metrics.per_worker.len(), workers);
    }
}

/// Hash-accelerated equi-joins: every benchmark query's result is
/// byte-identical (deterministic mode) to the nested-loops run, and the
/// equi-join queries actually take the probe path.
#[test]
fn hash_join_matches_nested_byte_for_byte_on_all_ten_queries() {
    use df_core::JoinAlgo;
    let (db, queries, _) = setup(0.01);
    let run = |join: JoinAlgo| {
        let params = HostParams {
            deterministic: true,
            join,
            ..HostParams::with_workers(4)
        };
        run_host_queries(&db, &queries, &params).expect("host executes")
    };
    let nested = run(JoinAlgo::Nested);
    let hashed = run(JoinAlgo::Hash);
    let images = |out: &df_host::HostRunOutput| -> Vec<Vec<Vec<u8>>> {
        out.results
            .iter()
            .map(|r| {
                let r = r.as_ref().expect("query succeeds");
                r.pages().iter().map(|p| p.raw_data().to_vec()).collect()
            })
            .collect()
    };
    assert_eq!(
        images(&nested),
        images(&hashed),
        "hash join changed some query's result bytes"
    );
    let probes: usize = hashed.metrics.per_query.iter().map(|q| q.probe_units).sum();
    let nested_probes: usize = nested.metrics.per_query.iter().map(|q| q.probe_units).sum();
    assert!(probes > 0, "no benchmark equi-join took the probe path");
    assert_eq!(nested_probes, 0, "nested algorithm must never probe");
    for q in &hashed.metrics.per_query {
        assert!(
            q.probe_units + q.sweep_units <= q.units_fired,
            "pair units exceed total units"
        );
    }
}

/// A non-equi θ-join under `JoinAlgo::Hash` silently degrades to the
/// nested-loops sweep — right answer, zero probe units.
#[test]
fn non_equi_theta_join_under_hash_falls_back_to_sweep() {
    use df_core::JoinAlgo;
    use df_query::TreeBuilder;
    use df_relalg::{CmpOp, DataType, Relation, Schema, Tuple, Value};

    let mut db = Catalog::new();
    let s = Schema::build()
        .attr("k", DataType::Int)
        .attr("v", DataType::Int)
        .finish()
        .unwrap();
    for (name, n) in [("a", 30i64), ("b", 20i64)] {
        db.insert(
            Relation::from_tuples(
                name,
                s.clone(),
                16 + 16 * 4,
                (0..n).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 5)])),
            )
            .unwrap(),
        )
        .unwrap();
    }
    let b = TreeBuilder::new(&db);
    for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Ne] {
        let q = b
            .scan("a")
            .unwrap()
            .restrict_where("k", CmpOp::Lt, Value::Int(8))
            .unwrap()
            .join_on(b.scan("b").unwrap(), "v", op, "k")
            .unwrap()
            .finish();
        let want = execute_readonly(&db, &q, &ExecParams::default()).expect("oracle");
        let params = HostParams {
            join: JoinAlgo::Hash,
            ..HostParams::with_workers(2)
        };
        let (got, metrics) = run_host_query(&db, &q, &params).expect("host");
        assert!(
            got.same_contents(&want),
            "θ-join {op:?} diverged under hash"
        );
        let stats = &metrics.per_query[0];
        assert_eq!(stats.probe_units, 0, "θ-join {op:?} must not probe");
        assert!(stats.sweep_units > 0, "θ-join {op:?} must sweep");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hash and nested runs of random join-chain trees are byte-identical
    /// in deterministic mode.
    #[test]
    fn random_chain_queries_hash_equals_nested(seed in 0u64..1_000, workers in 1usize..5) {
        use df_core::JoinAlgo;
        let (db, _, cutoff) = setup(0.01);
        let mut rng = SimRng::new(seed);
        let query = random_query(&db, 5, 3, cutoff, &mut rng).expect("query builds");
        let run = |join: JoinAlgo| -> Vec<Vec<u8>> {
            let params = HostParams {
                deterministic: true,
                join,
                ..HostParams::with_workers(workers)
            };
            let (rel, _) = run_host_query(&db, &query, &params).expect("host");
            rel.pages().iter().map(|p| p.raw_data().to_vec()).collect()
        };
        prop_assert_eq!(run(JoinAlgo::Nested), run(JoinAlgo::Hash), "seed {} diverged", seed);
    }
}
