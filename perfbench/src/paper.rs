//! `paper10-batch` and `paper-sim`: the paper's ten-query benchmark on
//! the real-threads executor, and the Fig 3.1 / Fig 4.2 simulators.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use df_bench::{fig31_params, fig42_params, run_core, run_ring, BenchSetup};
use df_core::{Granularity, JoinAlgo};
use df_host::{run_host_queries, HostParams, HostRunOutput};
use df_query::{execute_readonly, ExecParams};
use df_workload::{benchmark_queries, generate_database};

use crate::report::Report;
use crate::script::{self, Sim, SWEEP};
use crate::stats::median;
use crate::trace::Spans;
use crate::{segments, sorted_images, spec, RunArgs, Setups};

/// `paper10-batch`: scale 0.5 (2.8 MB), one batch of the ten queries
/// per operation, 2 workers.
const BATCH_SCALE: f64 = 0.5;
const BATCH_WORKERS: usize = 2;
const BATCHES_PER_S: f64 = 5.0;
const WARM_BATCHES: usize = 1;
/// The percentile of `run.tail_ms`: at 50 batches (a 10 s run) the
/// highest with ten samples beyond it.
const BATCH_TAIL: f64 = 0.8;
/// The floor quantile. A batch spreads ten queries over about 150 ms,
/// and its fastest one or two do not repeat: over five runs of 50
/// batches the fastest spread 0.10, the 10th percentile 0.01.
const BATCH_FLOOR: f64 = 0.1;

/// `paper-sim`: scale 0.05, cycles over the five-simulation sweep. At
/// scale 0.2 a simulation's working set outgrows the 2 MB L2 and its
/// time follows the neighbours' use of the shared cache: its 10 s
/// medians spread twice as far as at 0.05 over the same seconds.
const SIM_SCALE: f64 = 0.05;
const SIM_CYCLES_PER_S: f64 = 48.0;
const WARM_CYCLES: usize = 4;
/// The percentile of `run.tail_ms`.
const SIM_TAIL: f64 = 0.9;
/// The floor quantile: the 2nd percentile of each configuration's runs
/// (720 in a 15 s run).
const SIM_FLOOR: f64 = 0.02;

fn bench_setup(scale: f64, page_size: Option<usize>, seed: u64) -> (BenchSetup, f64) {
    let spec = spec(scale, page_size, seed);
    let t0 = Instant::now();
    let db = generate_database(&spec.database);
    let dbgen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let queries = benchmark_queries(&db, &spec).expect("benchmark queries build");
    let setup = BenchSetup {
        db,
        queries,
        spec,
        join: JoinAlgo::default(),
    };
    (setup, dbgen_ms)
}

/// Check every query of one batch against its oracle result.
fn check_batch(
    out: &df_host::HostResult<HostRunOutput>,
    want: &[Vec<Vec<u8>>],
    report: &mut Report,
) {
    match out {
        Ok(out) => {
            for (got, want) in out.results.iter().zip(want) {
                report.check(got.as_ref().is_ok_and(|r| &sorted_images(r) == want));
            }
        }
        Err(_) => {
            for _ in want {
                report.check(false);
            }
        }
    }
}

pub fn paper10_batch(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let batches = (args.seconds * BATCHES_PER_S).round().max(1.0) as usize;
    let params = HostParams::with_workers(BATCH_WORKERS);

    // The oracle reference: the benchmark's own work, not set-up.
    let mut spans = Spans::new(Instant::now());
    let (reference, _) = bench_setup(BATCH_SCALE, None, args.seed);
    let exec = ExecParams {
        page_size: params.page_size,
        ..ExecParams::default()
    };
    let want: Vec<Vec<Vec<u8>>> = reference
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let rel = spans.time("query.oracle", None, i as u64, || {
                execute_readonly(&reference.db, q, &exec)
            });
            sorted_images(&rel.expect("oracle runs the benchmark"))
        })
        .collect();
    drop(reference);

    let build = |report: &mut Report| {
        let (s, dbgen) = bench_setup(BATCH_SCALE, None, args.seed);
        for _ in 0..WARM_BATCHES {
            let out = run_host_queries(&s.db, &s.queries, &params);
            check_batch(&out, &want, report);
        }
        (s, dbgen)
    };
    let mut setups = Setups::default();
    let rig = setups.time(|| build(&mut report));

    // One pass over the script; the untraced pass interleaves the
    // remaining set-ups, the traced pass records spans.
    let pass = |report: &mut Report,
                mut setups: Option<&mut Setups>,
                mut spans: Option<&mut Spans>| {
        let mut lat_ms = Vec::with_capacity(batches);
        let mut outs = Vec::new();
        let mut paused = Duration::ZERO;
        let start = Instant::now();
        for (i, seg) in segments(batches).enumerate() {
            if let (true, Some(setups)) = (i > 0, setups.as_deref_mut()) {
                let p0 = Instant::now();
                drop(setups.time(|| build(report)));
                paused += p0.elapsed();
            }
            for i in seg {
                let t0 = Instant::now();
                let out = run_host_queries(&rig.db, &rig.queries, &params);
                let t1 = Instant::now();
                if let Some(s) = spans.as_deref_mut() {
                    s.record("host.batch", None, i as u64, t0, t1);
                }
                let p0 = Instant::now();
                lat_ms.push((t1 - t0).as_secs_f64() * 1e3);
                check_batch(&out, &want, report);
                if let Ok(out) = out {
                    outs.push(out.metrics);
                }
                paused += p0.elapsed();
            }
        }
        let qps = (batches * rig.queries.len()) as f64 / (start.elapsed() - paused).as_secs_f64();
        (qps, lat_ms, outs)
    };

    let (qps, lat_ms, _) = pass(&mut report, Some(&mut setups), None);
    if !args.trace {
        let ops: Vec<((), f64)> = lat_ms.iter().map(|&ms| ((), ms)).collect();
        report.end_to_end(setups.setup_s(), &ops, &[], BATCH_FLOOR);
        return report;
    }
    report.run_figures(qps, &lat_ms, BATCH_TAIL);

    let (t_qps, t_lat, metrics) = pass(&mut report, None, Some(&mut spans));
    let per_query = rig.queries.len() as f64;
    let wall_us: Vec<f64> = metrics
        .iter()
        .map(|m| m.elapsed.as_secs_f64() * 1e6 / per_query)
        .collect();
    let busy = |m: &df_host::HostMetrics| m.per_worker.iter().map(|w| w.busy).sum::<Duration>();
    let busy_us: Vec<f64> = metrics
        .iter()
        .map(|m| busy(m).as_secs_f64() * 1e6 / per_query)
        .collect();
    // Queries overlap on the workers, so the overhead a batch adds is
    // worker time not spent in kernels: wall × workers − summed busy.
    let workers = BATCH_WORKERS as f64;
    let overhead: Vec<f64> = wall_us
        .iter()
        .zip(&busy_us)
        .map(|(w, b)| w * workers - b)
        .collect();
    let send_wait: Vec<f64> = metrics
        .iter()
        .map(|m| {
            m.per_worker
                .iter()
                .map(|w| w.send_wait)
                .sum::<Duration>()
                .as_secs_f64()
                * 1e6
                / per_query
        })
        .collect();
    let n = metrics.len().max(1) as f64;
    let units: f64 = metrics.iter().map(|m| m.total_units() as f64).sum::<f64>() / n / per_query;
    let pages: f64 = metrics
        .iter()
        .map(|m| m.per_query.iter().map(|q| q.pages_moved).sum::<usize>() as f64)
        .sum::<f64>()
        / n
        / per_query;
    let bytes: f64 = metrics.iter().map(|m| m.total_bytes() as f64).sum();
    let busy_s: f64 = metrics.iter().map(|m| busy(m).as_secs_f64()).sum();
    report.layer("workload.dbgen_ms", setups.dbgen_ms());
    report.layer("query.oracle_us", median(&spans.us("query.oracle")));
    report.layer("host.query_us", median(&wall_us));
    report.layer("host.kernel_busy_us", median(&busy_us));
    report.layer("host.overhead_us", median(&overhead));
    report.layer("host.send_wait_us", median(&send_wait));
    report.layer("host.units_per_query", units);
    report.layer("host.pages_moved_per_query", pages);
    report.layer(
        "host.worker_util",
        metrics.iter().map(|m| m.worker_utilization()).sum::<f64>() / n,
    );
    report.layer("relalg.kernel_mib_s", bytes / busy_s / (1024.0 * 1024.0));
    trace_overhead(&mut report, &spans, (qps, &lat_ms), (t_qps, &t_lat), args);
    report
}

/// Record the tracing overhead (traced minus untraced) and write spans.
pub fn trace_overhead(
    report: &mut Report,
    spans: &Spans,
    (qps, lat_ms): (f64, &[f64]),
    (traced_qps, traced_lat_ms): (f64, &[f64]),
    args: &RunArgs,
) {
    let (op_ms, traced_op_ms) = (median(lat_ms), median(traced_lat_ms));
    report.layer("trace.overhead_op_ms", traced_op_ms - op_ms);
    report.layer("trace.overhead_qps_frac", 1.0 - traced_qps / qps);
    if let Some(path) = &args.spans {
        if let Err(e) = spans.write(path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
}

/// The deterministic counts of one simulation: (units or instruction
/// packets, simulated makespan in seconds, network bytes).
type SimCounts = (u64, f64, u64);

struct SimRig {
    page: BenchSetup,
    ring: BenchSetup,
    /// Each simulation's counts in the warm-up prefix: every later run
    /// of it must repeat them.
    reference: HashMap<Sim, SimCounts>,
}

impl SimRig {
    fn run(&self, sim: Sim) -> SimCounts {
        match sim {
            Sim::Core { page, procs } => {
                let g = if page {
                    Granularity::Page
                } else {
                    Granularity::Relation
                };
                let m = run_core(&self.page, &fig31_params(&self.page, procs), g);
                (
                    m.units_dispatched,
                    m.elapsed.as_secs_f64(),
                    m.arbitration.bytes,
                )
            }
            Sim::Ring { ips } => {
                let m = run_ring(&self.ring, &fig42_params(&self.ring, ips));
                (
                    m.instruction_packets,
                    m.elapsed.as_secs_f64(),
                    m.outer_ring.bytes,
                )
            }
        }
    }
}

pub fn paper_sim(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let cycles = (args.seconds * SIM_CYCLES_PER_S).round().max(1.0) as usize;
    let script = script::paper_sim(args.seed, WARM_CYCLES + cycles);
    let warm = WARM_CYCLES * SWEEP.len();

    // Set-up: both databases, then the warm-up prefix, whose counts are
    // the reference.
    let build = |report: &mut Report| {
        let (page, g1) = bench_setup(SIM_SCALE, None, args.seed);
        let (ring, g2) = bench_setup(SIM_SCALE, Some(16 * 1024), args.seed);
        let mut rig = SimRig {
            page,
            ring,
            reference: HashMap::new(),
        };
        for &sim in &script[..warm] {
            let counts = rig.run(sim);
            let first = *rig.reference.entry(sim).or_insert(counts);
            report.check(first == counts);
        }
        (rig, g1 + g2)
    };
    let mut setups = Setups::default();
    let rig = setups.time(|| build(&mut report));

    let timed = &script[warm..];
    let pass =
        |report: &mut Report, mut setups: Option<&mut Setups>, mut spans: Option<&mut Spans>| {
            let mut lat_ms = Vec::new();
            let mut paused = Duration::ZERO;
            let start = Instant::now();
            for (i, seg) in segments(timed.len()).enumerate() {
                if let (true, Some(setups)) = (i > 0, setups.as_deref_mut()) {
                    let p0 = Instant::now();
                    let other = setups.time(|| build(report));
                    report.check(other.reference == rig.reference);
                    drop(other);
                    paused += p0.elapsed();
                }
                for i in seg {
                    let sim = timed[i];
                    let t0 = Instant::now();
                    let counts = rig.run(sim);
                    let t1 = Instant::now();
                    if let Some(s) = spans.as_deref_mut() {
                        let name = if matches!(sim, Sim::Ring { .. }) {
                            "ring.sim"
                        } else {
                            "core.sim"
                        };
                        s.record(name, None, i as u64, t0, t1);
                    }
                    let p0 = Instant::now();
                    lat_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    report.check(rig.reference.get(&sim) == Some(&counts));
                    paused += p0.elapsed();
                }
            }
            let qps = lat_ms.len() as f64 / (start.elapsed() - paused).as_secs_f64();
            (qps, lat_ms)
        };

    let (qps, lat_ms) = pass(&mut report, Some(&mut setups), None);
    if !args.trace {
        let ops: Vec<(Sim, f64)> = timed.iter().copied().zip(lat_ms).collect();
        report.end_to_end(setups.setup_s(), &ops, &[], SIM_FLOOR);
        return report;
    }
    report.run_figures(qps, &lat_ms, SIM_TAIL);

    let mut spans = Spans::new(Instant::now());
    let (t_qps, t_lat) = pass(&mut report, None, Some(&mut spans));
    // Summed in sweep order, so the float sums repeat bit for bit.
    let sum = |core: bool, f: fn(&SimCounts) -> f64| -> f64 {
        SWEEP
            .iter()
            .filter(|s| matches!(s, Sim::Core { .. }) == core)
            .map(|s| f(&rig.reference[s]))
            .sum()
    };
    report.layer("workload.dbgen_ms", setups.dbgen_ms());
    report.layer("core.sim_ms", median(&spans.us("core.sim")) / 1e3);
    report.layer("core.units", sum(true, |c| c.0 as f64));
    report.layer("core.makespan_s", sum(true, |c| c.1));
    report.layer("core.arbitration_bytes", sum(true, |c| c.2 as f64));
    report.layer("ring.sim_ms", median(&spans.us("ring.sim")) / 1e3);
    report.layer("ring.makespan_s", sum(false, |c| c.1));
    report.layer("ring.outer_bytes", sum(false, |c| c.2 as f64));
    trace_overhead(&mut report, &spans, (qps, &lat_ms), (t_qps, &t_lat), args);
    report
}
