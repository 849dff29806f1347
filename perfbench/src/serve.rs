//! `serve-read` and `serve-write-view`: closed-loop clients against an
//! in-process df-serve server over loopback TCP.

use std::collections::HashMap;
use std::net::TcpListener;
use std::ops::Range;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use df_host::{run_host_query, HostParams, StandingView};
use df_opt::{optimize, CatalogStats};
use df_query::{apply_write, execute_readonly, parse_query, stage_write, ExecParams};
use df_relalg::Catalog;
use df_serve::engine::Reply;
use df_serve::{Engine, EngineHandle, Priority, Response, ServeClient, ServeConfig, Server};

use crate::paper::trace_overhead;
use crate::report::Report;
use crate::script::{self, Op, BLOCK, VIEWS};
use crate::stats::{mean, median};
use crate::trace::Spans;
use crate::{database, segments, sorted_images, RunArgs, Setups};

/// Database scale of both serve workloads (~275 KB, 2750 tuples).
const SCALE: f64 = 0.05;

/// Scripted operations per second of `--seconds`, per connection.
const READ_OPS_PER_S: f64 = 2800.0;
const WRITE_VIEW_BLOCKS_PER_S: f64 = 340.0;

/// Untimed warm-up prefix: 256 reads fill the plan cache; four blocks
/// per connection install every write and view path once.
const WARM_READS: usize = 256;
const WARM_BLOCKS: usize = 4;

/// Tail percentiles of `run.tail_ms`: the highest with at least ten
/// samples beyond it that repeated within 25% across runs. A p99 moved by
/// 2-4x whenever the machine stalled for a fraction of a second, and
/// with two connections queueing amplifies a slow spell into the p95.
const READ_TAIL: f64 = 0.95;
const WRITE_VIEW_TAIL: f64 = 0.9;

/// The floor quantile of both serve workloads.
const FLOOR: f64 = 0.02;

/// The ROADMAP ladder query and how often each rung repeats it.
const LADDER_QUERY: &str = "(restrict (scan r02) (> key 10))";
const LADDER_REPS: usize = 500;

/// One workload: every connection's full script (warm-up prefix first).
struct Plan {
    conns: Vec<Vec<(u64, Op)>>,
    warm: usize,
    views: bool,
    tail: f64,
}

impl Plan {
    /// The timed operations of every connection, interleaved round robin
    /// — the order the host-level replay uses.
    fn interleaved(&self) -> Vec<(u64, Op)> {
        let len = self.conns[0].len();
        (self.warm..len)
            .flat_map(|i| self.conns.iter().map(move |c| c[i].clone()))
            .collect()
    }

    fn timed_ops(&self) -> usize {
        self.conns.len() * self.timed_per_conn()
    }

    /// Timed operations per connection (every script has the same length).
    fn timed_per_conn(&self) -> usize {
        self.conns[0].len() - self.warm
    }
}

fn read_plan(args: &RunArgs) -> Plan {
    let len = (args.seconds * READ_OPS_PER_S).round() as usize;
    let s = script::serve_read(args.seed, WARM_READS + len);
    let ops = s
        .ops
        .iter()
        .enumerate()
        .map(|(i, &k)| (i as u64, Op::Read(s.pool[k].clone())))
        .collect();
    Plan {
        conns: vec![ops],
        warm: WARM_READS,
        views: false,
        tail: READ_TAIL,
    }
}

fn write_view_plan(args: &RunArgs, r00_keys: i64) -> Plan {
    let blocks = (args.seconds * WRITE_VIEW_BLOCKS_PER_S).round() as usize;
    let conns = (0..2)
        .map(|c| {
            script::serve_write_view(args.seed, c, WARM_BLOCKS + blocks, r00_keys)
                .into_iter()
                .enumerate()
                .map(|(i, op)| ((2 * i + c) as u64, op))
                .collect()
        })
        .collect();
    Plan {
        conns,
        warm: WARM_BLOCKS * BLOCK,
        views: true,
        tail: WRITE_VIEW_TAIL,
    }
}

/// Sorted oracle tuple images of a read query.
fn oracle(db: &Catalog, text: &str) -> Vec<Vec<u8>> {
    let tree = parse_query(db, text).expect("scripted query parses");
    let exec = ExecParams {
        page_size: serve_host().page_size,
        ..ExecParams::default()
    };
    sorted_images(&execute_readonly(db, &tree, &exec).expect("oracle runs"))
}

/// The executor parameters the engine runs reads with.
fn serve_host() -> HostParams {
    let mut host = ServeConfig::default().host;
    host.deterministic = true;
    host
}

/// Checks each reply against what the script's op must return.
struct Checker {
    /// Oracle result of every read text in the script.
    expected: HashMap<String, Vec<Vec<u8>>>,
    /// Starting size of each view. Each of the two connections has at
    /// most one appended tuple outstanding, so a view read returns
    /// between this and two more.
    view_base: [usize; 2],
}

impl Checker {
    fn new(db: &Catalog, plan: &Plan) -> Checker {
        let mut expected = HashMap::new();
        for (_, op) in plan.conns.iter().flatten() {
            if let Op::Read(text) = op {
                if !expected.contains_key(text) {
                    expected.insert(text.clone(), oracle(db, text));
                }
            }
        }
        let view_base = if plan.views {
            VIEWS.map(|(_, text)| oracle(db, text).len())
        } else {
            [0; 2]
        };
        Checker {
            expected,
            view_base,
        }
    }

    fn ok(&self, op: &Op, response: Response) -> bool {
        let Response::Result(mut result) = response else {
            return false;
        };
        match op {
            Op::Read(text) => {
                result.tuples.sort();
                self.expected.get(text) == Some(&result.tuples)
            }
            Op::ViewRead(v) => {
                (self.view_base[*v]..=self.view_base[*v] + 2).contains(&result.tuples.len())
            }
            Op::Append(_) | Op::Delete(_) => result.tuples.len() == 1,
        }
    }
}

fn send(client: &mut ServeClient, op: &Op) -> Option<Response> {
    let response = match op {
        Op::Read(text) => client.query(text, Priority::Normal, true),
        Op::ViewRead(v) => client.read_view(VIEWS[*v].0),
        write => client.query(
            &write.text().expect("writes have text"),
            Priority::Normal,
            false,
        ),
    };
    response.ok()
}

/// A running server with one connected client per script connection.
struct ServeRig {
    clients: Vec<ServeClient>,
    server: Option<Server>,
}

impl ServeRig {
    fn handle(&self) -> EngineHandle {
        self.server.as_ref().expect("running").handle()
    }
}

impl Drop for ServeRig {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

/// Set-up as a user pays it: generate the database, start the engine
/// and server, connect, install the views, run the warm-up prefix.
/// Returns the rig and the database generation time (ms).
fn build_rig(seed: u64, plan: &Plan, checker: &Checker, report: &mut Report) -> (ServeRig, f64) {
    let (db, dbgen_ms) = database(SCALE, None, seed);
    let engine = Engine::new(db, ServeConfig::default()).expect("default config is valid");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::start(listener, engine).expect("server starts");
    let addr = server.local_addr();
    let mut rig = ServeRig {
        clients: Vec::new(),
        server: Some(server),
    };
    for _ in &plan.conns {
        rig.clients
            .push(ServeClient::connect(addr).expect("connect to loopback server"));
    }
    if plan.views {
        for (name, text) in VIEWS {
            let installed = rig.clients[0].install_view(name, text);
            report.check(matches!(installed, Ok(Response::Result(_))));
        }
    }
    for (client, ops) in rig.clients.iter_mut().zip(&plan.conns) {
        for (_, op) in &ops[..plan.warm] {
            let ok = send(client, op).is_some_and(|r| checker.ok(op, r));
            report.check(ok);
        }
    }
    (rig, dbgen_ms)
}

/// What one connection's timed loop measured.
#[derive(Default)]
struct Conn {
    lat_ms: Vec<f64>,
    /// Loop time less the reply checks.
    timed: Duration,
    attempted: u64,
    failed: u64,
    spans: Option<Spans>,
}

impl Conn {
    /// Add the next segment of the same connection's untraced pass.
    fn append(&mut self, next: Conn) {
        self.lat_ms.extend(next.lat_ms);
        self.timed += next.timed;
        self.attempted += next.attempted;
        self.failed += next.failed;
    }
}

/// One connection's closed loop over its timed operations. Each reply is
/// checked after its latency is taken; the check is excluded from
/// `timed`.
fn drive(
    client: &mut ServeClient,
    ops: &[(u64, Op)],
    checker: &Checker,
    origin: Option<Instant>,
) -> Conn {
    let mut conn = Conn {
        spans: origin.map(Spans::new),
        ..Conn::default()
    };
    let mut paused = Duration::ZERO;
    let start = Instant::now();
    for (req, op) in ops {
        let t0 = Instant::now();
        let response = send(client, op);
        let t1 = Instant::now();
        if let Some(spans) = &mut conn.spans {
            spans.record("client", None, *req, t0, t1);
        }
        let p0 = Instant::now();
        conn.lat_ms.push((t1 - t0).as_secs_f64() * 1e3);
        conn.attempted += 1;
        if !response.is_some_and(|r| checker.ok(op, r)) {
            conn.failed += 1;
        }
        paused += p0.elapsed();
    }
    conn.timed = start.elapsed() - paused;
    conn
}

/// Run every connection's timed operations `range` concurrently.
fn drive_all(
    rig: &mut ServeRig,
    plan: &Plan,
    checker: &Checker,
    origin: Option<Instant>,
    range: Range<usize>,
) -> Vec<Conn> {
    let ops = plan.warm + range.start..plan.warm + range.end;
    std::thread::scope(|s| {
        let workers: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(&plan.conns)
            .map(|(client, script)| {
                let ops = &script[ops.clone()];
                s.spawn(move || drive(client, ops, checker, origin))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    })
}

/// One timed pass's (qps, every latency).
fn summarize(conns: &[Conn]) -> (f64, Vec<f64>) {
    let lat: Vec<f64> = conns
        .iter()
        .flat_map(|c| c.lat_ms.iter().copied())
        .collect();
    let timed = conns.iter().map(|c| c.timed).max().unwrap_or_default();
    (lat.len() as f64 / timed.as_secs_f64(), lat)
}

/// The kind an operation's latency is grouped under for the floor
/// metrics: a plain read's text, else the request type.
fn kind(op: &Op) -> &str {
    match op {
        Op::Read(text) => text,
        Op::ViewRead(v) => VIEWS[*v].0,
        Op::Append(_) => "append",
        Op::Delete(_) => "delete",
    }
}

/// Every timed operation's (kind, latency), and the writes' alone.
type Kinded<'a> = Vec<(&'a str, f64)>;

fn kinded<'a>(conns: &[Conn], plan: &'a Plan) -> (Kinded<'a>, Kinded<'a>) {
    let all: Vec<(&Op, f64)> = conns
        .iter()
        .zip(&plan.conns)
        .flat_map(|(c, ops)| {
            ops[plan.warm..]
                .iter()
                .map(|(_, op)| op)
                .zip(c.lat_ms.iter().copied())
        })
        .collect();
    let ops = all.iter().map(|&(op, ms)| (kind(op), ms)).collect();
    let writes = all
        .iter()
        .filter(|(op, _)| op.is_write())
        .map(|&(op, ms)| (kind(op), ms))
        .collect();
    (ops, writes)
}

fn counters(h: &EngineHandle) -> HashMap<String, u64> {
    h.stats().rows().into_iter().collect()
}

/// Final-state checks of `serve-write-view`: both maintained views equal
/// the oracle over the starting database, and r01 holds exactly its
/// starting tuples (every append was undone).
fn final_checks(client: &mut ServeClient, db: &Catalog, report: &mut Report) {
    let sorted = |r: Option<Response>| match r {
        Some(Response::Result(mut q)) => {
            q.tuples.sort();
            Some(q.tuples)
        }
        _ => None,
    };
    for (name, text) in VIEWS {
        let got = sorted(client.read_view(name).ok());
        report.check(got == Some(oracle(db, text)));
    }
    let scan = "(scan r01)";
    let got = sorted(client.query(scan, Priority::Normal, false).ok());
    report.check(got == Some(oracle(db, scan)));
}

pub fn serve_read(args: &RunArgs) -> Report {
    run(args, read_plan(args))
}

pub fn serve_write_view(args: &RunArgs) -> Report {
    let (db, _) = database(SCALE, None, args.seed);
    let r00_keys = db.get("r00").expect("r00 exists").num_tuples() as i64;
    run(args, write_view_plan(args, r00_keys))
}

fn run(args: &RunArgs, plan: Plan) -> Report {
    let mut report = Report::default();
    // The benchmark's own reference results: not part of set-up.
    let (oracle_db, _) = database(SCALE, None, args.seed);
    let checker = Checker::new(&oracle_db, &plan);

    let build = |report: &mut Report| build_rig(args.seed, &plan, &checker, report);
    let mut setups = Setups::default();
    let mut rig = setups.time(|| build(&mut report));
    let before = counters(&rig.handle());
    let mut conns: Vec<Conn> = Vec::new();
    for (i, seg) in segments(plan.timed_per_conn()).enumerate() {
        if i > 0 {
            drop(setups.time(|| build(&mut report)));
        }
        let part = drive_all(&mut rig, &plan, &checker, None, seg);
        if conns.is_empty() {
            conns = part;
        } else {
            for (c, next) in conns.iter_mut().zip(part) {
                c.append(next);
            }
        }
    }
    let after = counters(&rig.handle());
    for c in &conns {
        report.attempted += c.attempted;
        report.failed += c.failed;
    }
    let delta = |k: &str| (after[k] - before[k]) as f64;
    if plan.views {
        final_checks(&mut rig.clients[0], &oracle_db, &mut report);
    } else {
        // One connection and no writes: every read is exactly one plan
        // lookup, so hits + misses account for every timed operation.
        report.check(
            delta("plan_cache_hits") + delta("plan_cache_misses") == plan.timed_ops() as f64,
        );
    }
    drop(rig);

    let (qps, lat) = summarize(&conns);
    if !args.trace {
        let (ops, writes) = kinded(&conns, &plan);
        report.end_to_end(setups.setup_s(), &ops, &writes, FLOOR);
        return report;
    }
    report.run_figures(qps, &lat, plan.tail);

    // Traced run: the per-layer ladder replaces the end-to-end figures.
    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    report.layer("workload.dbgen_ms", setups.dbgen_ms());

    // Rung 1: the client round trip, on a fresh server.
    let (mut rig, _) = build_rig(args.seed, &plan, &checker, &mut report);
    let before = counters(&rig.handle());
    let conns = drive_all(
        &mut rig,
        &plan,
        &checker,
        Some(origin),
        0..plan.timed_per_conn(),
    );
    let after = counters(&rig.handle());
    let delta = |k: &str| (after[k] - before[k]) as f64;
    let ops = plan.timed_ops() as f64;
    let writes = delta("writes_applied");
    let reads = delta("reads");
    let lookups = delta("plan_cache_hits") + delta("plan_cache_misses");
    report.layer("serve.plan_hits", delta("plan_cache_hits"));
    report.layer("serve.plan_misses", delta("plan_cache_misses"));
    report.layer(
        "serve.plan_hit_ratio",
        delta("plan_cache_hits") / lookups.max(1.0),
    );
    report.layer("serve.parses_per_op", delta("parses") / ops);
    report.layer("serve.bytes_out_per_op", delta("bytes_out") / ops);
    report.layer(
        "serve.evictions_per_write",
        if writes > 0.0 {
            delta("cache_evictions_partial") / writes
        } else {
            0.0
        },
    );
    report.layer(
        "serve.fused_per_read",
        (delta("fused") + delta("inflight_joins")) / reads.max(1.0),
    );
    report.layer("serve.overlapped_writes", delta("concurrent_write_batches"));
    report.layer("serve.busy_rejected", delta("busy_rejected"));
    for c in &conns {
        report.attempted += c.attempted;
        report.failed += c.failed;
    }
    let (t_qps, t_lat) = summarize(&conns);
    for c in conns {
        spans.extend(c.spans.expect("traced pass records spans"));
    }

    // Rung 2: the engine, in process, on a fresh engine.
    let engine = build_engine(args.seed, &plan, &checker, &mut report);
    engine_pass(&engine, &plan, &checker, &mut spans, &mut report);

    // Rungs 3-5: host executor, oracle, kernels; views and write staging.
    let host = host_pass(args.seed, &plan, &mut spans, &mut report);

    report.layer("serve.rtt_us", median(&spans.us("client")));
    report.layer("serve.engine_us", median(&spans.us("engine")));
    report.layer(
        "serve.transport_us",
        median(&spans.gap_us("client", "engine")),
    );
    report.layer("query.parse_us", median(&spans.us("query.parse")));
    report.layer("query.oracle_us", median(&spans.us("query.oracle")));
    report.layer(
        "query.stage_write_us",
        median(&spans.us("query.stage_write")),
    );
    report.layer("opt.optimize_us", median(&spans.us("opt.optimize")));
    report.layer("host.query_us", median(&spans.us("host.query")));
    report.layer("host.kernel_busy_us", median(&spans.us("host.kernel")));
    report.layer(
        "host.overhead_us",
        median(&spans.gap_us("host.query", "host.kernel")),
    );
    host.report(&mut report);
    report.layer("view.apply_write_us", median(&spans.us("view.apply_write")));
    report.layer("view.read_us", median(&spans.us("view.read")));

    if !plan.views {
        ladder(&mut rig.clients[0], &engine, args.seed, &mut report);
    }
    drop(rig);
    drop(engine);

    trace_overhead(&mut report, &spans, (qps, &lat), (t_qps, &t_lat), args);
    report
}

/// An engine without the socket front end, its dispatcher on a thread.
struct EngineRig {
    handle: EngineHandle,
    dispatcher: Option<JoinHandle<()>>,
    clients: Vec<usize>,
}

impl Drop for EngineRig {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
    }
}

/// An engine reply callback and the receiver its response arrives on.
fn reply_channel() -> (Reply, mpsc::Receiver<Response>) {
    let (tx, rx) = mpsc::channel();
    let reply: Reply = Box::new(move |r| {
        let _ = tx.send(r);
    });
    (reply, rx)
}

/// Submit one op through `EngineHandle` and wait for its reply.
fn submit(h: &EngineHandle, client: usize, req: u64, op: &Op) -> Option<Response> {
    let (reply, rx) = reply_channel();
    match op {
        Op::Read(text) => h.submit(client, req, Priority::Normal, true, text.clone(), reply),
        Op::ViewRead(v) => h.read_view(client, req, VIEWS[*v].0.to_string(), reply),
        write => h.submit(
            client,
            req,
            Priority::Normal,
            false,
            write.text().expect("writes have text"),
            reply,
        ),
    }
    rx.recv().ok()
}

fn build_engine(seed: u64, plan: &Plan, checker: &Checker, report: &mut Report) -> EngineRig {
    let (db, _) = database(SCALE, None, seed);
    let engine = Engine::new(db, ServeConfig::default()).expect("default config is valid");
    let handle = engine.handle();
    let dispatcher = std::thread::Builder::new()
        .name("perfbench-dispatch".into())
        .spawn(move || engine.run())
        .expect("spawn dispatcher");
    let clients: Vec<usize> = plan
        .conns
        .iter()
        .map(|_| handle.register_client())
        .collect();
    let rig = EngineRig {
        handle,
        dispatcher: Some(dispatcher),
        clients,
    };
    if plan.views {
        for (name, text) in VIEWS {
            let (reply, rx) = reply_channel();
            rig.handle
                .install_view(rig.clients[0], u64::MAX, name.into(), text.into(), reply);
            report.check(matches!(rx.recv(), Ok(Response::Result(_))));
        }
    }
    for (&client, ops) in rig.clients.iter().zip(&plan.conns) {
        for (req, op) in &ops[..plan.warm] {
            let ok = submit(&rig.handle, client, *req, op).is_some_and(|r| checker.ok(op, r));
            report.check(ok);
        }
    }
    rig
}

/// Every connection's timed operations through `EngineHandle::submit`,
/// concurrently, one span per request.
fn engine_pass(
    rig: &EngineRig,
    plan: &Plan,
    checker: &Checker,
    spans: &mut Spans,
    report: &mut Report,
) {
    let origin = spans.origin();
    let results: Vec<(Spans, u64, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = rig
            .clients
            .iter()
            .zip(&plan.conns)
            .map(|(&client, ops)| {
                let handle = &rig.handle;
                s.spawn(move || {
                    let mut own = Spans::new(origin);
                    let (mut attempted, mut failed) = (0, 0);
                    for (req, op) in &ops[plan.warm..] {
                        let r = own.time("engine", Some("client"), *req, || {
                            submit(handle, client, *req, op)
                        });
                        attempted += 1;
                        if !r.is_some_and(|r| checker.ok(op, r)) {
                            failed += 1;
                        }
                    }
                    (own, attempted, failed)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("engine client thread"))
            .collect()
    });
    for (own, attempted, failed) in results {
        spans.extend(own);
        report.attempted += attempted;
        report.failed += failed;
    }
}

/// Host-executor tallies of the host-level replay.
#[derive(Default)]
struct HostTally {
    queries: f64,
    units: f64,
    pages: f64,
    send_wait_us: Vec<f64>,
    util: Vec<f64>,
    bytes: f64,
    busy_s: f64,
    writes: f64,
    delta_pages: f64,
}

impl HostTally {
    fn report(&self, report: &mut Report) {
        let q = self.queries.max(1.0);
        report.layer("host.send_wait_us", median(&self.send_wait_us));
        report.layer("host.units_per_query", self.units / q);
        report.layer("host.pages_moved_per_query", self.pages / q);
        report.layer("host.worker_util", mean(&self.util));
        if self.busy_s > 0.0 {
            report.layer(
                "relalg.kernel_mib_s",
                self.bytes / self.busy_s / (1024.0 * 1024.0),
            );
        }
        if self.writes > 0.0 {
            report.layer("view.delta_pages_per_write", self.delta_pages / self.writes);
        }
    }
}

/// Replay the timed script one layer down, sequentially: each read is
/// parsed, optimized, run on the host executor with the engine's
/// parameters, and run on the oracle; each write is staged and applied
/// and replayed through locally maintained standing views; each view
/// read reads those views.
fn host_pass(seed: u64, plan: &Plan, spans: &mut Spans, report: &mut Report) -> HostTally {
    let (mut db, _) = database(SCALE, None, seed);
    let stats = CatalogStats::gather(&db);
    let params = serve_host();
    let exec = ExecParams {
        page_size: params.page_size,
        ..ExecParams::default()
    };
    let mut views: Vec<StandingView> = if plan.views {
        VIEWS
            .iter()
            .map(|(name, text)| {
                let tree = parse_query(&db, text).expect("view parses");
                StandingView::install(name, text, &db, &tree, params.page_size)
                    .expect("view installs")
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut tally = HostTally::default();
    for (req, op) in plan.interleaved() {
        match &op {
            Op::Read(text) => {
                let tree = spans.time("query.parse", Some("engine"), req, || {
                    parse_query(&db, text)
                });
                let Ok(tree) = tree else {
                    report.check(false);
                    continue;
                };
                let tree = spans
                    .time("opt.optimize", Some("engine"), req, || {
                        optimize(&db, &tree, &stats)
                    })
                    .map_or(tree, |o| o.tree);
                let t0 = Instant::now();
                let out = run_host_query(&db, &tree, &params);
                let t1 = Instant::now();
                spans.record("host.query", Some("engine"), req, t0, t1);
                let Ok((rel, m)) = out else {
                    report.check(false);
                    continue;
                };
                let busy: Duration = m.per_worker.iter().map(|w| w.busy).sum();
                spans.record("host.kernel", Some("host.query"), req, t0, t0 + busy);
                let send_wait: Duration = m.per_worker.iter().map(|w| w.send_wait).sum();
                tally.queries += 1.0;
                tally.units += m.total_units() as f64;
                tally.pages += m.per_query.iter().map(|q| q.pages_moved).sum::<usize>() as f64;
                tally.send_wait_us.push(send_wait.as_secs_f64() * 1e6);
                tally.util.push(m.worker_utilization());
                tally.bytes += m.total_bytes() as f64;
                tally.busy_s += busy.as_secs_f64();
                let want = spans.time("query.oracle", Some("host.query"), req, || {
                    execute_readonly(&db, &tree, &exec)
                });
                report.check(want.is_ok_and(|w| sorted_images(&w) == sorted_images(&rel)));
            }
            Op::ViewRead(v) => {
                let n = spans
                    .time("view.read", Some("engine"), req, || {
                        views[*v].tuple_images()
                    })
                    .len();
                report.check(n >= 1);
            }
            write => {
                let text = write.text().expect("writes have text");
                let staged = spans
                    .time("query.parse", Some("engine"), req, || {
                        parse_query(&db, &text)
                    })
                    .and_then(|tree| {
                        spans.time("query.stage_write", Some("engine"), req, || {
                            stage_write(&db, &tree, &exec)
                        })
                    });
                let Ok(delta) = staged else {
                    report.check(false);
                    continue;
                };
                let (inserts, deletes) = delta.base_change();
                let applied = spans.time("query.apply_write", Some("engine"), req, || {
                    apply_write(&mut db, delta)
                });
                let mut ok = applied.is_ok_and(|r| r.num_tuples() == 1);
                let pages = spans.time("view.apply_write", Some("engine"), req, || {
                    let mut pages = 0;
                    for view in &mut views {
                        match view.apply_write("r01", &inserts, &deletes) {
                            Ok(u) => pages += u.delta_pages,
                            Err(_) => ok = false,
                        }
                    }
                    pages
                });
                tally.writes += 1.0;
                tally.delta_pages += pages as f64;
                report.check(ok);
            }
        }
    }
    tally
}

/// The ROADMAP ladder: one small restrict through every rung, repeated.
fn ladder(client: &mut ServeClient, engine: &EngineRig, seed: u64, report: &mut Report) {
    let (db, _) = database(SCALE, None, seed);
    let params = serve_host();
    let exec = ExecParams {
        page_size: params.page_size,
        ..ExecParams::default()
    };
    let tree = parse_query(&db, LADDER_QUERY).expect("ladder query parses");
    let op = Op::Read(LADDER_QUERY.to_string());
    let expected = oracle(&db, LADDER_QUERY);
    let sorted_ok = |r: Option<Response>| match r {
        Some(Response::Result(mut q)) => {
            q.tuples.sort();
            q.tuples == expected
        }
        _ => false,
    };
    // The rungs take turns within each repetition, so a change in the
    // machine's speed during the measurement reaches every rung alike.
    let mut us = [(); 4].map(|_| Vec::with_capacity(LADDER_REPS));
    let mut busy_us = Vec::with_capacity(LADDER_REPS);
    let mut units = 0;
    let mut timed = |rung: usize, ok: &mut dyn FnMut() -> bool, report: &mut Report| {
        let t0 = Instant::now();
        let ok = ok();
        us[rung].push(t0.elapsed().as_secs_f64() * 1e6);
        report.check(ok);
    };
    for _ in 0..LADDER_REPS {
        timed(0, &mut || sorted_ok(send(client, &op)), report);
        timed(
            1,
            &mut || sorted_ok(submit(&engine.handle, engine.clients[0], 0, &op)),
            report,
        );
        timed(
            2,
            &mut || match run_host_query(&db, &tree, &params) {
                Ok((rel, m)) => {
                    let busy: Duration = m.per_worker.iter().map(|w| w.busy).sum();
                    busy_us.push(busy.as_secs_f64() * 1e6);
                    units = m.total_units();
                    rel.num_tuples() == expected.len()
                }
                Err(_) => false,
            },
            report,
        );
        timed(
            3,
            &mut || {
                execute_readonly(&db, &tree, &exec).is_ok_and(|r| r.num_tuples() == expected.len())
            },
            report,
        );
    }
    let [rtt, eng, host, orc] = us.map(|v| median(&v));
    let kernel = median(&busy_us);
    report.layer("ladder.kernel_us", kernel);
    report.layer("ladder.oracle_us", orc);
    report.layer("ladder.host_us", host);
    report.layer("ladder.engine_us", eng);
    report.layer("ladder.rtt_us", rtt);
    report.layer("ladder.units", units as f64);
    eprintln!("ladder: {LADDER_QUERY} at scale {SCALE}, {units} units, median of {LADDER_REPS}");
    eprintln!("| layer | µs per query | adds over the rung below |");
    eprintln!("|---|---|---|");
    eprintln!("| summed kernel busy | {kernel:.1} | |");
    eprintln!("| sequential oracle | {orc:.1} | |");
    eprintln!(
        "| run_host_query, workers={} | {host:.1} | {:.1} (over kernel) |",
        params.workers,
        host - kernel
    );
    eprintln!("| engine submit→reply | {eng:.1} | {:.1} |", eng - host);
    eprintln!("| client round trip | {rtt:.1} | {:.1} |", rtt - eng);
}
