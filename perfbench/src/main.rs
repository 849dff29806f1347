//! perfbench: the repository's end-to-end benchmark.
//!
//! ```sh
//! perfbench --workload serve-read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload runs a fixed script generated from `--seed` (see
//! [`script`]); `--seconds` sets the script's length, not a deadline.
//! With `--trace 0` the last line of standard output is the end-to-end
//! result; with `--trace 1` the run replays the script layer by layer
//! and prints the per-layer metrics instead (see `perfbench/README.md`).

mod paper;
mod report;
mod script;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use df_relalg::{Catalog, Relation};
use df_workload::{generate_database, BenchmarkSpec};

use report::Report;

pub const WORKLOADS: [&str; 4] = [
    "serve-read",
    "serve-write-view",
    "paper10-batch",
    "paper-sim",
];

/// How often set-up is repeated in one run; `setup_s` is the median.
pub const SETUPS: usize = 7;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans: Option<PathBuf>,
}

/// The benchmark specification at `scale` for `seed`: the seed is the
/// database generator's seed; `page_size` overrides the stored page size.
pub fn spec(scale: f64, page_size: Option<usize>, seed: u64) -> BenchmarkSpec {
    let mut spec = BenchmarkSpec::scaled(scale);
    spec.database.seed = seed;
    if let Some(p) = page_size {
        spec.database.page_size = p;
    }
    spec
}

/// Generate the database; returns it with the generation time in ms.
pub fn database(scale: f64, page_size: Option<usize>, seed: u64) -> (Catalog, f64) {
    let spec = spec(scale, page_size, seed);
    let t0 = Instant::now();
    let db = generate_database(&spec.database);
    (db, t0.elapsed().as_secs_f64() * 1e3)
}

/// A result's raw tuple images in sorted order: the form every check
/// compares, since only the multiset of a result is specified.
pub fn sorted_images(rel: &Relation) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = rel.tuple_refs().map(|t| t.raw().to_vec()).collect();
    v.sort();
    v
}

/// The set-up times of one run. The first set-up builds the rig the
/// run measures; the others build a rig and tear it down at once,
/// between [`segments`] of the timed pass, so that `setup_s` samples
/// the machine across the whole run rather than at its start.
#[derive(Default)]
pub struct Setups {
    setup_s: Vec<f64>,
    dbgen_ms: Vec<f64>,
}

impl Setups {
    /// Time one set-up; `build` returns its rig and its database
    /// generation time (ms).
    pub fn time<R>(&mut self, build: impl FnOnce() -> (R, f64)) -> R {
        let t0 = Instant::now();
        let (rig, dbgen) = build();
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.dbgen_ms.push(dbgen);
        rig
    }

    /// Median set-up time (s).
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setup_s)
    }

    /// Median database generation time (ms).
    pub fn dbgen_ms(&self) -> f64 {
        stats::median(&self.dbgen_ms)
    }
}

/// `n` timed operations split into [`SETUPS`] consecutive segments; a
/// timed pass runs one more set-up before each segment but the first.
pub fn segments(n: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..SETUPS).map(move |i| i * n / SETUPS..(i + 1) * n / SETUPS)
}

fn parse_args() -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report: Report = match args.workload.as_str() {
        "serve-read" => serve::serve_read(&args),
        "serve-write-view" => serve::serve_write_view(&args),
        "paper10-batch" => paper::paper10_batch(&args),
        _ => paper::paper_sim(&args),
    };
    if args.trace {
        report.fill_layers();
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
