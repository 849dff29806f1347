//! Seeded operation scripts.
//!
//! Every workload runs a fixed list of operations generated here from
//! the `--seed` argument before anything is timed; the system under test
//! only ever sees the generated requests. The length of a script is a
//! function of the workload and `--seconds` alone, never of how fast the
//! program runs, so two runs with the same arguments do the same work.
//!
//! The seed changes which concrete requests are sent (and, through
//! [`DatabaseSpec::seed`](df_workload::DatabaseSpec), the data), but not
//! the shape of a script: pool sizes, selectivity bands, operation
//! shares and write pairing are fixed, so per-operation cost does not
//! depend on which seed a run is given.

/// The splitmix64 output function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A splitmix64 stream. `(seed, stream)` pairs give independent streams,
/// one per connection and one per pool.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(stream.wrapping_add(0x5eed))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The standing views `serve-write-view` installs: one join-bearing, one
/// set-op, both over the write target `r01`.
pub const VIEWS: [(&str, &str); 2] = [
    ("bench_join", "(join (scan r00) (scan r01) (= key key))"),
    ("bench_set", "(union (scan r02) (scan r01))"),
];

/// The plan-cache capacity of the default serve configuration; the
/// `serve-read` pool is four times this.
pub const PLAN_CACHE: usize = 128;

/// Distinct restrict plans in the `serve-read` pool.
pub const READ_POOL: usize = 4 * PLAN_CACHE;

/// Distinct plain-read plans in the `serve-write-view` pool (fits the
/// plan cache).
pub const MIXED_POOL: usize = 32;

/// One scripted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A read query (sent with the optimize flag set).
    Read(String),
    /// A read of the maintained view `VIEWS[i]`.
    ViewRead(usize),
    /// Append r00's tuple with this key into r01.
    Append(i64),
    /// Delete the tuple an earlier `Append` of this key put into r01.
    Delete(i64),
}

impl Op {
    /// The query text for reads and writes (`None` for view reads).
    pub fn text(&self) -> Option<String> {
        match self {
            Op::Read(text) => Some(text.clone()),
            Op::ViewRead(_) => None,
            Op::Append(key) => Some(format!("(append (restrict (scan r00) (= key {key})) r01)")),
            // The appended tuple carries r00's padding string, which no
            // tuple native to r01 has: the delete removes exactly it.
            Op::Delete(key) => Some(format!("(delete r01 (= pad \"pad-r00-{key}\"))")),
        }
    }

    pub fn is_write(&self) -> bool {
        matches!(self, Op::Append(_) | Op::Delete(_))
    }
}

/// A pool of `n` distinct restrict plans over r02..r09. Plan `k` reads
/// relation `r(2 + k % 8)` with `val < t`, where `t` lies in a
/// selectivity band fixed by `k` (bands are spread over the whole value
/// domain independently of rank) and the seed only jitters `t` inside
/// its band. Bands never overlap, so the texts are distinct.
pub fn restrict_pool(seed: u64, stream: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, stream);
    let per_rel = n.div_ceil(8);
    let width = (990 / per_rel).max(1) as u64;
    (0..n)
        .map(|k| {
            let rel = 2 + k % 8;
            // 37 is coprime to any power of two, so this scatters ranks
            // over the bands instead of giving hot ranks low selectivity.
            let band = (k / 8 * 37) % per_rel;
            let t = 1 + band as u64 * width + rng.below(width);
            format!("(restrict (scan r{rel:02}) (< val {t}))")
        })
        .collect()
}

/// Cumulative harmonic (zipf, s = 1) weights over `n` ranks, normalized.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut acc = 0.0;
    (1..=n)
        .map(|k| {
            acc += 1.0 / k as f64 / total;
            acc
        })
        .collect()
}

/// The `serve-read` script: one connection's zipf draws over the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadScript {
    pub pool: Vec<String>,
    /// Pool index of each operation, in send order.
    pub ops: Vec<usize>,
}

pub fn serve_read(seed: u64, len: usize) -> ReadScript {
    let pool = restrict_pool(seed, 1, READ_POOL);
    let cdf = zipf_cdf(READ_POOL);
    let mut rng = Rng::new(seed, 100);
    let ops = (0..len)
        .map(|_| {
            let u = rng.unit();
            cdf.partition_point(|&c| c < u).min(READ_POOL - 1)
        })
        .collect();
    ReadScript { pool, ops }
}

/// Operations per `serve-write-view` block: two writes (an append and
/// the delete that undoes it), four view reads, two plain reads.
pub const BLOCK: usize = 8;

/// One connection's `serve-write-view` script of `blocks` blocks. Each
/// block is a seeded order of its eight operations with the append
/// before its delete, so r01 and both views return to their starting
/// contents at the end of every block. Connection `conn` of two only
/// appends keys of its own parity, so concurrent blocks never touch
/// each other's tuples.
pub fn serve_write_view(seed: u64, conn: usize, blocks: usize, r00_keys: i64) -> Vec<Op> {
    let pool = restrict_pool(seed, 2, MIXED_POOL);
    let mut rng = Rng::new(seed, 200 + conn as u64);
    let mut ops = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        let key = 2 * rng.below((r00_keys / 2) as u64) as i64 + conn as i64;
        let mut block = vec![
            Op::Append(key),
            Op::Delete(key),
            Op::ViewRead(0),
            Op::ViewRead(0),
            Op::ViewRead(1),
            Op::ViewRead(1),
            Op::Read(pool[rng.below(MIXED_POOL as u64) as usize].clone()),
            Op::Read(pool[rng.below(MIXED_POOL as u64) as usize].clone()),
        ];
        rng.shuffle(&mut block);
        let a = block.iter().position(|op| matches!(op, Op::Append(_)));
        let d = block.iter().position(|op| matches!(op, Op::Delete(_)));
        if let (Some(a), Some(d)) = (a, d) {
            if d < a {
                block.swap(a, d);
            }
        }
        ops.extend(block);
    }
    ops
}

/// One simulator configuration of the `paper-sim` sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sim {
    /// df-core (Fig 3.1) at page (`true`) or relation granularity with
    /// this many processors.
    Core { page: bool, procs: usize },
    /// The ring machine (Fig 4.2) with 16 KB pages and this many IPs.
    Ring { ips: usize },
}

/// The fixed sweep every `paper-sim` cycle runs once.
pub const SWEEP: [Sim; 5] = [
    Sim::Core {
        page: true,
        procs: 4,
    },
    Sim::Core {
        page: false,
        procs: 4,
    },
    Sim::Core {
        page: true,
        procs: 16,
    },
    Sim::Core {
        page: false,
        procs: 16,
    },
    Sim::Ring { ips: 30 },
];

/// `cycles` passes over [`SWEEP`], each in a seeded order.
pub fn paper_sim(seed: u64, cycles: usize) -> Vec<Sim> {
    let mut rng = Rng::new(seed, 300);
    let mut ops = Vec::with_capacity(cycles * SWEEP.len());
    for _ in 0..cycles {
        let mut cycle = SWEEP;
        rng.shuffle(&mut cycle);
        ops.extend(cycle);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_scripts() {
        assert_eq!(serve_read(7, 500), serve_read(7, 500));
        for conn in 0..2 {
            assert_eq!(
                serve_write_view(7, conn, 40, 500),
                serve_write_view(7, conn, 40, 500)
            );
        }
        assert_eq!(paper_sim(7, 10), paper_sim(7, 10));
    }

    #[test]
    fn different_seeds_different_scripts() {
        assert_ne!(serve_read(7, 500), serve_read(8, 500));
        assert_ne!(serve_read(7, 500).pool, serve_read(8, 500).pool);
        assert_ne!(
            serve_write_view(7, 0, 40, 500),
            serve_write_view(8, 0, 40, 500)
        );
        assert_ne!(paper_sim(7, 10), paper_sim(8, 10));
        // The two connections of one run draw independent streams.
        assert_ne!(
            serve_write_view(7, 0, 40, 500),
            serve_write_view(7, 1, 40, 500)
        );
    }

    #[test]
    fn read_pool_is_distinct_and_skewed() {
        let script = serve_read(11, 20_000);
        let distinct: std::collections::HashSet<_> = script.pool.iter().collect();
        assert_eq!(distinct.len(), READ_POOL);
        for q in &script.pool {
            assert!(!q.contains("r00") && !q.contains("r01"), "{q}");
        }
        let hot = script.ops.iter().filter(|&&i| i < PLAN_CACHE).count();
        let share = hot as f64 / script.ops.len() as f64;
        assert!((0.75..0.85).contains(&share), "top-128 share {share}");
    }

    #[test]
    fn write_blocks_pair_appends_with_deletes() {
        for conn in 0..2 {
            let ops = serve_write_view(3, conn, 50, 500);
            assert_eq!(ops.len(), 50 * BLOCK);
            for block in ops.chunks(BLOCK) {
                let a = block.iter().position(|op| matches!(op, Op::Append(_)));
                let d = block.iter().position(|op| matches!(op, Op::Delete(_)));
                let (a, d) = (a.unwrap(), d.unwrap());
                assert!(a < d);
                let (Op::Append(ka), Op::Delete(kd)) = (&block[a], &block[d]) else {
                    unreachable!()
                };
                assert_eq!(ka, kd);
                assert_eq!(*ka as usize % 2, conn, "keys partitioned by connection");
                assert_eq!(
                    block
                        .iter()
                        .filter(|op| matches!(op, Op::ViewRead(_)))
                        .count(),
                    4
                );
                assert_eq!(
                    block.iter().filter(|op| matches!(op, Op::Read(_))).count(),
                    2
                );
            }
        }
    }

    #[test]
    fn sim_cycles_cover_the_sweep() {
        let ops = paper_sim(5, 3);
        for cycle in ops.chunks(SWEEP.len()) {
            for sim in SWEEP {
                assert_eq!(cycle.iter().filter(|&&s| s == sim).count(), 1);
            }
        }
    }
}
