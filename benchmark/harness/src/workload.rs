//! The four serving workloads.
//!
//! Each one fixes a server configuration, a dataset, a query population
//! and a load shape, chosen so that a different set of layers does the
//! work (see `benchmark/README.md` for the full rationale and for the
//! metrics each is expected to move). Everything that varies between
//! runs derives from `--seed`; everything here is constant.

use crate::gen::Pick;

/// How a server is warmed before the timed window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Warmup {
    /// Ask every distinct query once (fills the result cache).
    EachDistinct,
    /// Replay this many requests from the head of the list.
    ListPrefix(usize),
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// `wikisearch generate --dataset` preset.
    pub preset: &'static str,
    /// `--entities` override; `None` keeps the preset's size.
    pub entities: Option<usize>,
    /// Serve a compiled `.wsnap` with `--mmap` (else the `.bin` with
    /// `--graph`: heap load + index rebuild at start).
    pub mmap: bool,
    /// `--backend NAME --threads N`; `None` leaves `serve`'s default.
    pub backend: Option<(&'static str, usize)>,
    /// `--cache-capacity` in bytes (0 disables the result cache).
    pub cache_bytes: u64,
    /// `--shard-workers N`; 0 serves in-process.
    pub shard_workers: usize,
    /// Client connections (= load threads), at most the host's 2 cores.
    pub conns: usize,
    /// `Some(rate)`: open loop, Poisson arrivals at this many requests
    /// per second. `None`: closed loop.
    pub open_rate: Option<f64>,
    /// Distinct queries in the population.
    pub distinct: usize,
    /// Inclusive keyword-count range.
    pub knum: (usize, usize),
    /// How keywords are drawn.
    pub pick: Pick,
    /// Zipf exponent of query popularity; `None` asks each equally often.
    pub zipf_s: Option<f64>,
    /// Whether each occurrence is a random surface variant.
    pub variants: bool,
    /// Length of the generated request list (cycled if exhausted).
    pub list_len: usize,
    /// Distinct queries the oracle digests (`usize::MAX`: all).
    pub oracle_sample: usize,
    /// Warm-up before the timed window.
    pub warmup: Warmup,
}

/// The workloads, in `BENCHMARK.json` order.
pub const SPECS: &[Spec] = &[
    // ~100 % result-cache hits: the wire path, query normalisation and
    // the cache do all the work, the five search phases none.
    Spec {
        name: "hot_cache",
        preset: "wiki2017-sim",
        entities: None,
        mmap: true,
        backend: None,
        cache_bytes: 64 << 20,
        shard_workers: 0,
        conns: 2,
        open_rate: None,
        distinct: 64,
        knum: (2, 4),
        pick: Pick::Phrases,
        zipf_s: Some(1.1),
        variants: true,
        list_len: 160,
        oracle_sample: usize::MAX,
        warmup: Warmup::EachDistinct,
    },
    // The paper's regime: every query is a cache-less Knum = 8 search
    // over mid-frequency keywords that share no label, so answers sit four levels deep and top-down
    // processing is ~90 % of the engine's time.
    Spec {
        name: "deep_miss",
        preset: "wiki2017-sim",
        entities: Some(25_000),
        mmap: false,
        backend: Some(("cpu", 2)),
        cache_bytes: 0,
        shard_workers: 0,
        conns: 1,
        open_rate: None,
        distinct: 64,
        knum: (8, 8),
        pick: Pick::Band(0.5, 1.5),
        zipf_s: None,
        variants: false,
        list_len: 64,
        oracle_sample: 32,
        warmup: Warmup::ListPrefix(8),
    },
    // Independent users: Poisson arrivals over two connections against
    // an undersized cache and a flat popularity curve (hit ratio ~0.3),
    // so gets, inserts and evictions all happen. Two mid-frequency
    // keywords per query keep the misses cheap (~1 ms) and alike, which
    // keeps p50 inside the bulk of the misses on every seed.
    Spec {
        name: "zipf_mix",
        preset: "wiki2017-sim",
        entities: None,
        mmap: false,
        backend: Some(("seq", 1)),
        cache_bytes: 256 << 10,
        shard_workers: 0,
        conns: 2,
        open_rate: Some(18.0),
        distinct: 4000,
        knum: (2, 2),
        pick: Pick::Band(0.5, 1.5),
        zipf_s: Some(0.8),
        variants: true,
        list_len: 4096,
        oracle_sample: 32,
        warmup: Warmup::ListPrefix(32),
    },
    // Two shard-worker processes behind the remote coordinator: frames,
    // JSON payloads and four RPCs per shard per level are nearly all the
    // work; the graph is tiny so everything else is noise. The sequential
    // kernels keep it to three busy threads on two cores — the default
    // backend would add a 4-thread pool per worker and measure the
    // scheduler.
    Spec {
        name: "remote_shards",
        preset: "wiki2017-sim",
        entities: Some(1_000),
        mmap: true,
        backend: Some(("seq", 1)),
        cache_bytes: 0,
        shard_workers: 2,
        conns: 1,
        open_rate: None,
        distinct: 64,
        knum: (3, 3),
        pick: Pick::Band(0.5, 1.5),
        zipf_s: None,
        variants: false,
        list_len: 64,
        oracle_sample: 32,
        warmup: Warmup::ListPrefix(8),
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Requests per segment on the open loop (two seconds of arrivals).
const OPEN_SEGMENT: usize = 36;

/// What `serve` uses when no `--backend`/`--threads` is given; the
/// library probe has to be told, because it builds its own engine.
const SERVE_DEFAULT_BACKEND: (&str, usize) = ("cpu", 4);

impl Spec {
    /// The server's flags beyond `--port 0` and the dataset.
    pub fn server_flags(&self) -> Vec<String> {
        let mut flags = vec!["--workers".to_string(), "2".to_string()];
        if let Some((name, threads)) = self.backend {
            flags.extend([
                "--backend".into(),
                name.into(),
                "--threads".into(),
                threads.to_string(),
            ]);
        }
        flags.extend(["--cache-capacity".into(), self.cache_bytes.to_string()]);
        if self.shard_workers > 0 {
            flags.extend(["--shard-workers".into(), self.shard_workers.to_string()]);
        }
        flags
    }

    /// Requests per CPU-accounting segment of the timed window: a whole
    /// pass of the list on a closed loop, a fixed slice of the schedule
    /// on the open loop.
    pub fn segment(&self) -> usize {
        if self.open_rate.is_some() {
            OPEN_SEGMENT
        } else {
            self.list_len
        }
    }

    /// The backend as the probe's `NAME:THREADS` spec.
    pub fn backend_spec(&self) -> String {
        let (name, threads) = self.backend.unwrap_or(SERVE_DEFAULT_BACKEND);
        format!("{name}:{threads}")
    }

    /// The workload at smoke scale: the `tiny` preset and, on the closed
    /// loops, a list short enough that a one-second window is a few
    /// whole passes.
    pub fn smoke(&self) -> Spec {
        let closed = self.open_rate.is_none();
        Spec {
            preset: "tiny",
            entities: None,
            distinct: self.distinct.min(if closed { 16 } else { 48 }),
            list_len: self.list_len.min(if closed { 16 } else { 512 }),
            oracle_sample: self.oracle_sample.min(16),
            warmup: match self.warmup {
                Warmup::ListPrefix(n) => Warmup::ListPrefix(n.min(4)),
                w => w,
            },
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_fit_the_two_core_host() {
        for s in SPECS {
            assert!(s.conns >= 1 && s.conns <= 2, "{}", s.name);
            assert!(s.knum.0 >= 1 && s.knum.0 <= s.knum.1, "{}", s.name);
            assert!(s.list_len >= s.distinct.min(512), "{}", s.name);
            assert!(spec(s.name).is_some());
        }
        assert!(spec("nope").is_none());
    }

    #[test]
    fn cached_and_uncached_workloads_both_exist() {
        assert_eq!(SPECS.iter().filter(|s| s.cache_bytes == 0).count(), 2);
        assert!(SPECS.iter().any(|s| s.open_rate.is_some()));
        assert!(SPECS.iter().any(|s| s.shard_workers > 0));
    }

    #[test]
    fn fields_become_server_flags() {
        let flags = spec("remote_shards").unwrap().server_flags().join(" ");
        assert_eq!(
            flags,
            "--workers 2 --backend seq --threads 1 --cache-capacity 0 --shard-workers 2"
        );
        let hot = spec("hot_cache").unwrap();
        assert_eq!(hot.server_flags().join(" "), "--workers 2 --cache-capacity 67108864");
        assert_eq!(hot.backend_spec(), "cpu:4");
        assert_eq!(spec("deep_miss").unwrap().backend_spec(), "cpu:2");
    }
}
