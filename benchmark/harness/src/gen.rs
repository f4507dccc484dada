//! Seeded input generators: vocabulary, queries, surface variants, Zipf
//! request lists and Poisson schedules.
//!
//! The harness knows nothing about how the program generates its
//! datasets. It learns a dataset's vocabulary the way a user would —
//! from the TSV export of the graph (`wikisearch convert`) — and builds
//! queries from the words it finds there, so a change to the dataset
//! generator changes the queries with it and no word list is shared
//! with the program.
//!
//! Every generator takes an explicit RNG; the same seed yields a
//! byte-identical request list and schedule (unit-tested below).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Words the server's analyzer drops. Used two ways: never counted as a
/// keyword when a query is assembled, and injected by the "stopword"
/// surface variant. A word the server drops but this list misses only
/// makes one query a keyword short.
const STOPWORDS: &[&str] = &["the", "of", "and", "to", "a", "in", "for", "on", "with", "by"];

fn is_stopword(word: &str) -> bool {
    STOPWORDS.contains(&word)
}

/// What the harness knows about a dataset's text: the distinct label
/// phrases and each word's document frequency.
#[derive(Debug, Default)]
pub struct Vocab {
    /// Distinct alphabetic label phrases (stopwords kept in place),
    /// sorted so sampling is independent of node order.
    pub phrases: Vec<Vec<String>>,
    /// Word → number of node labels containing it (stopwords excluded),
    /// sorted by word.
    pub df: BTreeMap<String, u32>,
}

impl Vocab {
    /// Parse node lines (`N<TAB>key<TAB>text`) of a TSV graph export.
    /// Tokens that are not purely ASCII-alphabetic (entity numbers,
    /// punctuation) are ignored; words are lower-cased.
    pub fn from_tsv(text: &str) -> Vocab {
        let mut phrases = BTreeSet::new();
        let mut df: BTreeMap<String, u32> = BTreeMap::new();
        for line in text.lines() {
            let mut cols = line.split('\t');
            if cols.next() != Some("N") {
                continue;
            }
            let Some(label) = cols.nth(1) else { continue };
            let words: Vec<String> = label
                .split_whitespace()
                .filter(|w| !w.is_empty() && w.bytes().all(|b| b.is_ascii_alphabetic()))
                .map(str::to_ascii_lowercase)
                .collect();
            if words.is_empty() {
                continue;
            }
            let distinct: BTreeSet<&String> = words.iter().filter(|w| !is_stopword(w)).collect();
            for w in distinct {
                *df.entry(w.clone()).or_insert(0) += 1;
            }
            phrases.insert(words);
        }
        Vocab { phrases: phrases.into_iter().collect(), df }
    }

    /// The words whose document frequency lies within `lo..=hi` times
    /// the median frequency. A band around the median keeps the pool
    /// homogeneous: it leaves out the few very frequent words (which
    /// make a query shallow and cheap) and the few very rare ones (two
    /// of which in one query push its answers two levels deeper and its
    /// cost up tenfold), so queries drawn from it cost alike.
    pub fn band_words(&self, lo: f64, hi: f64) -> Vec<&str> {
        let mut freqs: Vec<u32> = self.df.values().copied().collect();
        freqs.sort_unstable();
        let Some(&median) = freqs.get(freqs.len() / 2) else {
            return Vec::new();
        };
        let (lo, hi) = (median as f64 * lo, median as f64 * hi);
        self.df
            .iter()
            .filter(|(_, &f)| f as f64 >= lo && f as f64 <= hi)
            .map(|(w, _)| w.as_str())
            .collect()
    }
}

/// How a query's keywords are chosen from the vocabulary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pick {
    /// Whole label phrases, appended until the keyword count is reached
    /// — words of one phrase co-occur in nodes, so answers are shallow
    /// and cheap (the paper's AAAI-keyword style).
    Phrases,
    /// Independent words from the mid-frequency band
    /// ([`Vocab::band_words`] with these factors). No two of them share
    /// a label, so every keyword's search must travel before they meet:
    /// answers are deep and top-down processing dominates.
    Band(f64, f64),
}

/// What a [`Pick`] draws from once it has looked at a vocabulary.
enum Pool<'a> {
    Phrases(&'a [Vec<String>]),
    Words(Vec<&'a str>),
}

impl Pick {
    fn pool<'a>(&self, vocab: &'a Vocab) -> Pool<'a> {
        match *self {
            Pick::Phrases => Pool::Phrases(&vocab.phrases),
            Pick::Band(lo, hi) => Pool::Words(vocab.band_words(lo, hi)),
        }
    }
}

/// One query with `knum` distinct non-stopword keywords (fewer only if
/// the pool is smaller than that).
fn make_query(pool: &Pool<'_>, knum: usize, rng: &mut StdRng) -> Vec<String> {
    let mut words: Vec<String> = Vec::with_capacity(knum);
    match pool {
        Pool::Phrases(phrases) => {
            let mut guard = 0;
            while words.len() < knum && guard < 1000 && !phrases.is_empty() {
                guard += 1;
                for w in &phrases[rng.random_range(0..phrases.len())] {
                    if words.len() < knum && !is_stopword(w) && !words.contains(w) {
                        words.push(w.clone());
                    }
                }
            }
        }
        Pool::Words(pool) => {
            let mut guard = 0;
            while words.len() < knum.min(pool.len()) && guard < 10_000 {
                guard += 1;
                let w = pool[rng.random_range(0..pool.len())];
                if !words.iter().any(|x| x == w) {
                    words.push(w.to_string());
                }
            }
        }
    }
    words
}

/// `count` queries whose keyword *sets* are pairwise distinct, with
/// keyword counts uniform in `knum_lo..=knum_hi`.
pub fn distinct_queries(
    vocab: &Vocab,
    pick: Pick,
    knum_lo: usize,
    knum_hi: usize,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Vec<String>> {
    let pool = pick.pool(vocab);
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    let mut guard = 0;
    while out.len() < count && guard < count * 200 + 1000 {
        guard += 1;
        let knum = rng.random_range(knum_lo..=knum_hi);
        let q = make_query(&pool, knum, rng);
        if q.is_empty() {
            continue;
        }
        let mut key = q.clone();
        key.sort();
        if seen.insert(key) {
            out.push(q);
        }
    }
    out
}

/// A surface form of `words` that the server must treat as the same
/// query: shuffled word order, one of three casings, and (one time in
/// three) a stopword injected at a random position.
pub fn surface_variant(words: &[String], rng: &mut StdRng) -> String {
    let mut ws: Vec<String> = words.to_vec();
    for i in (1..ws.len()).rev() {
        let j = rng.random_range(0..=i);
        ws.swap(i, j);
    }
    match rng.random_range(0..3u32) {
        0 => {}
        1 => ws.iter_mut().for_each(|w| *w = w.to_ascii_uppercase()),
        _ => ws.iter_mut().for_each(|w| {
            if let Some(first) = w.get_mut(0..1) {
                first.make_ascii_uppercase();
            }
        }),
    }
    if rng.random_range(0..3u32) == 0 {
        let stop = STOPWORDS[rng.random_range(0..STOPWORDS.len())];
        let at = rng.random_range(0..=ws.len());
        ws.insert(at, stop.to_string());
    }
    ws.join(" ")
}

/// Zipf sampler over ranks `0..n` (rank 0 most popular) via a
/// precomputed CDF and binary search.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Table for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One request of a workload's list: which distinct query it is (the
/// oracle and the repeat-agreement check key on this) and the exact
/// line text sent after the `QUERY ` verb.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Index into the workload's distinct-query table.
    pub query_id: usize,
    /// The surface text.
    pub text: String,
}

/// A request list of `len` occurrences over `distinct`.
///
/// With `zipf_s` the occurrences follow Zipf(s) popularity over the
/// distinct queries (in table order); without it the list is the
/// distinct queries in a seeded shuffle, cycled, so each is asked
/// equally often. With `variants` every occurrence is a fresh
/// [`surface_variant`]; otherwise the words joined by spaces.
pub fn request_list(
    distinct: &[Vec<String>],
    zipf_s: Option<f64>,
    variants: bool,
    len: usize,
    rng: &mut StdRng,
) -> Vec<Request> {
    if distinct.is_empty() {
        return Vec::new();
    }
    let zipf = zipf_s.map(|s| Zipf::new(distinct.len(), s));
    let mut order: Vec<usize> = (0..distinct.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    (0..len)
        .map(|i| {
            let query_id = match &zipf {
                Some(z) => z.sample(rng),
                None => order[i % order.len()],
            };
            let words = &distinct[query_id];
            let text = if variants {
                surface_variant(words, rng)
            } else {
                words.join(" ")
            };
            Request { query_id, text }
        })
        .collect()
}

/// Due times (ns from the start of the window, ascending) of a Poisson
/// arrival process at `rate_per_s` over `seconds`, conditioned on its
/// count: exactly `round(rate * seconds)` arrivals, placed as sorted
/// uniform draws — which is how a Poisson process is distributed once
/// its count is known. Gaps are still exponential-like and bursts still
/// happen, but every run offers exactly the same number of requests, so
/// the offered rate (and with it `qps`) does not wander by the +-1/sqrt(n)
/// of an unconditioned draw.
pub fn poisson_schedule(rate_per_s: f64, seconds: f64, rng: &mut StdRng) -> Vec<u64> {
    let n = (rate_per_s * seconds).round() as usize;
    let mut due: Vec<u64> = (0..n).map(|_| (rng.random::<f64>() * seconds * 1e9) as u64).collect();
    due.sort_unstable();
    due
}

/// The RNG stream for one purpose of one run. Distinct `stream` values
/// keep the dataset, the query table, the request list and the schedule
/// independent of one another, so changing a workload's list length
/// does not reshuffle its schedule.
pub fn rng_for(seed: u64, workload: &str, stream: &str) -> StdRng {
    let label: Vec<u8> = workload.bytes().chain([0u8]).chain(stream.bytes()).collect();
    let h = crate::digest::fnv1a(&label);
    StdRng::seed_from_u64(h ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn vocab() -> Vocab {
        let mut tsv = String::from("# kgraph tsv\n");
        let phrases = [
            "machine learning",
            "internet of things",
            "graph mining",
            "keyword search",
            "query optimization",
            "branch and bound",
            "deep learning",
            "data mining",
        ];
        for (i, p) in phrases.iter().cycle().take(64).enumerate() {
            tsv.push_str(&format!("N\tQ{i}\t{p} {i}\n"));
        }
        tsv.push_str("N\tC0\thuman\nE\tQ0\tinstance of\tC0\n");
        Vocab::from_tsv(&tsv)
    }

    #[test]
    fn vocabulary_comes_from_node_labels_only() {
        let v = vocab();
        assert_eq!(v.phrases.len(), 9, "eight phrases + the class label");
        assert_eq!(v.df["learning"], 16, "two phrases x eight nodes each");
        assert_eq!(v.df["human"], 1);
        assert!(!v.df.contains_key("of") && !v.df.contains_key("and"), "stopwords excluded");
        assert!(!v.df.keys().any(|w| w.bytes().any(|b| b.is_ascii_digit())));
        assert!(!v.df.contains_key("instance"), "edge labels are not vocabulary");
        assert_eq!(v.band_words(0.0, 0.5), vec!["human"], "only the singleton is that rare");
        assert!(!v.band_words(0.5, 1.5).contains(&"human"), "and the band leaves it out");
        assert!(!v.band_words(0.5, 1.5).contains(&"learning"), "as it does the frequent word");
        assert!(v.band_words(0.5, 1.5).contains(&"graph"));
    }

    #[test]
    fn queries_have_the_requested_distinct_keywords() {
        let v = vocab();
        let mut rng = StdRng::seed_from_u64(3);
        for pick in [Pick::Phrases, Pick::Band(0.0, 10.0)] {
            for knum in [2, 4, 6] {
                let q = make_query(&pick.pool(&v), knum, &mut rng);
                assert_eq!(q.len(), knum, "{pick:?} {q:?}");
                let set: BTreeSet<_> = q.iter().collect();
                assert_eq!(set.len(), knum, "distinct: {q:?}");
                assert!(q.iter().all(|w| !is_stopword(w)));
            }
        }
        let many = distinct_queries(&v, Pick::Phrases, 2, 3, 20, &mut rng);
        let sets: BTreeSet<Vec<String>> = many
            .iter()
            .map(|q| {
                let mut k = q.clone();
                k.sort();
                k
            })
            .collect();
        assert_eq!(sets.len(), many.len(), "keyword sets are pairwise distinct");
    }

    #[test]
    fn variants_keep_the_keyword_set() {
        let words: Vec<String> = ["graph", "mining", "search"].map(String::from).to_vec();
        let mut rng = StdRng::seed_from_u64(11);
        let mut shapes = BTreeSet::new();
        for _ in 0..200 {
            let text = surface_variant(&words, &mut rng);
            let mut back: Vec<String> = text
                .split_whitespace()
                .map(str::to_ascii_lowercase)
                .filter(|w| !is_stopword(w))
                .collect();
            back.sort();
            assert_eq!(back, ["graph", "mining", "search"], "{text:?}");
            shapes.insert(text);
        }
        assert!(shapes.len() > 20, "order, case and stopwords all vary");
    }

    #[test]
    fn same_seed_gives_byte_identical_lists_and_schedules() {
        let v = vocab();
        let build = |seed: u64| {
            let mut rng = rng_for(seed, "w", "queries");
            let distinct = distinct_queries(&v, Pick::Phrases, 2, 4, 12, &mut rng);
            let list =
                request_list(&distinct, Some(1.1), true, 300, &mut rng_for(seed, "w", "list"));
            let sched = poisson_schedule(20.0, 5.0, &mut rng_for(seed, "w", "schedule"));
            (distinct, list, sched)
        };
        assert_eq!(build(42), build(42));
        let (d1, l1, s1) = build(42);
        let (d2, l2, s2) = build(43);
        assert!(d1 != d2 && l1 != l2 && s1 != s2, "another seed, other inputs");
        assert_ne!(
            rng_for(1, "a", "x").next_u64(),
            rng_for(1, "a", "y").next_u64(),
            "streams are independent"
        );
    }

    #[test]
    fn zipf_is_skewed_and_uniform_lists_cycle_evenly() {
        let distinct: Vec<Vec<String>> = (0..10).map(|i| vec![format!("w{i}")]).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let zipf = request_list(&distinct, Some(1.1), false, 5000, &mut rng);
        let count = |list: &[Request], id| list.iter().filter(|r| r.query_id == id).count();
        assert!(count(&zipf, 0) > 2 * count(&zipf, 3) && count(&zipf, 3) > count(&zipf, 9));
        let even = request_list(&distinct, None, false, 50, &mut rng);
        for id in 0..10 {
            assert_eq!(count(&even, id), 5);
        }
        assert_ne!(even[0].query_id + 1, even[1].query_id, "shuffled, not table order");
    }

    #[test]
    fn poisson_schedule_offers_exactly_the_rate_with_bursty_gaps() {
        let mut rng = StdRng::seed_from_u64(9);
        let sched = poisson_schedule(50.0, 40.0, &mut rng);
        assert_eq!(sched.len(), 2000, "conditioned on its count");
        assert!(sched.windows(2).all(|w| w[0] <= w[1]));
        assert!(*sched.last().unwrap() < 40_000_000_000);
        // exponential gaps: about 1 - 1/e of them are shorter than the mean
        let mean_gap = 40e9 / 2000.0;
        let short = sched.windows(2).filter(|w| ((w[1] - w[0]) as f64) < mean_gap).count();
        let share = short as f64 / 1999.0;
        assert!((share - 0.632).abs() < 0.05, "share of short gaps {share}");
    }
}
