//! The result cache is invisible in the answers: every backend behind a
//! 1 MiB cache answers the lattice's stream — each query in the five
//! spellings that share a cache key, params flipped to `top_k 1, λ 0`
//! (never sharing an entry with the unflipped ones), every step starved
//! then unlimited — exactly like the uncached solo `SeqEngine`, with
//! `hits + misses == lookups`, usage within capacity and at least two hits
//! per stream. These are the lattice's cache-on points with every other
//! axis off (`common::lattice`).

mod common;

use common::lattice::{check_case, Point, CACHE};
use common::{case_strategy, queries_strategy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn cached_engine_is_observably_identical_to_uncached(
        case in case_strategy(20, 40),
        extra in queries_strategy(2..4, 2..4),
    ) {
        check_case(&case, &extra, &Point::each_backend("cache", CACHE))?;
    }
}
