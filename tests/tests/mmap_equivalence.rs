//! A memory-mapped snapshot answers like the heap build: every backend
//! opened from a compiled snapshot, behind a 1 MiB cache, answers the
//! lattice's stream — answers, cache hits and starved-budget errors —
//! exactly like the solo `SeqEngine` over the heap graph, with the stored
//! `A` bits of the heap build. These are the lattice's mmap points with
//! the cache on and tracing off (`common::lattice`).

mod common;

use common::lattice::{check_case, Point, CACHE, MMAP};
use common::{case_strategy, queries_strategy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn mmap_equivalence(
        case in case_strategy(20, 40),
        extra in queries_strategy(2..4, 2..4),
    ) {
        check_case(&case, &extra, &Point::each_backend("mmap", MMAP | CACHE))?;
    }
}
