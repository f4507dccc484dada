//! Query telemetry never perturbs answers: with caller-assigned qids and
//! every odd step traced, every backend in process and `seq` and `cpu:2`
//! over loopback fleets of 1, 2 and 4 workers answer the lattice's stream
//! exactly like the solo `SeqEngine`, every result and trace carries its
//! qid, and nothing is left in flight. These are the lattice's trace-on
//! points with every other axis off (`common::lattice`).

mod common;

use common::lattice::{check_case, Point, BACKENDS, FLEETS, TRACE};
use common::{case_strategy, queries_strategy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn telemetry_never_perturbs_answers(
        case in case_strategy(20, 40),
        extra in queries_strategy(2..4, 2..4),
        cpu in proptest::collection::vec(false, FLEETS.len()),
    ) {
        let on = |bit| TRACE >> bit & 1 == 1;
        let mut points = Point::each_backend("trace", TRACE);
        for (&workers, &cpu) in FLEETS.iter().zip(&cpu) {
            points.push(Point::new("trace", BACKENDS[usize::from(cpu)], workers, on));
        }
        check_case(&case, &extra, &points)?;
    }
}
