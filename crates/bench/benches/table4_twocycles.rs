//! Table IV bench: the cost of also covering 2-cycles.
//!
//! Table IV of the paper compares cover sizes with and without 2-cycles at
//! `k = 5`; the cover-size comparison itself is produced by the `experiments`
//! binary (`table4`). This bench measures the runtime side of the same toggle,
//! and compares the two ways of covering 2-cycles
//! ([`TwoCycleMode::Integrated`] vs the "cover 2-cycles separately, then cover
//! 3..k" [`TwoCycleMode::Separate`] strategy the paper alludes to), printing
//! each one's cover size.

use tdb_bench::bench_support::small_proxy;
use tdb_bench::microbench::Microbench;
use tdb_core::prelude::*;
use tdb_datasets::Dataset;

fn main() {
    let bench = Microbench::new("table4");
    for (dataset, edges) in [(Dataset::Slashdot0902, 4000), (Dataset::AsCaida, 4000)] {
        let g = small_proxy(dataset, edges);
        let code = dataset.spec().code;
        let plain = CoverRequest::new(Algorithm::TdbPlusPlus, 5);
        let integrated = CoverRequest {
            include_two_cycles: true,
            ..plain.clone()
        };
        let separate = CoverRequest {
            two_cycle_mode: TwoCycleMode::Separate,
            ..integrated.clone()
        };
        println!(
            "{code}: cover {} without 2-cycles, {} integrated, {} separate",
            plain.solve(&g).unwrap().cover_size(),
            integrated.solve(&g).unwrap().cover_size(),
            separate.solve(&g).unwrap().cover_size(),
        );

        bench.bench(&format!("{code}/no-2-cycles"), || {
            plain.solve(&g).unwrap().cover_size()
        });
        bench.bench(&format!("{code}/with-2-cycles"), || {
            integrated.solve(&g).unwrap().cover_size()
        });
        bench.bench(&format!("{code}/separate-2-cycle-pass"), || {
            separate.solve(&g).unwrap().cover_size()
        });
    }
}
