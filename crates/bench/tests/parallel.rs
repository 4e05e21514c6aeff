//! Differential test for the sweep pool: every registry experiment's
//! text table and the whole `--no-simspeed` `BENCH_figures.json`
//! document (every JSON section plus the roster sweep) must render
//! byte-identically for worker counts 1, 2 and 8. The single-worker run
//! takes the plain serial code path (`simos::par::map_cells_on` loops
//! in-order on the calling thread), so it is the oracle the parallel
//! runs are diffed against.
//!
//! `with_threads` pins the worker count via a *thread-local* override,
//! so this test cannot race the others under the parallel test harness.

mod common;

use simos::par::with_threads;

/// The parallel worker counts diffed against the 1-worker oracle: one
/// below the typical cell count and one above several grids' axes (8
/// exceeds e.g. the admission sweep's 3 cells, exercising the
/// workers-capped-to-cells path).
const WORKER_COUNTS: [usize; 2] = [2, 8];

#[test]
fn every_experiment_is_worker_count_invariant() {
    let (text, doc) = with_threads(1, common::render_all);
    for workers in WORKER_COUNTS {
        let (got_text, got_doc) = with_threads(workers, common::render_all);
        let at = |what: &str| format!("{what} at {workers} workers");
        common::assert_same_lines(&at("figure text"), &text, &got_text);
        common::assert_same_lines(&at("JSON document"), &doc, &got_doc);
    }
}
