//! Snapshot test: every registry experiment is computed once, and both
//! renderings of that one computation must match the committed files —
//! the text tables against `figures/golden.txt` and the JSON sections
//! (with the roster sweep, without the wall-clock `simspeed` section)
//! against `figures/golden.json`. Any model change fails `cargo test`
//! instead of silently rotting the checked-in output.
//!
//! To refresh after an intentional model change:
//!
//! ```text
//! cargo run --release -p xpc-bench --bin figures -- all > figures/golden.txt
//! cargo run --release -p xpc-bench --bin figures -- --threads 1 --json --no-simspeed all
//! cp BENCH_figures.json figures/golden.json
//! ```

mod common;

#[test]
fn figures_match_the_committed_goldens() {
    let (text, doc) = simos::par::with_threads(1, common::render_all);
    common::assert_same_lines(
        "figures/golden.txt",
        include_str!("../../../figures/golden.txt"),
        &text,
    );
    common::assert_same_lines(
        "figures/golden.json",
        include_str!("../../../figures/golden.json"),
        &doc,
    );
}
