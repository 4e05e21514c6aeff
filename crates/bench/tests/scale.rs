//! The scale-out experiment end to end: determinism of the seeded load
//! generator and the §5.2 scale-out story in the numbers.

use xpc_bench::experiments::scale;

#[test]
fn same_seed_reproduces_the_whole_grid() {
    // Everything — virtual clocks, placement, percentiles — is seeded
    // and deterministic, so two full grid runs are bit-identical.
    assert_eq!(scale::results(), scale::results());
}

#[test]
fn xpc_round_robin_beats_its_same_core_placement() {
    let rows = scale::results();
    let cell = |sys: &str, pol: &str| {
        rows.iter()
            .find(|r| r.system == sys && r.policy == pol)
            .unwrap_or_else(|| panic!("missing cell {sys}/{pol}"))
            .throughput_rps
    };
    assert!(cell("seL4-XPC", "round-robin") > cell("seL4-XPC", "same-core"));
    assert!(cell("Zircon-XPC", "round-robin") > cell("Zircon-XPC", "same-core"));
}
