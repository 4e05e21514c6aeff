//! Depth-1 parity: a one-hop fused [`CallProgram`] with no compute and
//! no handover must price **byte-identically** — same phase ledger,
//! same completion time, same copied bytes — to the equivalent
//! [`Step::Roundtrip`], for every mechanism in the full 12-system
//! roster. The fused path is a generalization, not a re-model: at
//! depth 1 the AnyCall submit-once shape degenerates to exactly one
//! call leg plus one reply leg.

use kernels::full_roster_factories;
use simos::{CycleLedger, MultiWorld, Recipe, Step};

const REQUEST: u64 = 4096;
const RESPONSE: u64 = 512;

#[test]
fn depth_one_program_prices_identically_to_roundtrip_across_the_roster() {
    for mk in full_roster_factories() {
        let name = mk().name();
        let program = Recipe::new(0)
            .hop(1, REQUEST)
            .reply(RESPONSE)
            .build()
            .expect("one hop is a valid program");

        let ids = [0, 1];
        let mut fused_world = MultiWorld::builder().cores(2).build(mk);
        let pid = fused_world.register_program(program);
        let mut fused_ledger = CycleLedger::new();
        let fused = fused_world.exec_into(Step::Fused(pid), &ids, 0, &mut fused_ledger);

        let mut rt_world = MultiWorld::builder().cores(2).build(mk);
        let mut rt_ledger = CycleLedger::new();
        let rt = rt_world.exec_into(
            Step::Roundtrip {
                from: 0,
                to: 1,
                request: REQUEST,
                response: RESPONSE,
            },
            &ids,
            0,
            &mut rt_ledger,
        );

        assert_eq!(
            fused_ledger, rt_ledger,
            "{name}: fused depth-1 ledger diverges from the roundtrip"
        );
        assert_eq!(fused.copied_bytes, rt.copied_bytes, "{name}: copied bytes");
        assert_eq!(fused.done, rt.done, "{name}: completion time");
    }
}
