//! Charge-path differential: `World::ipc_roundtrip` and
//! `World::ipc_oneway` price their legs into one reused ledger. A twin
//! world that prices each leg as a standalone invocation
//! (`price_oneway`) and charges it with `charge_invocation` must end up
//! with identical accounting — clock, IPC and transfer cycles, size
//! events, counts, payload bytes, the merged ledger's spans in order,
//! and engine-cache counters — for every system in the full roster and
//! a minimal stateful stub.

use kernels::full_roster_factories;
use simos::{CycleLedger, InvokeOpts, IpcSystem, Phase, World};

const SIZES: [u64; 5] = [0, 16, 64, 4160, 16384];

/// A system that implements only the required methods, with state:
/// every leg costs more than the last, so a reordered, dropped or
/// repeated leg shows.
struct Stateful {
    legs: u64,
}

impl IpcSystem for Stateful {
    fn name(&self) -> String {
        "stateful".into()
    }
    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        self.legs += 1;
        let entry = if opts.reply { Phase::Xret } else { Phase::Trap };
        out.charge(entry, 100 + self.legs);
        out.charge(Phase::Transfer, msg_len as u64);
        out.charge(Phase::IpcLogic, 7 * self.legs);
        msg_len as u64
    }
}

fn systems() -> Vec<fn() -> Box<dyn IpcSystem>> {
    let mut all = full_roster_factories();
    all.push(|| Box::new(Stateful { legs: 0 }));
    all
}

/// A round trip priced leg by leg as standalone invocations, then merged.
fn alloc_roundtrip(w: &mut World, request: u64, response: u64) {
    let mut legs = w.price_oneway(request, &InvokeOpts::call());
    let reply = w.price_oneway(response, &InvokeOpts::reply_leg());
    legs.ledger.merge(&reply.ledger);
    w.charge_invocation(request + response, legs);
}

/// Charge the same traffic through the shared-ledger path and the
/// standalone-invocation path.
fn charge(sink: &mut World, alloc: &mut World, size: u64) {
    sink.ipc_roundtrip(size, 16);
    alloc_roundtrip(alloc, size, 16);

    sink.ipc_oneway(size);
    let inv = alloc.price_oneway(size, &InvokeOpts::call());
    alloc.charge_invocation(size, inv);

    sink.ipc_roundtrip(64, size);
    alloc_roundtrip(alloc, 64, size);
}

fn assert_same(sink: &World, alloc: &World, what: &str) {
    let (s, a) = (&sink.stats, &alloc.stats);
    assert_eq!(sink.cycles, alloc.cycles, "{what}: cycles");
    assert_eq!(s.ipc_cycles, a.ipc_cycles, "{what}: ipc_cycles");
    assert_eq!(s.other_cycles, a.other_cycles, "{what}: other_cycles");
    assert_eq!(
        s.ipc_transfer_cycles, a.ipc_transfer_cycles,
        "{what}: ipc_transfer_cycles"
    );
    assert_eq!(s.events, a.events, "{what}: events");
    assert_eq!(s.ipc_count, a.ipc_count, "{what}: ipc_count");
    assert_eq!(s.payload_bytes, a.payload_bytes, "{what}: payload_bytes");
    assert_eq!(s.ledger.spans(), a.ledger.spans(), "{what}: ledger spans");
    assert_eq!(
        sink.engine_cache_stats(),
        alloc.engine_cache_stats(),
        "{what}: engine cache"
    );
}

#[test]
fn sink_charges_equal_allocating_charges_across_the_roster() {
    for mk in systems() {
        let name = mk().name();
        let mut sink = World::new(mk());
        let mut alloc = World::new(mk());
        for size in SIZES {
            charge(&mut sink, &mut alloc, size);
            assert_same(&sink, &alloc, &format!("{name} at {size} B"));
        }
        assert!(sink.stats.ipc_cycles > 0, "{name}: charges must cost");
    }
}

#[test]
fn stateful_stub_is_priced_leg_by_leg() {
    let mut w = World::new(Box::new(Stateful { legs: 0 }));
    w.ipc_roundtrip(10, 20);
    // Call leg 1: Trap 101, Transfer 10, IpcLogic 7; reply leg 2:
    // Xret 102, Transfer 20, IpcLogic 14 — merged in first-charge order.
    assert_eq!(
        w.stats.ledger.spans(),
        &[
            (Phase::Trap, 101),
            (Phase::Transfer, 30),
            (Phase::IpcLogic, 21),
            (Phase::Xret, 102),
        ]
    );
    assert_eq!(w.stats.events, vec![(30, 254)]);
}
