//! The per-layer metrics of the traced run, each tied to the end-to-end
//! metric it should move, the workload it moves it on, and the
//! workloads that should stay flat when the layer changes.

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// Metric name (`crate.what`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// End-to-end metric it should move, or why it is reported.
    pub moves: &'static str,
    /// Workload that measures it.
    pub on: &'static str,
    /// Workloads whose end-to-end metrics should not move.
    pub flat_on: &'static str,
}

const fn d(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
    flat_on: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        moves,
        on,
        flat_on,
    }
}

/// Every per-layer metric, in report order. A traced run measures the
/// layers its own workload does not call in one probe round of the
/// workload that does.
pub const LAYERS: &[LayerDef] = &[
    d(
        "minidb.create_ms",
        "ms",
        "ops_per_s,peak_rss_mb",
        "ycsb",
        "chain,guest",
    ),
    d(
        "minidb.load_us_per_row",
        "us",
        "ops_per_s",
        "ycsb",
        "chain,guest",
    ),
    d("minidb.read_us", "us", "ops_per_s", "ycsb", "chain,guest"),
    d("minidb.update_us", "us", "ops_per_s", "ycsb", "chain,guest"),
    d("minidb.insert_us", "us", "ops_per_s", "ycsb", "chain,guest"),
    d("minidb.scan_us", "us", "ops_per_s", "ycsb", "chain,guest"),
    d("minidb.rmw_us", "us", "ops_per_s", "ycsb", "chain,guest"),
    d(
        "minidb.cache_hit_ratio",
        "ratio",
        "explains ops_per_s",
        "ycsb",
        "-",
    ),
    d(
        "services.blockdev.reads_per_op",
        "1/op",
        "explains ops_per_s",
        "ycsb",
        "-",
    ),
    d(
        "services.blockdev.writes_per_op",
        "1/op",
        "explains ops_per_s",
        "ycsb",
        "-",
    ),
    d(
        "services.fs.commits_per_op",
        "1/op",
        "explains ops_per_s",
        "ycsb",
        "-",
    ),
    d(
        "simos.world.ipc_per_op",
        "1/op",
        "explains paper_err_pct",
        "ycsb",
        "-",
    ),
    d(
        "simos.world.ipc_cycle_share",
        "ratio",
        "explains paper_err_pct",
        "ycsb",
        "-",
    ),
    d(
        "kernels.reprice_ns",
        "ns",
        "bounds pricing share of ops_per_s",
        "ycsb",
        "guest",
    ),
    d("ycsb.generate_ms", "ms", "setup_s", "ycsb", "-"),
    d(
        "simos.serve.ns_per_arrival.steps.rho08",
        "ns",
        "ops_per_s",
        "chain",
        "ycsb,guest",
    ),
    d(
        "simos.serve.ns_per_arrival.steps.rho12",
        "ns",
        "ops_per_s",
        "chain",
        "ycsb,guest",
    ),
    d(
        "simos.serve.ns_per_arrival.fused.rho08",
        "ns",
        "ops_per_s",
        "chain",
        "ycsb,guest",
    ),
    d(
        "simos.serve.ns_per_arrival.fused.rho12",
        "ns",
        "ops_per_s",
        "chain",
        "ycsb,guest",
    ),
    d(
        "simos.load.ns_per_req.steps",
        "ns",
        "ops_per_s",
        "chain",
        "ycsb,guest",
    ),
    d(
        "simos.load.ns_per_req.fused",
        "ns",
        "ops_per_s",
        "chain",
        "ycsb,guest",
    ),
    d(
        "kernels.price_ns.zircon",
        "ns",
        "ops_per_s",
        "chain",
        "guest",
    ),
    d(
        "kernels.price_ns.zircon-xpc",
        "ns",
        "ops_per_s",
        "chain",
        "guest",
    ),
    d(
        "kernels.price_ns.sel4-onecopy",
        "ns",
        "ops_per_s",
        "chain",
        "guest",
    ),
    d(
        "kernels.price_ns.sel4-xpc",
        "ns",
        "ops_per_s",
        "chain",
        "guest",
    ),
    d(
        "simos.serve.shed_ratio.rho12",
        "ratio",
        "checks chain",
        "chain",
        "-",
    ),
    d(
        "simos.program.xpc_crossings",
        "count",
        "checks chain",
        "chain",
        "-",
    ),
    d(
        "simos.arena.growth_after_warmup",
        "count",
        "checks chain",
        "chain",
        "-",
    ),
    d("simos.serve.calibrate_ms", "ms", "setup_s", "chain", "-"),
    d("simos.serve.trace_gen_ms", "ms", "setup_s", "chain", "-"),
    d("xpc-verify.preflight_us", "us", "setup_s", "chain", "-"),
    d(
        "rv64.bare_minstr_per_s",
        "Minstr/s",
        "ops_per_s",
        "guest",
        "ycsb,chain",
    ),
    d(
        "rv64.user_minstr_per_s",
        "Minstr/s",
        "ops_per_s",
        "guest",
        "ycsb,chain",
    ),
    d(
        "xpc-engine.call_lap_ns.full_cxt",
        "ns",
        "ops_per_s",
        "guest",
        "ycsb,chain",
    ),
    d(
        "xpc-engine.call_lap_ns.partial_cxt",
        "ns",
        "ops_per_s",
        "guest",
        "ycsb,chain",
    ),
    d(
        "xpc-engine.call_lap_ns.tagged_tlb",
        "ns",
        "ops_per_s",
        "guest",
        "ycsb,chain",
    ),
    d(
        "xpc-engine.call_lap_ns.nonblock",
        "ns",
        "ops_per_s",
        "guest",
        "ycsb,chain",
    ),
    d(
        "xpc-engine.call_lap_ns.engine_cache",
        "ns",
        "ops_per_s",
        "guest",
        "ycsb,chain",
    ),
    d(
        "xpc-engine.swapseg_ns",
        "ns",
        "ops_per_s",
        "guest",
        "ycsb,chain",
    ),
    d(
        "rv64.cpi",
        "cycles/instr",
        "explains paper_err_pct",
        "guest",
        "-",
    ),
    d(
        "rv64.tlb_miss_ratio",
        "ratio",
        "explains paper_err_pct",
        "guest",
        "-",
    ),
    d(
        "rv64.icache_miss_ratio",
        "ratio",
        "explains paper_err_pct",
        "guest",
        "-",
    ),
    d(
        "rv64.dcache_miss_ratio",
        "ratio",
        "explains paper_err_pct",
        "guest",
        "-",
    ),
    d("xpc.setup_ms", "ms", "setup_s", "guest", "-"),
    d("trace.overhead_pct", "%", "-", "all", "-"),
];
