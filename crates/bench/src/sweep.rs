//! Registry-driven sweep harness: run any roster of [`IpcSystem`]s over a
//! size axis and render the resulting [`Invocation`]s — as cycle tables,
//! as phase-attributed ledger tables, or as JSON for plotting.
//!
//! Every per-figure module used to hand-roll its own loop over systems
//! and sizes; they now all call [`sweep`] and format the shared
//! [`SweepRow`]s, so a figure is just "which systems, which sizes, which
//! view of the ledger".

use crate::experiments::Report;
use crate::json::Json;
use kernels::{Invocation, InvokeOpts, IpcSystem};
use simos::oneway;

/// The default message-size axis (bytes) for sweep-driven figures.
pub const SIZES: [usize; 5] = [0, 64, 1024, 4096, 16384];

/// One system's sweep: the invocation (with full ledger) per size.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The system's display name.
    pub system: String,
    /// `(msg_len, invocation)` per point of the size axis.
    pub points: Vec<(usize, Invocation)>,
}

/// Drive every system over every size with the same [`InvokeOpts`].
pub fn sweep(
    mut systems: Vec<Box<dyn IpcSystem>>,
    sizes: &[usize],
    opts: &InvokeOpts,
) -> Vec<SweepRow> {
    systems
        .iter_mut()
        .map(|s| SweepRow {
            system: s.name(),
            points: sizes
                .iter()
                .map(|&b| (b, oneway(s.as_mut(), b, opts)))
                .collect(),
        })
        .collect()
}

/// The full 12-system roster over the default axis — the observability
/// dump behind `figures --json`. One pool cell per system: the worker
/// builds its system from the roster *factory* (a `Send + Sync` fn
/// pointer), so fanning out needs no `Send` bound on the systems
/// themselves, and index-ordered reduction keeps roster order.
pub fn roster_sweep() -> Vec<SweepRow> {
    simos::par::map_cells(kernels::full_roster_factories(), |_, mk, _| {
        let mut s = mk();
        SweepRow {
            system: s.name(),
            points: SIZES
                .iter()
                .map(|&b| (b, oneway(s.as_mut(), b, &InvokeOpts::call())))
                .collect(),
        }
    })
}

/// Render sweep rows as a size-by-system cycle table (the Figure 6 shape:
/// one row per size, one column per system, cells are total cycles).
pub fn cycles_table(id: &'static str, caption: &'static str, rows: &[SweepRow]) -> Report {
    let mut headers = vec!["Message size".to_string()];
    headers.extend(rows.iter().map(|r| r.system.clone()));
    let n = rows.first().map_or(0, |r| r.points.len());
    let table = (0..n)
        .map(|i| {
            let mut row = vec![format!("{}B", rows[0].points[i].0)];
            row.extend(rows.iter().map(|r| r.points[i].1.total.to_string()));
            row
        })
        .collect();
    Report {
        id,
        caption,
        headers,
        rows: table,
    }
}

/// Render labelled invocations as a phase-by-column ledger table (the
/// Table 1 shape: one row per phase in first-charge order, one column per
/// invocation, plus a Sum row). Columns may attribute different phase
/// sets; absent phases print as "-".
pub fn ledger_table(
    id: &'static str,
    caption: &'static str,
    cols: &[(String, Invocation)],
) -> Report {
    // Phase order: first-charge order across columns, left to right.
    let mut phases = Vec::new();
    for (_, inv) in cols {
        for &(p, _) in inv.ledger.spans() {
            if !phases.contains(&p) {
                phases.push(p);
            }
        }
    }
    let mut headers = vec!["Phases (cycles)".to_string()];
    headers.extend(cols.iter().map(|(n, _)| n.clone()));
    let mut rows: Vec<Vec<String>> = phases
        .iter()
        .map(|&p| {
            let mut row = vec![p.label().to_string()];
            row.extend(cols.iter().map(|(_, inv)| {
                if inv.ledger.spans().iter().any(|&(q, _)| q == p) {
                    inv.ledger.get(p).to_string()
                } else {
                    "-".into()
                }
            }));
            row
        })
        .collect();
    let mut sum = vec!["Sum".to_string()];
    sum.extend(cols.iter().map(|(_, inv)| inv.total.to_string()));
    rows.push(sum);
    Report {
        id,
        caption,
        headers,
        rows,
    }
}

/// One invocation as JSON: size, total, copied bytes and the per-phase
/// cycles in ledger order.
pub fn invocation_json(msg_len: usize, inv: &Invocation) -> Json {
    Json::object([
        ("msg_len", msg_len.into()),
        ("total", inv.total.into()),
        ("copied_bytes", inv.copied_bytes.into()),
        (
            "phases",
            Json::object(inv.ledger.spans().iter().map(|&(p, c)| (p.key(), c.into()))),
        ),
    ])
}

/// Sweep rows as the `systems` section of `BENCH_figures.json`: per
/// system, one [`invocation_json`] per size.
pub fn roster_json(rows: &[SweepRow]) -> Json {
    Json::array(rows.iter().map(|r| {
        Json::object([
            ("name", r.system.as_str().into()),
            (
                "points",
                Json::array(r.points.iter().map(|(b, inv)| invocation_json(*b, inv))),
            ),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::{Sel4, Sel4Transfer};

    #[test]
    fn roster_sweep_covers_every_system_and_size() {
        let rows = roster_sweep();
        assert_eq!(rows.len(), kernels::full_roster().len());
        for r in &rows {
            assert_eq!(r.points.len(), SIZES.len(), "{}", r.system);
            for (b, inv) in &r.points {
                assert_eq!(inv.total, inv.ledger.total(), "{} at {b}B", r.system);
            }
        }
    }

    #[test]
    fn cycles_table_has_one_row_per_size() {
        let rows = roster_sweep();
        let t = cycles_table("T", "test", &rows);
        assert_eq!(t.rows.len(), SIZES.len());
        assert_eq!(t.headers.len(), rows.len() + 1);
    }

    #[test]
    fn ledger_table_prints_sum_matching_totals() {
        let mut s = Sel4::new(Sel4Transfer::OneCopy);
        let cols = vec![
            ("0B".to_string(), oneway(&mut s, 0, &InvokeOpts::call())),
            ("4KB".to_string(), oneway(&mut s, 4096, &InvokeOpts::call())),
        ];
        let t = ledger_table("T", "test", &cols);
        let sum = t.rows.last().unwrap();
        assert_eq!(sum[1], cols[0].1.total.to_string());
        assert_eq!(sum[2], cols[1].1.total.to_string());
    }
}
