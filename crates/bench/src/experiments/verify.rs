//! **Verify** — the static pre-flight story: every figure's recipes are
//! proved free of the five XPC exceptions before they run, and the
//! crafted misconfigurations are each refuted with the exact `Cause`
//! the engine would trap with.
//!
//! Three row groups share the `"verify"` section of
//! `BENCH_figures.json`:
//!
//! * **crafted** — one minimal misconfiguration per exception class
//!   (out-of-bounds entry, ungranted xcall, self-recursive service,
//!   empty-slot swapseg, widening seg-mask) plus the three
//!   temporal-lifecycle classes (revoked-cap call, post-handover mask
//!   widening, cross-tenant skip return) and a clean control; the
//!   verifier's verdict must agree with the expected trap class by
//!   class (the differential tests additionally replay each on a real
//!   `XpcKernel` and assert the engine faults identically);
//! * **preflight** — the recipes the scale / pipeline / NUMA grids
//!   actually run, re-verified here; all must prove clean (the grids
//!   themselves call [`gate`] and panic rather than price an
//!   unverifiable recipe);
//! * **ledger** — the lint pass over the full 12-system roster: every
//!   invocation shape the experiments use must decompose exactly into
//!   its phase ledger.

use super::{pipeline, Output, Report};
use crate::json::Json;
use services::http::{chain_steps, ChainSpec, CHAIN_SERVICES};
use simos::{CallProgram, Step};
use xpc_verify::{crafted, lint, preflight, preflight_program, verify};

/// Refuse to run a figure whose recipes the verifier cannot prove
/// clean: panics with every finding. Called by the scale / pipeline /
/// NUMA grids before pricing anything.
pub fn gate(figure: &str, n_services: usize, recipes: &[Vec<Step>]) {
    let named: Vec<(String, Vec<Step>)> = recipes
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("{figure} recipe {i}"), r.clone()))
        .collect();
    if let Err(findings) = preflight(n_services, &named) {
        let list = findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        panic!("{figure}: refusing to run an unverifiable recipe: {list}");
    }
}

/// The fused sibling of [`gate`]: refuse to run a figure whose call
/// program the verifier cannot prove clean — per-hop grant caps, the
/// exact fused depth bound, single-owner handover. Called by the fuse
/// grid before pricing anything.
pub fn gate_program(figure: &str, n_services: usize, program: &CallProgram) {
    if let Err(findings) = preflight_program(n_services, figure, program) {
        let list = findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        panic!("{figure}: refusing to run an unverifiable program: {list}");
    }
}

/// One row of the verify table / JSON section.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row group: `crafted`, `preflight`, or `ledger`.
    pub group: &'static str,
    /// What was checked.
    pub subject: String,
    /// Expected outcome key (a trap key or `clean`).
    pub expected: String,
    /// The verifier's verdict key (first finding, or `clean`).
    pub verdict: String,
    /// Findings raised.
    pub findings: usize,
    /// Whether verdict matches expectation.
    pub ok: bool,
}

/// A pre-flight set: `(subject, n_services, named recipes)`.
type RecipeSet = (String, usize, Vec<(String, Vec<Step>)>);

/// The figure recipe sets the pre-flight group re-verifies.
fn figure_recipe_sets() -> Vec<RecipeSet> {
    let mut sets = Vec::new();
    for handover in [false, true] {
        let named = [1024u64, 4096, 16384]
            .iter()
            .map(|&len| {
                (
                    format!("chain {len}B"),
                    chain_steps(
                        "/index.html",
                        len,
                        ChainSpec::default().with_handover(handover),
                    ),
                )
            })
            .collect();
        sets.push((
            format!("scale/numa chains handover={handover}"),
            CHAIN_SERVICES,
            named,
        ));
    }
    let bursts = pipeline::BATCHES
        .iter()
        .map(|&b| (format!("burst batch={b}"), pipeline::recipe(b)))
        .collect();
    sets.push(("pipeline bursts".to_string(), 2, bursts));
    sets
}

/// Every verify row, in group order. Fully static and deterministic:
/// each row group fans through the pool independently (rows depend only
/// on their own plan/recipe set/system) and the groups concatenate in
/// the fixed crafted → preflight → ledger order.
pub fn results() -> Vec<Row> {
    let mut rows = simos::par::map_cells(crafted::all_crafted(), |_, c, _| {
        let findings = verify(&c.plan, &c.recipes);
        let expected = c.expected.map_or("clean".to_string(), |cause| {
            xpc_verify::Verdict::Trap(cause).key().to_string()
        });
        let verdict = findings
            .first()
            .map_or("clean".to_string(), |f| f.verdict.key().to_string());
        let ok = match c.expected {
            None => findings.is_empty(),
            Some(cause) => {
                !findings.is_empty() && findings.iter().all(|f| f.cause() == Some(cause))
            }
        };
        Row {
            group: "crafted",
            subject: c.label.to_string(),
            expected,
            verdict,
            findings: findings.len(),
            ok,
        }
    });
    rows.extend(simos::par::map_cells(
        figure_recipe_sets(),
        |_, (subject, n_services, named), _| {
            let findings = preflight(n_services, &named).err().unwrap_or_default();
            Row {
                group: "preflight",
                subject,
                expected: "clean".to_string(),
                verdict: findings
                    .first()
                    .map_or("clean".to_string(), |f| f.verdict.key().to_string()),
                findings: findings.len(),
                ok: findings.is_empty(),
            }
        },
    ));
    rows.extend(simos::par::map_cells(
        kernels::full_roster_factories(),
        |_, factory, _| {
            let mut sys = factory();
            let findings = lint::lint_system(sys.as_mut());
            Row {
                group: "ledger",
                subject: sys.name(),
                expected: "clean".to_string(),
                verdict: findings
                    .first()
                    .map_or("clean".to_string(), |f| f.verdict.key().to_string()),
                findings: findings.len(),
                ok: findings.is_empty(),
            }
        },
    ));
    rows
}

/// Regenerate the verify table and its `"verify"` JSON section.
pub fn run() -> Output {
    let results = results();
    let rows = results
        .iter()
        .map(|r| {
            vec![
                r.group.to_string(),
                r.subject.clone(),
                r.expected.clone(),
                r.verdict.clone(),
                r.findings.to_string(),
                if r.ok { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    let json = Json::array(results.iter().map(|r| {
        Json::object([
            ("group", r.group.into()),
            ("subject", r.subject.as_str().into()),
            ("expected", r.expected.as_str().into()),
            ("verdict", r.verdict.as_str().into()),
            ("findings", r.findings.into()),
            ("ok", r.ok.into()),
        ])
    }));
    Output {
        report: Report {
            id: "Verify",
            caption:
                "Static pre-flight: crafted plans refuted with the predicted Cause, figure recipes and roster ledgers proved clean",
            headers: vec![
                "Group".into(),
                "Subject".into(),
                "Expected".into(),
                "Verdict".into(),
                "Findings".into(),
                "OK".into(),
            ],
            rows,
        },
        json: Some(json),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_is_ok() {
        for r in results() {
            assert!(r.ok, "{}: {} got {}", r.group, r.subject, r.verdict);
        }
    }

    #[test]
    fn rows_cover_all_three_groups() {
        let rows = results();
        // 9 crafted (5 spatial exception classes + 3 temporal-lifecycle
        // classes + clean control), 3 recipe sets, 12 roster systems.
        assert_eq!(rows.iter().filter(|r| r.group == "crafted").count(), 9);
        assert_eq!(rows.iter().filter(|r| r.group == "preflight").count(), 3);
        assert_eq!(rows.iter().filter(|r| r.group == "ledger").count(), 12);
    }

    #[test]
    fn crafted_rows_name_all_five_exception_keys() {
        let rows = results();
        for key in [
            "invalid-x-entry",
            "invalid-xcall-cap",
            "invalid-linkage",
            "swapseg-error",
            "invalid-seg-mask",
        ] {
            assert!(
                rows.iter()
                    .any(|r| r.group == "crafted" && r.verdict == key),
                "no crafted row refutes {key}"
            );
        }
    }

    #[test]
    fn gate_accepts_the_figure_recipes() {
        for (subject, n, named) in figure_recipe_sets() {
            let raw: Vec<_> = named.into_iter().map(|(_, r)| r).collect();
            gate(&subject, n, &raw); // must not panic
        }
    }

    #[test]
    #[should_panic(expected = "refusing to run")]
    fn gate_refuses_an_unverifiable_recipe() {
        let rogue = vec![vec![Step::Oneway {
            from: 0,
            to: 9,
            bytes: 8,
        }]];
        gate("test-figure", 2, &rogue);
    }
}
