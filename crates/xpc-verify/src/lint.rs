//! Check (d): the **ledger lint** — every [`Invocation`] a system
//! produces must decompose exactly into its phase ledger, with no
//! unattributed cycles.
//!
//! This is the cost-model counterpart of the hardware checks: the
//! figures are ledger diffs and ledger totals, so an invocation whose
//! `total` drifts from `ledger.total()` silently corrupts every chart
//! built on it. The lint drives each system through the same invocation
//! shapes the experiments use (one-way call and reply legs across the
//! message-size sweep, round trips, batched submissions) and verifies
//! the invariant on every result.

use crate::finding::{Finding, Verdict};
use simos::ipc::{invoke_batch, oneway, roundtrip, IpcSystem};
use simos::ledger::{Invocation, InvokeOpts};

/// Message sizes the lint sweeps — the experiments' sweep points plus
/// byte-odd sizes that would expose rounding drift.
const SWEEP: [usize; 6] = [0, 1, 64, 1024, 4096, 65536];

/// Batch sizes exercised against [`invoke_batch`].
const BATCHES: [u64; 3] = [1, 8, 64];

/// Lint one invocation: `total` must equal the ledger sum.
pub fn lint_invocation(system: &str, what: &str, inv: &Invocation) -> Option<Finding> {
    let attributed = inv.ledger.total();
    if inv.total == attributed {
        return None;
    }
    Some(Finding {
        verdict: Verdict::LedgerDrift,
        site: format!("{system}: {what}"),
        detail: format!(
            "total {} cycles but phases sum to {attributed} ({} unattributed)",
            inv.total,
            inv.total.abs_diff(attributed)
        ),
        op_index: None,
    })
}

/// Drive `sys` through the experiments' invocation shapes and lint
/// every resulting ledger.
pub fn lint_system(sys: &mut dyn IpcSystem) -> Vec<Finding> {
    let name = sys.name();
    let mut findings = Vec::new();
    for &len in &SWEEP {
        for opts in [InvokeOpts::call(), InvokeOpts::reply_leg()] {
            let leg = if opts.reply { "reply" } else { "oneway" };
            let inv = oneway(sys, len, &opts);
            findings.extend(lint_invocation(&name, &format!("{leg}({len})"), &inv));
        }
        let inv = roundtrip(sys, len, len);
        findings.extend(lint_invocation(&name, &format!("roundtrip({len})"), &inv));
        for &calls in &BATCHES {
            let inv = invoke_batch(sys, calls, len, &InvokeOpts::call());
            findings.extend(lint_invocation(
                &name,
                &format!("batch({calls}x{len})"),
                &inv,
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::ledger::{CycleLedger, Phase};

    #[test]
    fn consistent_invocation_passes() {
        let inv = Invocation::from_ledger(CycleLedger::new().with(Phase::Trap, 120), 0);
        assert!(lint_invocation("sys", "oneway(0)", &inv).is_none());
    }

    #[test]
    fn drifted_total_is_flagged_with_the_gap() {
        let mut inv = Invocation::from_ledger(CycleLedger::new().with(Phase::Trap, 120), 0);
        inv.total += 33;
        let f = lint_invocation("sys", "oneway(0)", &inv).expect("drift must be flagged");
        assert_eq!(f.verdict, Verdict::LedgerDrift);
        assert!(f.detail.contains("33 unattributed"));
        assert_eq!(f.cause(), None, "drift predicts no hardware trap");
    }

    #[test]
    fn full_roster_is_drift_free() {
        for factory in kernels::full_roster_factories() {
            let mut sys = factory();
            let findings = lint_system(sys.as_mut());
            assert!(
                findings.is_empty(),
                "{}: {:?}",
                sys.name(),
                findings.first()
            );
        }
    }
}
