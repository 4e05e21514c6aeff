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
//!
//! Since the arena refactor the hot path prices through the *sink*
//! methods (`oneway_into` / `invoke_batch_into`) while tables and ad-hoc
//! callers still use the allocating ones, so the lint also runs both
//! sides of each pair and flags any divergence — same spans in the same
//! order, same copied bytes — as ledger drift.

use crate::finding::{Finding, Verdict};
use simos::ipc::{roundtrip, IpcSystem};
use simos::ledger::{CycleLedger, Invocation, InvokeOpts};

/// Message sizes the lint sweeps — the experiments' sweep points plus
/// byte-odd sizes that would expose rounding drift.
const SWEEP: [usize; 6] = [0, 1, 64, 1024, 4096, 65536];

/// Batch sizes exercised against `invoke_batch`.
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

/// Lint one alloc-vs-sink pair: the sink path must reproduce the
/// allocating path span for span (order included) and byte for byte.
pub fn lint_sink_pair(
    system: &str,
    what: &str,
    alloc: &Invocation,
    sink: &CycleLedger,
    sink_copied: u64,
) -> Option<Finding> {
    if alloc.ledger == *sink && alloc.copied_bytes == sink_copied {
        return None;
    }
    Some(Finding {
        verdict: Verdict::LedgerDrift,
        site: format!("{system}: {what}"),
        detail: format!(
            "sink path diverges from allocating path: \
             spans {:?} vs {:?}, copied {} vs {}",
            sink.spans(),
            alloc.ledger.spans(),
            sink_copied,
            alloc.copied_bytes
        ),
        op_index: None,
    })
}

/// Drive `sys` through the experiments' invocation shapes and lint
/// every resulting ledger, including the sink-vs-alloc differentials.
pub fn lint_system(sys: &mut dyn IpcSystem) -> Vec<Finding> {
    let name = sys.name();
    let mut findings = Vec::new();
    let mut note = |f: Option<Finding>| findings.extend(f);
    let mut sink = CycleLedger::new();
    for &len in &SWEEP {
        for opts in [InvokeOpts::call(), InvokeOpts::reply_leg()] {
            let leg = if opts.reply { "reply" } else { "oneway" };
            let inv = sys.oneway(len, &opts);
            note(lint_invocation(&name, &format!("{leg}({len})"), &inv));
            sink.clear();
            let copied = sys.oneway_into(len, &opts, &mut sink);
            note(lint_sink_pair(
                &name,
                &format!("{leg}_into({len})"),
                &inv,
                &sink,
                copied,
            ));
        }
        note(lint_invocation(
            &name,
            &format!("roundtrip({len})"),
            &roundtrip(sys, len, len),
        ));
        for &calls in &BATCHES {
            let inv = sys.invoke_batch(calls, len, &InvokeOpts::call());
            note(lint_invocation(
                &name,
                &format!("batch({calls}x{len})"),
                &inv,
            ));
            sink.clear();
            let copied = sys.invoke_batch_into(calls, len, &InvokeOpts::call(), &mut sink);
            note(lint_sink_pair(
                &name,
                &format!("batch_into({calls}x{len})"),
                &inv,
                &sink,
                copied,
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

    struct Drifting;
    impl IpcSystem for Drifting {
        fn name(&self) -> String {
            "drifting".into()
        }
        fn oneway(&mut self, msg_len: usize, _opts: &InvokeOpts) -> Invocation {
            let mut inv =
                Invocation::from_ledger(CycleLedger::new().with(Phase::Trap, 100), msg_len as u64);
            inv.total += 1; // one unattributed cycle per hop
            inv
        }
    }

    #[test]
    fn lint_system_catches_a_drifting_model() {
        let findings = lint_system(&mut Drifting);
        assert!(!findings.is_empty());
        assert!(findings.iter().all(|f| f.verdict == Verdict::LedgerDrift));
        // The default `oneway_into` delegates to `oneway`, so a model
        // that only drifts its total never trips the sink differential.
        assert!(
            findings.iter().all(|f| !f.detail.contains("sink path")),
            "{:?}",
            findings.first()
        );
    }

    /// A model whose native sink path disagrees with its allocating path
    /// — the regression the differential lint exists to catch.
    struct SinkDiverging;
    impl IpcSystem for SinkDiverging {
        fn name(&self) -> String {
            "sink-diverging".into()
        }
        fn oneway(&mut self, msg_len: usize, _opts: &InvokeOpts) -> Invocation {
            Invocation::from_ledger(CycleLedger::new().with(Phase::Trap, 100), msg_len as u64)
        }
        fn oneway_into(
            &mut self,
            msg_len: usize,
            _opts: &InvokeOpts,
            out: &mut CycleLedger,
        ) -> u64 {
            out.charge(Phase::Trap, 90); // ten cycles short
            msg_len as u64
        }
    }

    #[test]
    fn lint_system_catches_a_diverging_sink_path() {
        let findings = lint_system(&mut SinkDiverging);
        assert!(!findings.is_empty());
        assert!(findings.iter().any(|f| f.site.contains("oneway_into")));
        // The amortized batch default prices through the broken sink, so
        // the batch differential pair stays consistent with itself — the
        // oneway pair is what exposes the bug.
        assert!(findings.iter().all(|f| f.verdict == Verdict::LedgerDrift));
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
