//! One module per paper table/figure; each produces a [`Report`] that the
//! `figures` binary prints and tests assert on, and some also a section
//! of `BENCH_figures.json` rendered from the same computed results.

pub mod ablations;
pub mod fig1;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fuse;
pub mod harden;
pub mod numa;
pub mod pipeline;
pub mod scale;
pub mod serve;
pub mod simspeed;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod verify;

use crate::json::Json;
use crate::sweep;

/// A regenerated table or figure.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id, e.g. "Table 1" / "Figure 6".
    pub id: &'static str,
    /// What it shows.
    pub caption: &'static str,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = format!("== {} — {} ==\n", self.id, self.caption);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// What one experiment run yields: its text table and, for experiments
/// with a `BENCH_figures.json` section, that section — both built from
/// one computation of the experiment's results.
#[derive(Debug, Clone)]
pub struct Output {
    /// The text table.
    pub report: Report,
    /// The JSON section, if the experiment has one.
    pub json: Option<Json>,
}

impl From<Report> for Output {
    fn from(report: Report) -> Self {
        Output { report, json: None }
    }
}

/// A named experiment runner.
pub type Experiment = (&'static str, fn() -> Output);

/// Every experiment, in paper order, as (key, runner).
///
/// Debug builds assert the keys are unique — a duplicate would make
/// `figures <key>` silently run only the first entry.
pub fn all() -> Vec<Experiment> {
    let registry: Vec<Experiment> = vec![
        ("fig1a", || fig1::fig1a().into()),
        ("fig1b", || fig1::fig1b().into()),
        ("table1", || table1::run().into()),
        ("fig5", fig5::run),
        ("fig6", || fig6::run().into()),
        ("table3", || table3::run().into()),
        ("fig7ab", || fig7::fig7ab().into()),
        ("fig7c", || fig7::fig7c().into()),
        ("fig8ab", || fig8::fig8ab().into()),
        ("fig8c", || fig8::fig8c().into()),
        ("fig9a", || fig9::fig9a().into()),
        ("fig9b", || fig9::fig9b().into()),
        ("table4", || table4::run().into()),
        ("table5", || table5::run().into()),
        ("table6", || table6::run().into()),
        ("table7", || table7::run().into()),
        ("ablations", ablations::run),
        ("scale", scale::run),
        ("pipeline", pipeline::run),
        ("numa", numa::run),
        ("verify", verify::run),
        ("serve", serve::run),
        ("fuse", fuse::run),
        ("harden", harden::run),
    ];
    debug_assert!(
        {
            let mut keys: Vec<&str> = registry.iter().map(|(k, _)| *k).collect();
            keys.sort_unstable();
            keys.windows(2).all(|w| w[0] != w[1])
        },
        "experiments::all() registers a duplicate key"
    );
    registry
}

/// The `BENCH_figures.json` document: the full roster's per-system,
/// per-size, per-phase sweep (`systems`), then `sections` (the JSON
/// sections of the experiments that ran, in run order), then — when
/// `simspeed` is set — the wall-clock `simspeed` section, the one part
/// that is not byte-reproducible.
pub fn document(sections: Vec<(&'static str, Json)>, simspeed: bool) -> Json {
    let mut fields = vec![("systems", sweep::roster_json(&sweep::roster_sweep()))];
    fields.extend(sections);
    if simspeed {
        let serial = simspeed::measure(simspeed::REQUESTS);
        fields.push((
            "simspeed",
            simspeed::json(&serial, &simspeed::measure_par()),
        ));
    }
    Json::Object(fields)
}

/// The registry key closest to `unknown` (edit distance ≤ 2), for the
/// `figures` binary's "did you mean" hint. Ties break to the
/// lexicographically smallest key, so the hint is deterministic.
pub fn suggest(unknown: &str) -> Option<&'static str> {
    all()
        .iter()
        .map(|&(k, _)| (edit_distance(unknown, k), k))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, k)| (d, k))
        .map(|(_, k)| k)
}

/// Plain Levenshtein distance (two-row DP) — the keys are short, so the
/// quadratic cost is irrelevant.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned() {
        let r = Report {
            id: "Table X",
            caption: "test",
            headers: vec!["a".into(), "bbbb".into()],
            rows: vec![vec!["100".into(), "2".into()]],
        };
        let s = r.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("100"));
    }

    #[test]
    fn registry_has_all_24_experiments() {
        assert_eq!(all().len(), 24);
    }

    #[test]
    fn registry_keys_are_unique() {
        // The release-build complement of the debug_assert in all().
        let mut keys: Vec<&str> = all().iter().map(|(k, _)| *k).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate experiment key registered");
    }

    #[test]
    fn suggest_finds_near_misses_and_rejects_gibberish() {
        assert_eq!(suggest("scal"), Some("scale"));
        assert_eq!(suggest("serv"), Some("serve"));
        assert_eq!(suggest("tabel3"), Some("table3"));
        assert_eq!(suggest("scale"), Some("scale"));
        assert_eq!(suggest("qzxwv"), None);
        assert_eq!(suggest(""), None, "nothing is within distance 2 of ''");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("abc", "ab"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
