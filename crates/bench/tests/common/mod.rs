//! What the golden and worker-count tests share: every registry
//! experiment run once, rendered as `figures all` prints it, plus the
//! `figures --json --no-simspeed all` document built from the same runs,
//! and the first-diverging-line comparison both tests report through.

use xpc_bench::experiments;

/// `(figures all text, --no-simspeed BENCH_figures.json text)`.
pub fn render_all() -> (String, String) {
    let mut text = String::new();
    let mut sections = Vec::new();
    for (key, run) in experiments::all() {
        let out = run();
        text.push_str(&format!("{}\n", out.report.render()));
        sections.extend(out.json.map(|j| (key, j)));
    }
    let doc = format!("{}\n", experiments::document(sections, false).pretty());
    (text, doc)
}

/// Fail on the first line where `got` departs from `expected`, not with
/// a dump of the whole text.
pub fn assert_same_lines(what: &str, expected: &str, got: &str) {
    for (i, (e, g)) in expected.lines().zip(got.lines()).enumerate() {
        assert_eq!(e, g, "{what} diverges at line {}", i + 1);
    }
    assert_eq!(
        expected.lines().count(),
        got.lines().count(),
        "{what} has a different number of lines"
    );
    assert!(expected == got, "{what} differs only in line endings");
}
