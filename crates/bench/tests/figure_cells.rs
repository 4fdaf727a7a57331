//! Golden pin of the figure registry: every registered figure's name,
//! x label and ordered `(x, label)` cells. The labels are the `policy`
//! names of the figure JSON, so a typed cell whose label drifts would
//! silently rename a JSON cell; this test makes that loud.

use bench::driver::{figure_spec, FIGURES, HIDDEN_FIGURES};
use std::fmt::Write as _;

/// One block per figure: `name<TAB>x_label`, then `<TAB>x<TAB>label` per
/// cell, with x in shortest round-trip form.
fn render_registry() -> String {
    let mut out = String::new();
    for name in FIGURES.iter().chain(&HIDDEN_FIGURES) {
        let spec = figure_spec(name).expect("registered figure");
        let _ = writeln!(out, "{}\t{}", spec.name, spec.x_label);
        for cell in &spec.cells {
            let _ = writeln!(out, "\t{:?}\t{}", cell.x, cell.label());
        }
    }
    out
}

#[test]
fn registry_matches_golden_cell_list() {
    let golden = include_str!("golden/figure_cells.txt");
    let actual = render_registry();
    for (i, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "figure cell list diverges at line {}", i + 1);
    }
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "figure cell list length differs:\n{actual}"
    );
}
