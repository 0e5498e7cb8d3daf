//! The committed ablation record stays reproducible.
//!
//! `exper ablations --csv-dir results` writes `results/ablation-*.csv`.
//! Every column not named `*_ms` is a pure function of the seeds, so a
//! rerun must reproduce it byte for byte. This checks the two cheapest
//! ablations; CI reruns all seven in release and diffs them the same way.

use cpo_iaas::exper::ablation::{self, without_wall_clock, Ablation};

fn assert_matches_record(table: Ablation) {
    let path = format!(
        "{}/results/ablation-{}.csv",
        env!("CARGO_MANIFEST_DIR"),
        table.name
    );
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        without_wall_clock(&table.csv()),
        without_wall_clock(&committed),
        "{path} no longer matches `exper ablations`; regenerate it with \
         `exper ablations --csv-dir results` and restate EXPERIMENTS.md"
    );
}

#[test]
fn repair_scan_matches_the_committed_record() {
    assert_matches_record(ablation::repair_scan());
}

#[test]
fn tabu_tenure_matches_the_committed_record() {
    assert_matches_record(ablation::tabu_tenure());
}
