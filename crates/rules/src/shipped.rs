//! The rule files shipped with the tracer: the live detectors of every
//! diagnosed session.
//!
//! They are the streaming form of the offline `dio-correlate` analyses
//! (and are parity-tested against those over the Fig. 2 / Fig. 3 streams),
//! plus the rate and error-rate anomaly rules. They are embedded from
//! `rules/*.dio` at the repository root, so the committed files and the
//! compiled-in copies cannot drift.

use crate::ast::{DurLit, DurUnit, Trigger};
use crate::check::MAX_WINDOW_NS;
use crate::compile::{compile_file, RuleSet};
use crate::parser::parse_rules;

/// Fig. 2: inode-reuse data loss, stale-offset resume, validated restart.
pub const FIG2_DATA_LOSS: &str = include_str!("../../../rules/fig2_data_loss.dio");

/// Fig. 3: background-compaction contention skew.
pub const FIG3_CONTENTION: &str = include_str!("../../../rules/fig3_contention.dio");

/// Per-class rate spike/collapse versus a trailing baseline.
pub const RATE_ANOMALY: &str = include_str!("../../../rules/rate_anomaly.dio");

/// Per-class error-fraction threshold.
pub const ERROR_RATE: &str = include_str!("../../../rules/error_rate.dio");

/// Every shipped rule file: `(name, source)`, name matching
/// `rules/<name>.dio` in the repository.
pub const ALL: &[(&str, &str)] = &[
    ("fig2_data_loss", FIG2_DATA_LOSS),
    ("fig3_contention", FIG3_CONTENTION),
    ("rate_anomaly", RATE_ANOMALY),
    ("error_rate", ERROR_RATE),
];

/// Every shipped file compiled with its window rules `window_ns` wide
/// (clamped to what the verifier admits), in [`ALL`]'s order: the one
/// threshold sessions set differently — the files spell 1 s, the scaled
/// Fig. 3 run uses 250 ms. Everything else a verdict means is the text.
pub fn compile_all(window_ns: u64) -> Vec<RuleSet> {
    let value = window_ns.clamp(1, MAX_WINDOW_NS);
    ALL.iter()
        .map(|(name, src)| {
            let mut file = parse_rules(src).unwrap_or_else(|e| panic!("shipped {name}: {e}"));
            for rule in &mut file.rules {
                if let Trigger::Window { width, .. } = &mut rule.trigger {
                    *width = DurLit { value, unit: DurUnit::Ns, span: width.span };
                }
            }
            compile_file(&file).unwrap_or_else(|e| panic!("shipped {name}: {e}"))
        })
        .collect()
}

/// The source of a shipped rule file, by name.
pub fn get(name: &str) -> Option<&'static str> {
    ALL.iter().find(|(n, _)| *n == name).map(|&(_, src)| src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use dio_diagnose::DynDetector;

    #[test]
    fn every_shipped_file_compiles_with_zero_diagnostics() {
        for (name, src) in ALL {
            let set = compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                set.verify_report().diagnostics().is_empty(),
                "{name} must be warning-free: {:?}",
                set.verify_report().diagnostics()
            );
            assert!(!set.is_empty(), "{name} defines at least one rule");
        }
    }

    #[test]
    fn compile_all_sets_every_window_to_the_given_width() {
        for (asked, compiled) in [(250_000_000, 250_000_000), (0, 1), (u64::MAX, MAX_WINDOW_NS)] {
            let reports: Vec<_> = compile_all(asked).iter().flat_map(|set| set.reports()).collect();
            assert_eq!(reports.len(), 7);
            for report in reports {
                let windowed = report["trigger"] == "window";
                assert_eq!(report["window_ns"].as_u64(), windowed.then_some(compiled), "{report}");
            }
        }
    }

    #[test]
    fn shipped_names_resolve() {
        assert!(get("fig2_data_loss").is_some());
        assert!(get("nope").is_none());
    }

    #[test]
    fn shipped_rule_names_are_globally_unique() {
        let mut names = Vec::new();
        for (_, src) in ALL {
            names.extend(compile(src).unwrap().names().iter().map(|n| n.to_string()));
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "rule names collide across shipped files");
    }
}
