//! Comparing `BENCH_results.json` ledgers for the CI perf gate.
//!
//! The vendored criterion stand-in records every benchmark run in a
//! line-oriented JSON ledger committed at the workspace root; its
//! writer-paired parser ([`criterion::parse_records`]) is reused here so
//! the format has exactly one reader and one writer. This module
//! implements the CI perf-regression gate's comparison on top: a fresh
//! run of a benchmark group is compared entry-by-entry against the
//! committed ledger, and any benchmark whose **minimum** sample slowed
//! down by more than the allowed factor fails the gate. The minimum is
//! the gate statistic (rather than the mean) because it is the run's
//! least-noisy observation: scheduler preemption and cache pollution
//! only ever add time, so `min_ns` estimates the true cost with far
//! less variance than `mean_ns` on shared CI runners. Entries whose
//! recorded minimum is 0 (sub-nanosecond or legacy ledgers) fall back
//! to the mean. New benchmarks (present only
//! in the fresh run) and retired ones (present only in the ledger) are
//! reported but never fail the gate — the ledger update that introduces
//! or removes entries is reviewed with the code change itself.
//!
//! The committed baseline is hardware-bound (it was recorded on one CI
//! runner class); the gated benches pin their sharded entries to one
//! thread in code, so core-count differences cannot masquerade as
//! regressions, and the ledger is refreshed whenever the runner class
//! changes.

pub use criterion::{parse_records as parse_ledger, BenchRecord};
use std::fmt;

/// Verdict of the gate for one benchmark present in both ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Benchmark id.
    pub name: String,
    /// Committed (baseline) gate statistic in nanoseconds: the ledger's
    /// `min_ns`, or its `mean_ns` when the recorded minimum is 0.
    pub baseline_ns: u128,
    /// Fresh-run gate statistic in nanoseconds (same min-with-mean-
    /// fallback rule as the baseline).
    pub fresh_ns: u128,
    /// `fresh / baseline` (> 1 means the benchmark got slower).
    pub ratio: f64,
}

impl Comparison {
    /// True if the slowdown exceeds the allowed factor.
    pub fn regressed(&self, max_ratio: f64) -> bool {
        self.ratio > max_ratio
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: committed min {} ns -> fresh min {} ns ({:.2}x)",
            self.name, self.baseline_ns, self.fresh_ns, self.ratio
        )
    }
}

/// Result of gating a fresh run against the committed ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Benchmarks present in both ledgers, with their slowdown ratios.
    pub compared: Vec<Comparison>,
    /// Fresh benchmarks with no committed baseline (informational).
    pub new_entries: Vec<String>,
    /// Committed benchmarks the fresh run did not produce
    /// (informational; usually a renamed or retired benchmark).
    pub missing_entries: Vec<String>,
}

impl GateReport {
    /// The comparisons that exceed `max_ratio`.
    pub fn regressions(&self, max_ratio: f64) -> Vec<&Comparison> {
        self.compared.iter().filter(|c| c.regressed(max_ratio)).collect()
    }

    /// True if every compared benchmark is within the allowed factor.
    pub fn passes(&self, max_ratio: f64) -> bool {
        self.regressions(max_ratio).is_empty()
    }

    /// Strict verdict: like [`GateReport::passes`], but additionally
    /// fails when the committed ledger holds entries the fresh run did
    /// not produce. CI runs strict so a stale ledger entry (a renamed or
    /// retired benchmark that nobody pruned) cannot sit in the baseline
    /// forever, silently gating nothing.
    pub fn passes_strict(&self, max_ratio: f64) -> bool {
        self.passes(max_ratio) && self.missing_entries.is_empty()
    }
}

/// Gates a fresh ledger against the committed baseline over several
/// benchmark groups at once, returning one report per prefix in the
/// given order. The CI gate uses this so *every* group's regressions
/// are collected and printed in a single invocation before the process
/// exits non-zero — a regression in the first group must not mask one
/// in the last.
pub fn gate_groups(
    baseline: &[BenchRecord],
    fresh: &[BenchRecord],
    prefixes: &[String],
) -> Vec<(String, GateReport)> {
    prefixes
        .iter()
        .map(|prefix| (prefix.clone(), gate(baseline, fresh, prefix)))
        .collect()
}

/// The statistic the gate compares for one record: the minimum sample,
/// falling back to the mean when the recorded minimum is 0 (legacy
/// ledgers predating `min_ns`, or genuinely sub-nanosecond entries).
fn gate_ns(record: &BenchRecord) -> u128 {
    if record.min_ns == 0 {
        record.mean_ns
    } else {
        record.min_ns
    }
}

/// Compares the fresh entries whose names start with `prefix` against
/// the committed baseline (an empty prefix gates everything).
pub fn gate(baseline: &[BenchRecord], fresh: &[BenchRecord], prefix: &str) -> GateReport {
    let mut report = GateReport::default();
    for entry in fresh.iter().filter(|e| e.name.starts_with(prefix)) {
        match baseline.iter().find(|b| b.name == entry.name) {
            Some(base) => {
                let baseline_ns = gate_ns(base);
                let fresh_ns = gate_ns(entry);
                // Baselines of 0 ns cannot regress meaningfully; treat
                // them as ratio 1 to avoid dividing by zero.
                let ratio = if baseline_ns == 0 {
                    1.0
                } else {
                    fresh_ns as f64 / baseline_ns as f64
                };
                report.compared.push(Comparison {
                    name: entry.name.clone(),
                    baseline_ns,
                    fresh_ns,
                    ratio,
                });
            }
            None => report.new_entries.push(entry.name.clone()),
        }
    }
    for base in baseline.iter().filter(|e| e.name.starts_with(prefix)) {
        if !fresh.iter().any(|e| e.name == base.name) {
            report.missing_entries.push(base.name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, mean_ns: u128) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            mean_ns,
            min_ns: mean_ns,
            samples: 10,
        }
    }

    #[test]
    fn parse_ledger_reads_the_committed_format() {
        // The parser is the vendored writer's own; this asserts the
        // re-export keeps reading the committed file's shape.
        let text = "{\n  \"benches\": [\n    {\"name\": \"g/a\", \"mean_ns\": 120, \"min_ns\": 100, \"samples\": 10},\n    garbage\n    {\"name\": \"g/b\", \"mean_ns\": 7, \"min_ns\": 5, \"samples\": 3}\n  ]\n}\n";
        let entries = parse_ledger(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "g/a");
        assert_eq!(entries[0].mean_ns, 120);
        assert_eq!(entries[0].min_ns, 100);
        assert_eq!(entries[1].name, "g/b");
        assert_eq!(entries[1].mean_ns, 7);
    }

    #[test]
    fn gate_flags_only_regressions_beyond_the_factor() {
        let baseline = vec![entry("g/fast", 100), entry("g/slow", 100), entry("g/gone", 50)];
        let fresh = vec![
            entry("g/fast", 180),   // 1.8x: within a 2x gate
            entry("g/slow", 250),   // 2.5x: regression
            entry("g/new", 10_000), // no baseline: informational
        ];
        let report = gate(&baseline, &fresh, "g/");
        assert_eq!(report.compared.len(), 2);
        assert_eq!(report.new_entries, vec!["g/new".to_string()]);
        assert_eq!(report.missing_entries, vec!["g/gone".to_string()]);
        assert!(!report.passes(2.0));
        let regressions = report.regressions(2.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "g/slow");
        assert!((regressions[0].ratio - 2.5).abs() < 1e-9);
        // A looser gate passes.
        assert!(report.passes(3.0));
        // The prefix filters unrelated groups.
        let other = gate(&baseline, &fresh, "other/");
        assert!(other.compared.is_empty() && other.new_entries.is_empty());
    }

    #[test]
    fn gate_groups_reports_every_groups_regressions() {
        let baseline = vec![entry("a/x", 100), entry("b/y", 100), entry("c/z", 100)];
        let fresh = vec![
            entry("a/x", 300), // regression in the first group
            entry("b/y", 120), // fine
            entry("c/z", 500), // regression in the last group
        ];
        let groups = gate_groups(
            &baseline,
            &fresh,
            &["a/".to_string(), "b/".to_string(), "c/".to_string()],
        );
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, "a/");
        assert!(!groups[0].1.passes(2.0));
        assert!(groups[1].1.passes(2.0));
        // The last group's regression is still present — nothing about
        // the first failure hides it.
        assert!(!groups[2].1.passes(2.0));
        let total_regressions: usize = groups.iter().map(|(_, r)| r.regressions(2.0).len()).sum();
        assert_eq!(total_regressions, 2);
    }

    #[test]
    fn strict_verdict_fails_on_stale_ledger_entries() {
        let baseline = vec![entry("g/kept", 100), entry("g/stale", 50)];
        let fresh = vec![entry("g/kept", 110)];
        let report = gate(&baseline, &fresh, "g/");
        // The lenient gate reports the stale entry but still passes...
        assert_eq!(report.missing_entries, vec!["g/stale".to_string()]);
        assert!(report.passes(2.0));
        // ...while the strict gate used by CI fails on it.
        assert!(!report.passes_strict(2.0));
        // With the stale entry pruned, strict passes again.
        let pruned = gate(&baseline[..1], &fresh, "g/");
        assert!(pruned.passes_strict(2.0));
        // Strict still fails on plain regressions, too.
        let regressed = gate(&baseline[..1], &[entry("g/kept", 500)], "g/");
        assert!(!regressed.passes_strict(2.0));
    }

    #[test]
    fn zero_baseline_does_not_divide_by_zero() {
        let report = gate(&[entry("g/x", 0)], &[entry("g/x", 10)], "");
        assert!((report.compared[0].ratio - 1.0).abs() < f64::EPSILON);
        assert!(report.passes(2.0));
    }

    #[test]
    fn gate_compares_minimums_not_means() {
        // A fresh run whose mean tripled from scheduler noise but whose
        // minimum barely moved must pass: the minimum is the gate
        // statistic.
        let baseline = vec![BenchRecord {
            name: "g/noisy".to_string(),
            mean_ns: 100,
            min_ns: 50,
            samples: 10,
        }];
        let fresh = vec![BenchRecord {
            name: "g/noisy".to_string(),
            mean_ns: 300,
            min_ns: 60,
            samples: 10,
        }];
        let report = gate(&baseline, &fresh, "g/");
        assert_eq!(report.compared[0].baseline_ns, 50);
        assert_eq!(report.compared[0].fresh_ns, 60);
        assert!((report.compared[0].ratio - 1.2).abs() < 1e-9);
        assert!(report.passes(2.0));
        // Conversely a genuine minimum regression fails even when the
        // mean stays flat.
        let regressed = vec![BenchRecord {
            name: "g/noisy".to_string(),
            mean_ns: 110,
            min_ns: 105,
            samples: 10,
        }];
        assert!(!gate(&baseline, &regressed, "g/").passes(2.0));
    }

    #[test]
    fn zero_minimum_falls_back_to_the_mean() {
        // Legacy ledgers (or sub-nanosecond entries) record min_ns = 0;
        // the gate then compares means instead of treating the entry as
        // free.
        let baseline = vec![BenchRecord {
            name: "g/legacy".to_string(),
            mean_ns: 100,
            min_ns: 0,
            samples: 10,
        }];
        let fresh = vec![BenchRecord {
            name: "g/legacy".to_string(),
            mean_ns: 250,
            min_ns: 0,
            samples: 10,
        }];
        let report = gate(&baseline, &fresh, "g/");
        assert_eq!(report.compared[0].baseline_ns, 100);
        assert_eq!(report.compared[0].fresh_ns, 250);
        assert!(!report.passes(2.0));
    }

    #[test]
    fn comparison_display_is_informative() {
        let comparison = Comparison {
            name: "g/x".to_string(),
            baseline_ns: 100,
            fresh_ns: 250,
            ratio: 2.5,
        };
        let text = comparison.to_string();
        assert!(text.contains("g/x"));
        assert!(text.contains("2.50x"));
        assert!(comparison.regressed(2.0));
    }
}
