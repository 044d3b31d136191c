//! The metric catalogue and the result line.
//!
//! Names and units here are the ones `BENCHMARK.json` declares; a unit
//! test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("cells_per_s", "cells/s"),
    ("faults_per_s", "faults/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("location_coverage", "frac"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer a workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spec.parse_ms", "ms"),
    ("spec.compile_ms", "ms"),
    ("spec.render_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.diagnose_ms", "ms"),
    ("core.score_ms", "ms"),
    ("core.located_frac", "frac"),
    ("core.additional_sites", "count"),
    ("bisd.segment_ms", "ms"),
    ("bisd.merge_ms", "ms"),
    ("bisd.located_count_ms", "ms"),
    ("bisd.log_records", "count"),
    ("bisd.located_sites", "count"),
    ("bisd.pristine_member_frac", "frac"),
    ("fault_models.injected_faults", "count"),
    ("exec.diagnose_speedup_2w", "x"),
    ("exec.fault_sim_speedup_2w", "x"),
    ("march.fault_sim_ms", "ms"),
    ("march.lane_classes_ms", "ms"),
    ("march.fallback_classes_ms", "ms"),
    ("march.fallback_fault_frac", "frac"),
    ("march.detected_frac", "frac"),
    ("trace.pass_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

/// Operations attempted and failed. A timed pass, a traced iteration
/// and each output check is one operation.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Timed passes left out of the timing metrics because the
    /// hypervisor stole CPU time while they ran.
    pub disturbed: u64,
}

impl Tally {
    /// Counts one operation; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric of `catalogue` by name and unit.
///
/// # Errors
///
/// Names the first catalogue metric the run did not measure, or the
/// first measured metric the catalogue does not declare.
pub fn result_line(
    tally: &Tally,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|name| !catalogue.iter().any(|(known, _)| known == *name))
    {
        return Err(format!("metric '{extra}' is not in the catalogue"));
    }
    let mut fields = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = values
            .get(name)
            .ok_or_else(|| format!("metric '{name}' was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not a finite number ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use esram_spec::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let manifest = include_str!("../../BENCHMARK.json");
        let document = Json::parse(manifest).expect("BENCHMARK.json is valid JSON");
        document
            .get(section)
            .and_then(Json::as_array)
            .expect("section is an array")
            .iter()
            .map(|metric| {
                let field = |key: &str| {
                    metric
                        .get(key)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{section} entry lacks '{key}'"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let values: BTreeMap<&'static str, f64> = END_TO_END
            .iter()
            .enumerate()
            .map(|(index, (name, _))| (*name, index as f64 + 0.25))
            .collect();
        let tally = Tally {
            attempted: 3,
            ..Tally::default()
        };
        let line = result_line(&tally, END_TO_END, &values).unwrap();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("attempted").and_then(Json::as_int), Some(3));
        let metrics = parsed.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            assert_eq!(
                metrics
                    .get(name)
                    .and_then(|m| m.get("unit"))
                    .and_then(Json::as_str),
                Some(*unit)
            );
        }
    }

    #[test]
    fn result_line_refuses_missing_or_unknown_metrics() {
        let tally = Tally::default();
        assert!(result_line(&tally, END_TO_END, &BTreeMap::new()).is_err());
        let mut values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|(name, _)| (*name, 1.0)).collect();
        values.insert("bogus", 1.0);
        assert!(result_line(&tally, END_TO_END, &values).is_err());
    }
}
