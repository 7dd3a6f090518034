//! `compare <a.json> <b.json>`: judges run B against run A by the bounds
//! in `BENCHMARK.json`, per (metric, workload). This is the A/A acceptance
//! check and the way a later change states what it cost.

use crate::json::Json;
use crate::spec::{MetricDef, Spec};
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// A's own quartile spread is wider than the bound: the pair cannot
    /// tell a regression from noise.
    Unresolved,
    /// `--same-code` demanded identical values and they differ (or one
    /// side lacks the metric).
    Mismatch,
    Identical,
    /// Per-layer metric without a bound: reported, not judged.
    Reported,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Identical => "identical",
            Verdict::Reported => "",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Mismatch)
    }
}

/// One side's reading of a metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Reading {
    fn from_json(m: &Json) -> Option<Reading> {
        let value = m.get("value")?.as_f64()?;
        Some(Reading {
            value,
            q1: m.get("q1").and_then(Json::as_f64).unwrap_or(value),
            q3: m.get("q3").and_then(Json::as_f64).unwrap_or(value),
        })
    }

    /// Interquartile range as a share of the value.
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// Whether `--same-code` demands the metric repeat exactly: everything
/// simulated, the failure share, and every count-valued layer metric.
pub fn must_repeat_exactly(d: &MetricDef) -> bool {
    d.name.starts_with("sim_") || d.name == "ok_share" || d.unit == "count"
}

/// Judges one (metric, workload) pair.
pub fn judge(d: &MetricDef, a: Option<Reading>, b: Option<Reading>, same_code: bool) -> Verdict {
    let (Some(a), Some(b)) = (a, b) else {
        return Verdict::Mismatch;
    };
    if same_code && must_repeat_exactly(d) {
        return if a.value == b.value {
            Verdict::Identical
        } else {
            Verdict::Mismatch
        };
    }
    let Some(bound) = d.bound else {
        return Verdict::Reported;
    };
    if a.spread() > bound {
        return Verdict::Unresolved;
    }
    let change = if a.value == 0.0 {
        b.value - a.value
    } else {
        (b.value - a.value) / a.value.abs()
    };
    let worse_by = if d.higher_is_better { -change } else { change };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Compares two result files. Returns the report and whether B passes.
pub fn compare(a: &Json, b: &Json, spec: &Spec, same_code: bool) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for w in &spec.workloads {
        for (pass, defs) in [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ] {
            let side = |root: &Json| root.get("workloads")?.get(w)?.get(pass).cloned();
            let (pa, pb) = (side(a), side(b));
            for (label, p) in [("A", &pa), ("B", &pb)] {
                let correct = p
                    .as_ref()
                    .and_then(|p| p.get("correct"))
                    .and_then(Json::as_bool);
                if correct != Some(true) {
                    let _ = writeln!(
                        out,
                        "{w:<26} {pass}: run {label} is missing or failed its audit"
                    );
                    ok = false;
                }
            }
            for d in defs.iter() {
                let read = |p: &Option<Json>| {
                    p.as_ref()?
                        .get("metrics")?
                        .get(&d.name)
                        .and_then(Reading::from_json)
                };
                let (ra, rb) = (read(&pa), read(&pb));
                let verdict = judge(d, ra, rb, same_code);
                ok &= !verdict.fails();
                let show =
                    |r: Option<Reading>| r.map_or("-".to_string(), |r| format!("{:.6}", r.value));
                let change = match (ra, rb) {
                    (Some(a), Some(b)) if a.value != 0.0 => {
                        format!("{:+.2}%", (b.value - a.value) / a.value.abs() * 100.0)
                    }
                    _ => String::new(),
                };
                let bound = d
                    .bound
                    .map_or(String::new(), |b| format!("bound {:.1}%", b * 100.0));
                let _ = writeln!(
                    out,
                    "{w:<26} {:<34} {:>16} -> {:>16} {:<6} {change:>9}  {bound:<12} {}",
                    d.name,
                    show(ra),
                    show(rb),
                    d.unit,
                    verdict.label()
                );
            }
        }
    }
    let _ = writeln!(out, "compare: {}", if ok { "OK" } else { "FAILED" });
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, unit: &str, higher: bool, bound: Option<f64>) -> MetricDef {
        MetricDef {
            name: name.to_string(),
            unit: unit.to_string(),
            higher_is_better: higher,
            bound,
        }
    }

    fn at(value: f64) -> Option<Reading> {
        Some(Reading {
            value,
            q1: value,
            q3: value,
        })
    }

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        let lower = def("host_cpu_s", "s", false, Some(0.10));
        assert_eq!(
            judge(&lower, at(1.0), at(1.05), false),
            Verdict::WithinBound
        );
        assert_eq!(judge(&lower, at(1.0), at(1.11), false), Verdict::Worse);
        assert_eq!(judge(&lower, at(1.0), at(0.85), false), Verdict::Better);
        let higher = def("sim_tps", "tx/s", true, Some(0.10));
        assert_eq!(judge(&higher, at(100.0), at(89.0), false), Verdict::Worse);
        assert_eq!(judge(&higher, at(100.0), at(111.0), false), Verdict::Better);
        assert_eq!(
            judge(&higher, at(100.0), at(95.0), false),
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_noisy_baseline_is_unresolved_not_unchanged() {
        let d = def("host_cpu_s", "s", false, Some(0.10));
        let noisy = Some(Reading {
            value: 1.0,
            q1: 0.9,
            q3: 1.1,
        });
        assert_eq!(judge(&d, noisy, at(1.5), false), Verdict::Unresolved);
    }

    #[test]
    fn same_code_demands_exact_simulated_values_and_counts() {
        let sim = def("sim_tps", "tx/s", true, Some(0.10));
        assert_eq!(judge(&sim, at(100.0), at(100.0), true), Verdict::Identical);
        assert_eq!(
            judge(&sim, at(100.0), at(100.000_001), true),
            Verdict::Mismatch
        );
        // Without the flag the same pair is judged by its bound.
        assert_eq!(
            judge(&sim, at(100.0), at(100.000_001), false),
            Verdict::WithinBound
        );
        let count = def("simnet.events", "count", false, None);
        assert_eq!(judge(&count, at(5.0), at(6.0), true), Verdict::Mismatch);
        assert_eq!(judge(&count, at(5.0), at(6.0), false), Verdict::Reported);
        let time = def("rbc.handle_ns", "ns", false, None);
        assert_eq!(judge(&time, at(5.0), at(6.0), true), Verdict::Reported);
        // A metric one side lacks never passes.
        assert_eq!(judge(&time, at(5.0), None, false), Verdict::Mismatch);
    }

    /// What the writer emits, `compare` reads back: an [`Outcome`] goes
    /// through `to_json` → text → parser → verdicts.
    #[test]
    fn result_files_round_trip_through_compare() {
        use crate::bench::{Measured, Outcome};
        let spec = Spec {
            run_seconds: 1.0,
            workloads: vec!["w".to_string()],
            end_to_end: vec![
                def("sim_tps", "tx/s", true, Some(0.10)),
                def("host_cpu_s", "s", false, Some(0.10)),
            ],
            per_layer: vec![def("simnet.events", "count", false, None)],
        };
        let outcome = |metrics: &[(&str, &str, f64, f64, f64)]| Outcome {
            workload: "w".to_string(),
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: metrics
                .iter()
                .map(|&(name, unit, value, q1, q3)| {
                    let m = Measured {
                        value,
                        unit: unit.to_string(),
                        samples: 5,
                        q1,
                        q3,
                    };
                    (name.to_string(), m)
                })
                .collect(),
            violations: Vec::new(),
        };
        let file = |wall: f64, events: f64| {
            let e2e = outcome(&[
                (
                    "sim_tps",
                    "tx/s",
                    1_234.567_890_123,
                    1_234.567_890_123,
                    1_234.567_890_123,
                ),
                ("host_cpu_s", "s", wall, wall * 0.99, wall * 1.01),
            ]);
            let layers = outcome(&[("simnet.events", "count", events, events, events)]);
            let text = Json::obj([(
                "workloads",
                Json::obj([(
                    "w",
                    Json::obj([
                        ("end_to_end", e2e.to_json()),
                        ("per_layer", layers.to_json()),
                    ]),
                )]),
            )])
            .render();
            Json::parse(&text).expect("own output parses")
        };
        let (report, ok) = compare(&file(2.0, 500.0), &file(2.1, 500.0), &spec, true);
        assert!(ok, "{report}");
        assert!(report.contains("identical") && report.contains("within-bound"));
        // A count that moved fails a same-code comparison...
        let (report, ok) = compare(&file(2.0, 500.0), &file(2.0, 501.0), &spec, true);
        assert!(!ok && report.contains("MISMATCH"), "{report}");
        // ...and so does wall time beyond its bound, with or without the flag.
        let (report, ok) = compare(&file(2.0, 500.0), &file(2.3, 500.0), &spec, false);
        assert!(!ok && report.contains("WORSE"), "{report}");
        // A run that failed its audit never passes.
        let mut broken = file(2.0, 500.0);
        if let Json::Obj(root) = &mut broken {
            root.clear();
        }
        assert!(!compare(&file(2.0, 500.0), &broken, &spec, false).1);
    }
}
