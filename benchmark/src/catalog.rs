//! The metric catalog: every metric the benchmark prints, with its unit,
//! its better direction and, for end-to-end metrics, the bound by which
//! a median may worsen before a change counts as a regression.
//! `BENCHMARK.json` at the repository root mirrors these lists; a test
//! keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median a metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn unbounded(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Printed by every untraced run, on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("campaign_s", "s", Lower, 0.25),
    e2e("cells_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// Printed by every traced run, on every workload; a layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    unbounded("data.generate_s", "s", Lower),
    unbounded("data.generate_calls", "count", Lower),
    unbounded("snn.train_s", "s", Lower),
    unbounded("snn.assign_s", "s", Lower),
    unbounded("snn.eval_s", "s", Lower),
    unbounded("snn.presentations", "count", Lower),
    unbounded("snn.us_per_step", "us", Lower),
    unbounded("core.baseline_s", "s", Lower),
    unbounded("core.plan_s", "s", Lower),
    unbounded("core.cell_s_p50", "s", Lower),
    unbounded("core.cell_s_max", "s", Lower),
    unbounded("core.pool_busy_fraction", "ratio", Higher),
    unbounded("analog.transients", "count", Lower),
    unbounded("analog.build_s", "s", Lower),
    unbounded("analog.transfer_table_s", "s", Lower),
    unbounded("spice.tran_s", "s", Lower),
    unbounded("spice.newton_iterations", "count", Lower),
    unbounded("spice.accepted_steps", "count", Lower),
    unbounded("spice.rejected_steps", "count", Lower),
    unbounded("spice.us_per_newton", "us", Lower),
    unbounded("solver.refactorizations", "count", Lower),
    unbounded("solver.solves", "count", Lower),
    unbounded("solver.fill_ratio", "ratio", Lower),
    unbounded("solver.full_factorizations", "count", Lower),
    unbounded("dist.submit_ms", "ms", Lower),
    unbounded("dist.status_ms", "ms", Lower),
    unbounded("dist.polls_per_submit", "count", Lower),
    unbounded("dist.wire_bytes_per_cell", "B", Lower),
    unbounded("dist.codec_us_per_cell", "us", Lower),
    unbounded("dist.overhead_ms_per_cell", "ms", Lower),
    unbounded("store.put_us", "us", Lower),
    unbounded("store.get_us", "us", Lower),
    unbounded("store.hit_ratio", "ratio", Higher),
    unbounded("store.open_s", "s", Lower),
    unbounded("store.bytes_per_cell", "B", Lower),
    unbounded("data.self_s", "s", Lower),
    unbounded("snn.self_s", "s", Lower),
    unbounded("core.self_s", "s", Lower),
    unbounded("analog.self_s", "s", Lower),
    unbounded("spice.self_s", "s", Lower),
    unbounded("dist.self_s", "s", Lower),
    unbounded("dist.self_s_excl_status", "s", Lower),
    unbounded("store.self_s", "s", Lower),
    unbounded("bench.trace_overhead_s", "s", Lower),
];

/// Reported beside the gated metrics (results file and stderr) but not
/// in the result line: they exist on one workload only, read 0
/// on a healthy run, or describe the host rather than the program, and
/// every gated metric must exist and be non-zero on every workload.
pub const EXTRA: &[Metric] = &[
    unbounded("cold_submit_ms_p50", "ms", Lower),
    unbounded("cold_submit_ms_p90", "ms", Lower),
    unbounded("warm_submit_ms_p50", "ms", Lower),
    unbounded("warm_submit_ms_p90", "ms", Lower),
    unbounded("cold_submits", "count", Higher),
    unbounded("warm_submits", "count", Higher),
    unbounded("error_rate", "ratio", Lower),
    unbounded("host_steal_fraction", "ratio", Lower),
    unbounded("replay_ratio", "ratio", Lower),
];

/// The workloads, in `BENCHMARK.json` order (the reasons for each are
/// there and in the README).
pub const WORKLOADS: &[&str] = &["fig8-sweep", "layer-vdd", "service-mix"];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(EXTRA)
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).chain(EXTRA).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    /// `BENCHMARK.json` lists exactly the catalog's workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_mirrors_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let want =
            |list: &[Metric]| -> Vec<String> { list.iter().map(|m| m.name.to_string()).collect() };
        assert_eq!(names("end_to_end"), want(END_TO_END));
        assert_eq!(names("per_layer"), want(PER_LAYER));
        assert_eq!(names("workloads"), WORKLOADS);
        for key in ["end_to_end", "per_layer"] {
            for m in json.get(key).and_then(Json::as_array).expect(key) {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let spec = find(name).expect("catalogued");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(spec.unit));
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(spec.better.name())
                );
                assert_eq!(m.get("bound").and_then(Json::as_f64), spec.bound);
            }
        }
    }
}
