//! Metric names, units and clocks, and the result line.

use std::collections::BTreeMap;

/// Which clock a figure is read from.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// Host wall-clock (`std::time::Instant`) or host process figures.
    Host,
    /// The simulator's deterministic cycle account.
    Model,
    /// A count or ratio of counts.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Model => "model",
            Clock::Count => "count",
        }
    }
}

/// The untraced run's metrics and units, as listed under `end_to_end`
/// in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("host_ns_per_op", "ns"),
    ("model_cycles_per_op", "cycles"),
    ("latency_p50_cycles", "cycles"),
    ("latency_p99_cycles", "cycles"),
    ("latency_p999_cycles", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The traced run's metrics and units, as listed under `per_layer` in
/// `BENCHMARK.json`. Every workload reports all of them; a layer the
/// workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("snp.rmpadjust_cycles_per_op", "cycles"),
    ("snp.pvalidate_cycles_per_op", "cycles"),
    ("snp.page_state_changes_per_op", "count"),
    ("hv.vmgexits_per_op", "count"),
    ("hv.domain_switches_per_op", "count"),
    ("hv.doorbells_per_op", "count"),
    ("hv.domain_switch_cycles_per_op", "cycles"),
    ("hv.enclave_exit_cycles_per_op", "cycles"),
    ("core.gate_requests_per_op", "count"),
    ("core.requests_per_doorbell", "count"),
    ("core.deferred_errors", "count"),
    ("os.syscalls_per_op", "count"),
    ("os.kernel_service_cycles_per_op", "cycles"),
    ("os.audit_failures", "count"),
    ("os.syscall_ns_per_op", "ns"),
    ("os.syscall_ns_p50", "ns"),
    ("os.syscall_ns_p99", "ns"),
    ("sdk.crossings_per_op", "count"),
    ("sdk.bytes_copied_per_op", "B"),
    ("sdk.syscall_copy_cycles_per_op", "cycles"),
    ("sdk.enter_exit_ns_per_op", "ns"),
    ("services.log_records_per_op", "count"),
    ("services.log_bytes_per_op", "B"),
    ("services.audit_log_cycles_per_op", "cycles"),
    ("services.log_dropped", "count"),
    ("workloads.compute_cycles_per_op", "cycles"),
    ("workloads.compute_ns_per_op", "ns"),
    ("fleet.service_cycles_per_req", "cycles"),
    ("fleet.queue_wait_cycles_per_req", "cycles"),
    ("fleet.relay_cycles_per_req", "cycles"),
    ("fleet.batch_stall_cycles_per_req", "cycles"),
    ("fleet.utilization", "ratio"),
    ("fleet.slo_miss_ratio", "ratio"),
    ("trace.overhead_ns_per_op", "ns"),
    ("metrics.overhead_ns_per_op", "ns"),
    ("setup.boot_ms", "ms"),
    ("setup.install_ms", "ms"),
    ("bench.traced_host_ns_per_op", "ns"),
    ("bench.unattributed_ns_per_op", "ns"),
    ("bench.span_overhead_pct", "%"),
];

/// Everything one invocation measured and checked.
#[derive(Debug)]
pub struct Report {
    /// Every output check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused or failed, in any layer.
    pub failed: u64,
    metrics: BTreeMap<&'static str, (f64, &'static str, Clock)>,
    order: Vec<&'static str>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            order: Vec::new(),
        }
    }

    /// Records one metric; a name may be set once.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, clock: Clock) {
        assert!(value.is_finite(), "{name} = {value} is not a finite number");
        let prev = self.metrics.insert(name, (value, unit, clock));
        assert!(prev.is_none(), "metric {name} set twice");
        self.order.push(name);
    }

    /// Records an output check; a failed one marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
            self.correct = false;
        }
    }

    /// Prints every metric as a readable line, then the result object
    /// (restricted to `table`) as the last line of standard output.
    pub fn print(&self, workload: &str, table: &[(&str, &str)]) {
        println!("workload {workload}");
        for name in &self.order {
            let (value, unit, clock) = self.metrics[name];
            println!("  {name:<34} {value:>18.4} {unit:<7} [{}]", clock.label());
        }
        let fields: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let (value, put_unit, _) =
                    self.metrics.get(name).unwrap_or_else(|| panic!("metric {name} not measured"));
                assert_eq!(*put_unit, unit, "unit of {name}");
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in one list of the spec.
    fn spec_list(key: &str) -> Vec<(String, String)> {
        let spec = include_str!("../../BENCHMARK.json");
        let start = spec.find(&format!("\"{key}\": [")).expect("list in spec");
        let list = &spec[start..start + spec[start..].find(']').expect("list end")];
        list.match_indices("{\"name\": \"")
            .map(|(at, m)| {
                let rest = &list[at + m.len()..];
                let name = &rest[..rest.find('"').expect("name end")];
                let unit_at = rest.find("\"unit\": \"").expect("unit") + "\"unit\": \"".len();
                let unit = &rest[unit_at..unit_at + rest[unit_at..].find('"').expect("unit end")];
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn tables_match_the_benchmark_spec() {
        assert_eq!(spec_list("end_to_end"), owned(END_TO_END));
        assert_eq!(spec_list("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(1e-7), "0.0000001");
    }
}
