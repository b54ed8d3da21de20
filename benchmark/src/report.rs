//! Metric names and units, in one place: `BENCHMARK.json` lists the
//! same ones (a test compares them), and a run prints each by name with
//! its unit before the one-line result the driver reads.

/// The end-to-end metrics, measured with tracing off. The issue asked
/// for three more — `lat_p50_us`, `lat_p99_us`, `cpu_us_per_req`. On the
/// durable workload their run-to-run spread is beyond any bound the
/// benchmark may set (the sandbox's fsync, see README), and a metric is
/// gated on every workload or on none: every run prints them, and they
/// are listed with the layers (`loadgen.lat_*`, `proc.cpu_us_per_req`).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("sat_rps", "1/s"), ("peak_rss_mb", "MB")];

/// The layer ledger of a traced run. Prefix = layer = module.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("loadgen.late_p99_us", "us"),
    ("loadgen.lat_p50_us", "us"),
    ("loadgen.lat_p99_us", "us"),
    ("loadgen.lat_p999_us", "us"),
    ("wire.encode_req_ns", "ns"),
    ("wire.decode_req_ns", "ns"),
    ("wire.encode_resp_ns", "ns"),
    ("wire.decode_resp_ns", "ns"),
    ("wire.req_bytes", "B"),
    ("wire.resp_bytes", "B"),
    ("net.inbound_p50_us", "us"),
    ("net.inbound_p99_us", "us"),
    ("net.outbound_p50_us", "us"),
    ("net.outbound_p99_us", "us"),
    ("server.served", "count"),
    ("server.shed_queue", "count"),
    ("server.shed_inflight", "count"),
    ("server.dropped_replies", "count"),
    ("server.protocol_errors", "count"),
    ("proc.cpu_us_per_req", "us"),
    ("proc.rw_syscalls_per_req", "1/req"),
    ("proc.ctx_switches_per_req", "1/req"),
    ("service.call_p50_us", "us"),
    ("service.call_p99_us", "us"),
    ("orm.save_p50_us", "us"),
    ("orm.save_p99_us", "us"),
    ("orm.validate_p50_us", "us"),
    ("orm.write_p50_us", "us"),
    ("orm.find_ns", "ns"),
    ("orm.create_ns", "ns"),
    ("orm.probes_per_create", "1/req"),
    ("orm.invalid_rejects", "count"),
    ("orm.duplicate_rows", "count"),
    ("db.point_read_ns", "ns"),
    ("db.probe_limit1_ns", "ns"),
    ("db.scans_per_req", "1/req"),
    ("db.index_probe_ratio", "ratio"),
    ("commit.p50_us", "us"),
    ("commit.p99_us", "us"),
    ("commit.commits", "count"),
    ("commit.aborts", "count"),
    ("commit.abort_ratio", "ratio"),
    ("commit.serialization_failures", "count"),
    ("commit.write_conflicts", "count"),
    ("commit.lock_timeouts", "count"),
    ("commit.shard_conflicts", "count"),
    ("wal.appends", "count"),
    ("wal.flushes", "count"),
    ("wal.records_per_flush", "ratio"),
    ("wal.bytes_per_commit", "B"),
    ("wal.append_sync_us", "us"),
    ("wal.recovery_ms", "ms"),
    ("wal.replayed_records", "count"),
    ("plan.failsafe_escalations", "count"),
    ("planner.anomalies", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.untiled_requests", "count"),
];

/// The metrics of one run, printed as they are set.
#[derive(Default)]
pub struct Report {
    values: Vec<(String, f64)>,
}

impl Report {
    /// Record and print a metric of either list.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("`{name}` is in neither metric list"));
        println!("{name:<32} {value:>16.4} {unit}");
        self.values.push((name.to_string(), value));
    }

    /// Record and print a timing with the sample count it rests on.
    pub fn set_sampled(&mut self, name: &str, value: f64, samples: usize) {
        self.set(name, value);
        println!("{:<32} {samples:>16} samples", format!("  {name}.n"));
    }

    /// Print a diagnostic that is in neither list and not gated.
    pub fn note(&self, name: &str, value: f64, unit: &str) {
        println!("{:<32} {value:>16.4} {unit}  (diagnostic)", name);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: every metric of `list`,
    /// 0 for a layer the workload does not have.
    pub fn metrics_json(&self, list: &[(&str, &str)]) -> String {
        let body: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The one-line result the driver reads, last on standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_trace::json::{parse, Json};

    #[test]
    fn result_line_is_json_with_exactly_the_contract_keys() {
        let mut report = Report::default();
        report.set("sat_rps", 1234.5678);
        report.set("setup_s", 0.25);
        let line = result_line(true, 10, 0, &report.metrics_json(&END_TO_END));
        let Json::Obj(pairs) = parse(&line).unwrap() else {
            panic!("an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = &pairs[3].1 else {
            panic!("an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let sat = metrics.iter().find(|(k, _)| k == "sat_rps").unwrap();
        assert_eq!(sat.1.get("value").and_then(Json::as_f64), Some(1234.5678));
        assert_eq!(sat.1.get("unit").and_then(Json::as_str), Some("1/s"));
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let names: Vec<String> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let own_names: Vec<&str> = crate::stack::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, own_names);
    }
}
