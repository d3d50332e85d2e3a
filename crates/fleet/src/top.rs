//! `veiltop` — the fleet console: per-shard and per-tenant tables
//! rendered from veilstat gate-service snapshots and SLO ledgers.
//!
//! The renderer is a pure function of a [`FleetReport`], so the console
//! is as deterministic as the fleet itself: same seed, same screen. Each
//! per-shard row shows the shard id and deferred-error count that the
//! shard's *trusted side* served through the veilstat gate service
//! ([`crate::shard::ShardReport::stat_snapshot`]) — the console reads
//! what the protected service answered, not what the load generator
//! believes.
//!
//! Wired up as `inspect veiltop`.

use crate::report::FleetReport;
use veil_snp::trace::Component;

/// Pulls the value of the first series of `metric` out of a veilstat
/// JSON snapshot (counters and gauges both; the exporter emits
/// `{"metric": "...", ..., "value": N}` objects). Returns `None` when
/// the metric never fired.
pub fn snapshot_value(snapshot: &str, metric: &str) -> Option<u64> {
    let needle = format!("{{\"metric\": \"{metric}\"");
    let obj = &snapshot[snapshot.find(&needle)?..];
    let obj = &obj[..obj.find('}')?];
    let at = obj.find("\"value\": ")?;
    obj[at + "\"value\": ".len()..].trim().parse().ok()
}

fn pct(share: f64) -> String {
    format!("{:.1}%", share * 100.0)
}

/// Renders the console: fleet summary, critical-path attribution,
/// per-shard table, and the top-K SLO offender table.
pub fn render(r: &FleetReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "veiltop — {} shards, {} tenants, {} reqs | makespan {} cycles | {:.0} ops/s\n",
        r.shards.len(),
        r.total_tenants,
        r.total_ops,
        r.makespan_cycles,
        r.aggregate_ops_per_sec()
    ));
    out.push_str(&format!(
        "slo {} cycles | breaches {}/{} | burn rate {:.2}x budget\n",
        r.slo.slo_cycles,
        r.slo.breaches(),
        r.slo.requests(),
        r.slo.burn_rate()
    ));
    out.push_str("critical path: ");
    let parts: Vec<String> = Component::ALL
        .iter()
        .map(|&c| format!("{} {}", c.label(), pct(r.attribution.share(c))))
        .collect();
    out.push_str(&parts.join(" | "));
    out.push_str(&format!(
        "\ntail (> p99 = {} cycles): {} reqs, dominated by {}\n\n",
        r.tail.threshold_cycles,
        r.tail.requests,
        r.tail.dominant_component().label()
    ));

    out.push_str(&format!(
        "{:>5} {:>7} {:>7} {:>9} {:>9} {:>8} {:>11} {:>11}\n",
        "shard", "tenants", "ops", "doorbell", "switches", "deferr", "lat p50", "lat p99"
    ));
    for s in &r.shards {
        // Shard id and deferred-error count come from the snapshot the
        // shard's veilstat service served over the gate, not from the
        // harness; a shard whose snapshot lacks its id shows `?`.
        let served_shard = snapshot_value(&s.stat_snapshot, "fleet_shard")
            .map_or_else(|| "?".to_string(), |id| id.to_string());
        let deferred = snapshot_value(&s.stat_snapshot, "gate_deferred_errors_total").unwrap_or(0);
        out.push_str(&format!(
            "{:>5} {:>7} {:>7} {:>9} {:>9} {:>8} {:>11} {:>11}\n",
            served_shard,
            s.tenants,
            s.ops,
            s.doorbells,
            s.domain_switches,
            deferred,
            s.latency.percentile(50.0),
            s.latency.percentile(99.0),
        ));
    }

    out.push_str(&format!(
        "\n{:>7} {:>7} {:>9} {:>13} — top SLO offenders\n",
        "tenant", "reqs", "breaches", "worst cycles"
    ));
    for o in r.slo.top_offenders(8) {
        out.push_str(&format!(
            "{:>7} {:>7} {:>9} {:>13}\n",
            o.tenant, o.requests, o.breaches, o.worst_cycles
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_value_scans_counters_and_gauges() {
        let snap = "{\n  \"counters\": [{\"metric\": \"gate_deferred_errors_total\", \
                    \"domain\": \"all\", \"op\": \"\", \"value\": 7}],\n  \"gauges\": \
                    [{\"metric\": \"fleet_shard\", \"domain\": \"all\", \"op\": \"id\", \
                    \"value\": 3}]\n}";
        assert_eq!(snapshot_value(snap, "gate_deferred_errors_total"), Some(7));
        assert_eq!(snapshot_value(snap, "fleet_shard"), Some(3));
        assert_eq!(snapshot_value(snap, "missing_metric"), None);
    }

    #[test]
    fn render_shows_shards_offenders_and_attribution() {
        let cfg = crate::FleetConfig {
            tenants: 4,
            shards: 2,
            requests_per_tenant: 3,
            mean_interarrival_cycles: 50_000,
            ..crate::FleetConfig::default()
        };
        let report = crate::run_fleet(&cfg);
        let screen = render(&report);
        assert!(screen.contains("veiltop — 2 shards, 4 tenants"), "{screen}");
        assert!(screen.contains("critical path: queue_wait"), "{screen}");
        assert!(screen.contains("top SLO offenders"), "{screen}");
        // One row per shard, each echoing the veilstat-served shard id.
        for s in &report.shards {
            assert_eq!(
                snapshot_value(&s.stat_snapshot, "fleet_shard"),
                Some(u64::from(s.shard)),
                "veilstat snapshot must carry the shard id"
            );
        }
        // Deterministic: same report, same screen.
        assert_eq!(screen, render(&report));
        // The shard column shows the id veilstat served, `?` for none.
        let mut swapped = report.clone();
        swapped.shards[1].stat_snapshot = std::mem::take(&mut swapped.shards[0].stat_snapshot);
        let screen = render(&swapped);
        let ids: Vec<&str> = screen
            .lines()
            .skip_while(|l| !l.starts_with("shard"))
            .skip(1)
            .take(2)
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(ids, ["?", "0"], "{screen}");
    }
}
