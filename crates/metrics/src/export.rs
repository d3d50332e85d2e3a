//! Exporters: Prometheus text exposition, a digestable JSON snapshot, and
//! (via [`crate::SpanProfiler::folded`]) folded stacks for flamegraphs.
//!
//! Every exporter walks `BTreeMap`-ordered series, so output bytes are a
//! pure function of the recorded metrics — the JSON snapshot's SHA-256
//! digest is pinnable exactly like a golden trace digest.

use crate::hist::{bucket_lower, Histogram, BUCKETS};
use crate::registry::{domain_label, MetricsRegistry};
use crate::span::SpanProfiler;
use veil_crypto::sha256::{hex, Sha256};

/// Renders the registry and profiler in the Prometheus text exposition
/// format (version 0.0.4). Metric names are prefixed `veil_`; histogram
/// buckets are cumulative with `le` set to each bucket's inclusive upper
/// bound.
pub fn prometheus(registry: &MetricsRegistry, spans: &SpanProfiler) -> String {
    let mut out = String::new();
    let mut last_type: Option<(&str, &str)> = None;
    let mut type_line = |out: &mut String, metric: &'static str, kind: &'static str| {
        if last_type != Some((metric, kind)) {
            out.push_str("# TYPE veil_");
            out.push_str(metric);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            last_type = Some((metric, kind));
        }
    };

    for (key, value) in registry.counters() {
        type_line(&mut out, key.metric, "counter");
        push_series(&mut out, key.metric, "", key.domain, key.op, &[], value.to_string());
    }
    for (key, value) in registry.gauges() {
        type_line(&mut out, key.metric, "gauge");
        push_series(&mut out, key.metric, "", key.domain, key.op, &[], value.to_string());
    }
    for (key, hist) in registry.histograms() {
        type_line(&mut out, key.metric, "histogram");
        // The top bucket's bound is `+Inf`, which the total line carries.
        let mut cumulative = 0u64;
        for (i, &count) in hist.buckets()[..BUCKETS - 1].iter().enumerate() {
            if count == 0 {
                continue;
            }
            cumulative += count;
            let le = (bucket_lower(i + 1) - 1).to_string();
            push_series(
                &mut out,
                key.metric,
                "_bucket",
                key.domain,
                key.op,
                &[("le", &le)],
                cumulative.to_string(),
            );
        }
        push_series(
            &mut out,
            key.metric,
            "_bucket",
            key.domain,
            key.op,
            &[("le", "+Inf")],
            hist.count().to_string(),
        );
        push_series(&mut out, key.metric, "_sum", key.domain, key.op, &[], hist.sum().to_string());
        push_series(
            &mut out,
            key.metric,
            "_count",
            key.domain,
            key.op,
            &[],
            hist.count().to_string(),
        );
    }

    if !spans.is_empty() {
        out.push_str("# TYPE veil_span_self_cycles counter\n");
        for (path, domain, stat) in spans.stats() {
            push_span(&mut out, "span_self_cycles", path, domain, stat.self_cycles);
        }
        out.push_str("# TYPE veil_span_total_cycles counter\n");
        for (path, domain, stat) in spans.stats() {
            push_span(&mut out, "span_total_cycles", path, domain, stat.total_cycles);
        }
        out.push_str("# TYPE veil_span_count counter\n");
        for (path, domain, stat) in spans.stats() {
            push_span(&mut out, "span_count", path, domain, stat.count);
        }
    }
    out
}

fn push_series(
    out: &mut String,
    metric: &str,
    suffix: &str,
    domain: u8,
    op: &str,
    extra: &[(&str, &str)],
    value: String,
) {
    out.push_str("veil_");
    out.push_str(metric);
    out.push_str(suffix);
    out.push_str("{domain=\"");
    out.push_str(domain_label(domain));
    out.push('"');
    if !op.is_empty() {
        out.push_str(",op=\"");
        out.push_str(&label_escape(op));
        out.push('"');
    }
    for (k, v) in extra {
        out.push(',');
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&label_escape(v));
        out.push('"');
    }
    out.push_str("} ");
    out.push_str(&value);
    out.push('\n');
}

fn push_span(out: &mut String, metric: &str, path: &str, domain: u8, value: u64) {
    out.push_str("veil_");
    out.push_str(metric);
    out.push_str("{domain=\"");
    out.push_str(domain_label(domain));
    out.push_str("\",path=\"");
    out.push_str(&label_escape(path));
    out.push_str("\"} ");
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Serializes the registry and profiler as one deterministic JSON
/// document. Same metrics → same bytes → same [`snapshot_digest_hex`],
/// which is what the golden snapshot test pins.
pub fn json_snapshot(registry: &MetricsRegistry, spans: &SpanProfiler) -> String {
    let mut out = String::from("{\n  \"counters\": [");
    let mut first = true;
    for (key, value) in registry.counters() {
        sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"metric\": \"{}\", \"domain\": \"{}\", \"op\": \"{}\", \"value\": {}}}",
            key.metric,
            domain_label(key.domain),
            json_escape(key.op),
            value
        ));
    }
    out.push_str("],\n  \"gauges\": [");
    first = true;
    for (key, value) in registry.gauges() {
        sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"metric\": \"{}\", \"domain\": \"{}\", \"op\": \"{}\", \"value\": {}}}",
            key.metric,
            domain_label(key.domain),
            json_escape(key.op),
            value
        ));
    }
    out.push_str("],\n  \"histograms\": [");
    first = true;
    for (key, hist) in registry.histograms() {
        sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"metric\": \"{}\", \"domain\": \"{}\", \"op\": \"{}\", {}}}",
            key.metric,
            domain_label(key.domain),
            json_escape(key.op),
            hist_json(hist)
        ));
    }
    out.push_str("],\n  \"spans\": [");
    first = true;
    for (path, domain, stat) in spans.stats() {
        sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"path\": \"{}\", \"domain\": \"{}\", \"count\": {}, \"total_cycles\": {}, \
             \"self_cycles\": {}, \"p50\": {}, \"p99\": {}}}",
            json_escape(path),
            domain_label(domain),
            stat.count,
            stat.total_cycles,
            stat.self_cycles,
            stat.durations.percentile(50.0),
            stat.durations.percentile(99.0)
        ));
    }
    out.push_str("]\n}\n");
    out
}

/// The percentile/summary fields of one histogram as a JSON fragment
/// (`"count": .., "sum": .., .., "buckets": [[lower, count], ..]`).
pub fn hist_json(hist: &Histogram) -> String {
    let buckets: Vec<String> =
        hist.nonzero_buckets().map(|(lo, c)| format!("[{lo}, {c}]")).collect();
    format!(
        "\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p99\": {}, \
         \"p999\": {}, \"buckets\": [{}]",
        hist.count(),
        hist.sum(),
        hist.min(),
        hist.max(),
        hist.percentile(50.0),
        hist.percentile(99.0),
        hist.percentile(99.9),
        buckets.join(", ")
    )
}

/// SHA-256 of `snapshot` (normally the output of [`json_snapshot`]) as
/// lowercase hex — the value golden snapshot tests pin.
pub fn snapshot_digest_hex(snapshot: &str) -> String {
    hex(&Sha256::digest(snapshot.as_bytes()))
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(", ");
    }
}

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash, double quote, and newline are the only characters with
/// escape sequences; everything else passes through verbatim. Without
/// this a hostile workload/op label (`evil"} 1`) would forge series.
pub fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Key, DOMAIN_NONE};
    use veil_trace::{exit_code, Event};

    fn sample() -> (MetricsRegistry, SpanProfiler) {
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.observe_event(
            100,
            &Event::VmgExit {
                vcpu: 0,
                vmpl: 3,
                code: exit_code::IO,
                user_ghcb: false,
                automatic: false,
            },
        );
        reg.observe_event(2100, &Event::VmEnter { vcpu: 0, vmpl: 3 });
        let mut spans = SpanProfiler::new();
        spans.set_enabled(true);
        spans.enter("gate.request", 3, 0);
        spans.exit("gate.request", 7135);
        (reg, spans)
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let (reg, spans) = sample();
        let text = prometheus(&reg, &spans);
        assert!(text.contains("# TYPE veil_events_total counter"));
        assert!(text.contains("veil_events_total{domain=\"vmpl3\",op=\"vmgexit\"} 1"));
        assert!(text.contains("# TYPE veil_relay_cycles histogram"));
        assert!(text.contains("veil_relay_cycles_count{domain=\"vmpl3\",op=\"io\"} 1"));
        assert!(text.contains("veil_relay_cycles_sum{domain=\"vmpl3\",op=\"io\"} 2000"));
        assert!(text.contains("le=\"+Inf\"} 1"));
        assert!(text.contains("veil_span_self_cycles{domain=\"vmpl3\",path=\"gate.request\"} 7135"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("series and value");
            assert!(series.starts_with("veil_") && series.ends_with('}'), "{line}");
            assert!(value == "+Inf" || value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        let key = Key::new("h", DOMAIN_NONE, "");
        reg.record_hist(key, 10);
        reg.record_hist(key, 10_000);
        let text = prometheus(&reg, &SpanProfiler::new());
        let bucket_counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("veil_h_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert_eq!(bucket_counts, vec![1, 2, 2], "two buckets plus +Inf, cumulative");

        // A sample in the top bucket, whose upper bound is +Inf, must not
        // emit a second `le="+Inf"` sample for the series.
        reg.record_hist(key, u64::MAX);
        let text = prometheus(&reg, &SpanProfiler::new());
        let buckets: Vec<&str> = text.lines().filter(|l| l.starts_with("veil_h_bucket")).collect();
        let counts: Vec<u64> =
            buckets.iter().map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap()).collect();
        assert_eq!(buckets.iter().filter(|l| l.contains("le=\"+Inf\"")).count(), 1, "{text}");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "cumulative: {counts:?}");
        assert_eq!(counts, vec![1, 2, 3], "{text}");
    }

    #[test]
    fn json_snapshot_digest_is_stable_and_input_sensitive() {
        let (reg, spans) = sample();
        let a = json_snapshot(&reg, &spans);
        let b = json_snapshot(&reg, &spans);
        assert_eq!(a, b);
        assert_eq!(snapshot_digest_hex(&a), snapshot_digest_hex(&b));
        let (reg2, _) = sample();
        let mut reg2 = reg2;
        reg2.inc_counter(Key::new("extra", DOMAIN_NONE, ""), 1);
        assert_ne!(
            snapshot_digest_hex(&json_snapshot(&reg2, &spans)),
            snapshot_digest_hex(&a),
            "different metrics must produce a different digest"
        );
    }

    #[test]
    fn json_snapshot_has_all_sections() {
        let (reg, spans) = sample();
        let json = json_snapshot(&reg, &spans);
        for section in ["\"counters\"", "\"gauges\"", "\"histograms\"", "\"spans\""] {
            assert!(json.contains(section), "missing {section}");
        }
        assert!(json.contains("\"p999\""));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn label_escape_handles_specials() {
        assert_eq!(label_escape("plain"), "plain");
        assert_eq!(label_escape("a\"b"), "a\\\"b");
        assert_eq!(label_escape("a\\b"), "a\\\\b");
        assert_eq!(label_escape("a\nb"), "a\\nb");
    }

    #[test]
    fn hostile_label_values_cannot_forge_series() {
        // An op label built to close the series and inject a fake one.
        let hostile: &'static str = "evil\"} 1\nveil_forged_total{domain=\"all\"";
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.inc_counter(Key::new("tenant_requests_total", DOMAIN_NONE, hostile), 1);
        reg.record_hist(Key::new("tenant_latency", DOMAIN_NONE, hostile), 7135);
        let text = prometheus(&reg, &SpanProfiler::new());
        assert!(
            !text.lines().any(|l| l.starts_with("veil_forged_total")),
            "injected series must not appear:\n{text}"
        );
        // Every non-comment line still parses as `name{labels} value`,
        // with the hostile bytes confined to an escaped label value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("series and value");
            assert!(series.starts_with("veil_") && series.ends_with('}'), "{line}");
            assert!(value == "+Inf" || value.parse::<f64>().is_ok(), "{line}");
        }
        assert!(text.contains("evil\\\"} 1\\nveil_forged_total"), "escaped value preserved");
        // The JSON snapshot stays parseable too: the quote is escaped.
        let json = json_snapshot(&reg, &SpanProfiler::new());
        assert!(json.contains("evil\\\"} 1\\nveil_forged_total"), "{json}");
    }
}
