//! Metrics-invariant suite for the `veil-metrics` tentpole:
//!
//! * histogram bucket assignment depends only on the sample multiset
//!   (permutation-invariant), and merge is commutative and associative;
//! * every histogram percentile lies in `[min, max]` and at most 1/16
//!   below the exact nearest-rank sample, over random samples and over
//!   the `relay_cycles` series rebuilt from a run's trace;
//! * the JSON snapshot digest is bit-stable across same-seed replays of
//!   the same workload (fresh CVM each time);
//! * the http workload produces golden-pinned snapshot digests, plain and
//!   audited over the batched gate (`tests/goldens/metrics_*.digest`), and
//!   well-formed folded-stack lines;
//! * metrics collection is observationally inert: the trace digest,
//!   cycle account, and hypervisor stats of a metrics-on run are
//!   bit-identical to its metrics-off twin, both for plain http and for
//!   http audited over the batched gate;
//! * the slot-indexed registry and the interned span profiler export
//!   exactly what a naive string-keyed reference model exports, under
//!   random event, custom-series, re-enable and span streams.

use std::collections::BTreeMap;
use std::path::Path;
use veil::metrics::export::{hist_json, json_snapshot, label_escape, prometheus};
use veil::metrics::{
    bucket_lower, domain_label, exit_code_label, nearest_rank, Histogram, Key, MetricsRegistry,
    SpanProfiler, SpanStat, BUCKETS, DOMAIN_NONE,
};
use veil::prelude::*;
use veil::trace::{exit_code, Event, EventCounters};
use veil_testkit::golden;
use veil_testkit::rng::TestRng;
use veil_testkit::{prop, prop_assert, prop_assert_eq};
use veil_workloads::driver::KernelDriver;
use veil_workloads::http::HttpWorkload;
use veil_workloads::Workload;

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// Samples spanning the full dynamic range: tiny latencies, the 7,135-cycle
/// switch neighborhood, and huge outliers all in one strategy.
fn samples() -> prop::Strategy<Vec<u64>> {
    let value =
        prop::one_of(vec![prop::u64s(0..16), prop::u64s(4_000..10_000), prop::u64s(0..u64::MAX)]);
    prop::vecs(value, 0..40)
}

#[test]
fn bucket_counts_are_permutation_invariant() {
    let rotated = prop::tuple2(samples(), prop::usizes(0..64));
    prop::check("bucket_counts_are_permutation_invariant", 200, &rotated, |(xs, rot)| {
        let mut reversed = xs.clone();
        reversed.reverse();
        let mut rotated = xs.clone();
        if !rotated.is_empty() {
            rotated.rotate_left(rot % xs.len().max(1));
        }
        let (a, b, c) = (hist_of(&xs), hist_of(&reversed), hist_of(&rotated));
        prop_assert_eq!(a.buckets(), b.buckets());
        prop_assert_eq!(a.buckets(), c.buckets());
        prop_assert_eq!(a.percentile(50.0), b.percentile(50.0));
        prop_assert_eq!(a.percentile(99.9), c.percentile(99.9));
        prop_assert_eq!(
            (a.count(), a.sum(), a.min(), a.max()),
            (b.count(), b.sum(), b.min(), b.max())
        );
        Ok(())
    });
}

/// Checks one reported percentile against the exact nearest-rank sample
/// `exact` of the same data: inside `[min, max]`, never above `exact`, and
/// at most `exact / 16` below it.
fn within_a_sixteenth(got: u64, exact: u64, min: u64, max: u64) -> Result<(), String> {
    if min <= got && got <= exact && exact <= max && u128::from(exact - got) * 16 <= exact.into() {
        Ok(())
    } else {
        Err(format!("percentile {got} vs exact {exact} in [{min}, {max}]"))
    }
}

#[test]
fn histogram_percentiles_are_within_a_sixteenth_of_exact() {
    let cases = prop::tuple2(samples(), prop::u64s(0..100_001));
    prop::check(
        "histogram_percentiles_are_within_a_sixteenth_of_exact",
        1000,
        &cases,
        |(xs, p)| {
            let h = hist_of(&xs);
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            for p in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0, p as f64 / 1000.0] {
                if sorted.is_empty() {
                    prop_assert_eq!(h.percentile(p), 0);
                    continue;
                }
                let exact = sorted[nearest_rank(sorted.len(), p) - 1];
                within_a_sixteenth(h.percentile(p), exact, h.min(), h.max())
                    .map_err(|e| format!("p{p} of {} samples: {e}", sorted.len()))?;
            }
            Ok(())
        },
    );
}

#[test]
fn histogram_merge_is_commutative_and_associative() {
    let triple = prop::tuple3(samples(), samples(), samples());
    prop::check("histogram_merge_is_commutative_and_associative", 200, &triple, |(x, y, z)| {
        let (a, b, c) = (hist_of(&x), hist_of(&y), hist_of(&z));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Merging equals recording the concatenation.
        let concat: Vec<u64> = x.iter().chain(y.iter()).chain(z.iter()).copied().collect();
        prop_assert_eq!(&ab_c, &hist_of(&concat));
        Ok(())
    });
}

/// Boots a metrics-on CVM and runs `n` http requests unshielded.
fn http_metrics_cvm(n: usize) -> Cvm {
    let mut cvm = CvmBuilder::new().frames(2048).vcpus(1).metrics(true).build().unwrap();
    let pid = cvm.spawn();
    let mut driver = KernelDriver { cvm: &mut cvm, pid };
    HttpWorkload::nginx(n).run(&mut driver).unwrap();
    cvm
}

#[test]
fn snapshot_digest_is_stable_across_replays() {
    // The whole pipeline — event stream, registry folds, span profiler,
    // JSON rendering — must be a pure function of the workload. Replay
    // the same random-size workload in a fresh CVM and require
    // bit-identical snapshots.
    prop::check("snapshot_digest_is_stable_across_replays", 6, &prop::usizes(1..12), |n| {
        let first = http_metrics_cvm(n);
        let second = http_metrics_cvm(n);
        prop_assert_eq!(first.metrics_snapshot(), second.metrics_snapshot());
        prop_assert_eq!(first.metrics_digest_hex(), second.metrics_digest_hex());
        prop_assert!(!first.metrics().is_empty(), "workload must populate the registry");
        Ok(())
    });
}

#[test]
fn http_workload_folded_stacks_are_well_formed() {
    let cvm = http_metrics_cvm(25);
    let folded = cvm.spans().folded();
    assert!(!folded.is_empty(), "http workload must complete spans");
    for line in folded.lines() {
        let (stack, weight) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("no weight separator: {line:?}"));
        assert!(weight.parse::<u64>().is_ok(), "weight must be integer cycles: {line:?}");
        let mut frames = stack.split(';');
        let root = frames.next().unwrap();
        assert!(
            matches!(root, "vmpl0" | "vmpl1" | "vmpl2" | "vmpl3" | "all"),
            "root frame must be a domain label: {line:?}"
        );
        let mut rest = 0;
        for frame in frames {
            rest += 1;
            assert!(!frame.is_empty(), "empty frame in {line:?}");
            assert!(
                frame.chars().all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_'),
                "frame has characters flamegraph.pl would misparse: {line:?}"
            );
        }
        assert!(rest > 0, "stack must have at least one frame under the domain: {line:?}");
    }
}

/// Checks a metrics snapshot digest against `tests/goldens/<name>.digest`
/// (regenerate with `VEIL_REGEN_GOLDEN=1`).
fn assert_digest_golden(name: &str, digest: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(name);
    golden::assert_matches(name, &path, &format!("{digest}\n"));
}

#[test]
fn http_workload_snapshot_digest_matches_golden() {
    // Golden pin: the deterministic snapshot of `HttpWorkload::nginx(25)`
    // on a 2048-frame single-VCPU CVM. This digest changes whenever the
    // event stream, cost model, bucket layout, span set, or JSON shape
    // changes — all of which are intentional, reviewable events.
    let cvm = http_metrics_cvm(25);
    assert_digest_golden("metrics_http.digest", &cvm.metrics_digest_hex());
}

/// Runs `HttpWorkload::nginx(25)` on a traced 2048-frame single-VCPU
/// CVM. `audited` audits to VeilS-LOG over the batched gate (pinned, so
/// `VEIL_NO_BATCH` cannot turn it off), where metrics observe doorbell
/// drains, ring depths and occupancy-scaled relay costs.
fn http_traced_cvm(metrics: bool, audited: bool) -> Cvm {
    let builder = CvmBuilder::new().frames(2048).vcpus(1).trace(true).metrics(metrics);
    let mut cvm = if audited { builder.batch(true) } else { builder }.build().unwrap();
    if audited {
        cvm.kernel.audit.mode = veil_os::audit::AuditMode::VeilLog;
        cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
    }
    let pid = cvm.spawn();
    let mut driver = KernelDriver { cvm: &mut cvm, pid };
    HttpWorkload::nginx(25).run(&mut driver).unwrap();
    cvm.flush_gate().unwrap();
    cvm
}

#[test]
fn audited_batched_snapshot_digest_matches_golden() {
    // Second golden pin, covering the series the plain run never fills:
    // `ring_depth`, doorbell `relay_cycles` and `domain_switch_total`.
    let cvm = http_traced_cvm(true, true);
    let snapshot = cvm.metrics_snapshot();
    for series in ["\"ring_depth\"", "\"relay_cycles\"", "\"domain_switch_total\""] {
        assert!(snapshot.contains(series), "golden run lost the {series} series");
    }
    assert_digest_golden("metrics_audited_batched_http.digest", &cvm.metrics_digest_hex());
}

/// The value of `"field": <value>` in one flat JSON object of the
/// snapshot: a string's contents, or a number's digits.
fn json_field<'a>(row: &'a str, field: &str) -> &'a str {
    let key = format!("\"{field}\": ");
    let at = row.find(&key).unwrap_or_else(|| panic!("no {field} in {row}")) + key.len();
    let rest = &row[at..];
    match rest.strip_prefix('"') {
        Some(s) => &s[..s.find('"').unwrap()],
        None => &rest[..rest.find([',', '}']).unwrap()],
    }
}

#[test]
fn exported_percentiles_agree_with_the_trace() {
    // What an operator reads off the JSON snapshot must summarize the raw
    // event stream: rebuild every `relay_cycles{vmpl, exit}` sample from
    // the trace ring, bracketing each non-automatic `VmgExit` with the next
    // `VmEnter` on the same VCPU, and compare.
    let cvm = http_traced_cvm(true, true);
    assert_eq!(cvm.hv.machine.tracer().dropped(), 0, "the ring must hold the whole run");
    let mut pending = BTreeMap::new();
    let mut samples: BTreeMap<(&str, &str), Vec<u64>> = BTreeMap::new();
    for r in cvm.trace_records() {
        match r.event {
            Event::VmgExit { vcpu, vmpl, code, automatic: false, .. } => {
                pending.insert(vcpu, (r.cycles, vmpl, code));
            }
            Event::VmEnter { vcpu, .. } => {
                if let Some((start, vmpl, code)) = pending.remove(&vcpu) {
                    let key = (domain_label(vmpl), exit_code_label(code));
                    samples.entry(key).or_default().push(r.cycles - start);
                }
            }
            _ => {}
        }
    }
    let snapshot = cvm.metrics_snapshot();
    let mut exported = BTreeMap::new();
    for row in snapshot.split("{\"metric\": \"relay_cycles\"").skip(1) {
        let key = (json_field(row, "domain"), json_field(row, "op"));
        let field = |name| json_field(row, name).parse::<u64>().unwrap();
        let summary = [field("count"), field("sum"), field("min"), field("max")];
        let percentiles = [(50.0, field("p50")), (99.0, field("p99")), (99.9, field("p999"))];
        exported.insert(key, (summary, percentiles));
    }
    assert!(exported.len() > 1, "the audited batched run relays several exit kinds");
    assert_eq!(
        exported.keys().collect::<Vec<_>>(),
        samples.keys().collect::<Vec<_>>(),
        "one relay_cycles series per (vmpl, exit) bracket in the trace"
    );
    for (key, (summary, percentiles)) in &exported {
        let xs = samples.get_mut(key).unwrap();
        xs.sort_unstable();
        let (min, max) = (xs[0], xs[xs.len() - 1]);
        let sum: u64 = xs.iter().sum();
        assert_eq!(summary, &[xs.len() as u64, sum, min, max], "{key:?} count/sum/min/max");
        for (p, got) in percentiles {
            let exact = xs[nearest_rank(xs.len(), *p) - 1];
            within_a_sixteenth(*got, exact, min, max)
                .unwrap_or_else(|e| panic!("{key:?} p{p}: {e}"));
        }
    }
}

#[test]
fn metrics_are_observationally_inert() {
    // Two configurations: plain http, and http audited over the batched
    // gate (see `http_traced_cvm`).
    for audited in [false, true] {
        let on = http_traced_cvm(true, audited);
        let off = http_traced_cvm(false, audited);
        // Bit-identical externally visible behavior: measurement, cycles,
        // per-domain attribution, hypervisor stats, and the trace digest.
        let config = if audited { "audited batched" } else { "plain" };
        assert_eq!(
            on.hv.machine.launch_measurement(),
            off.hv.machine.launch_measurement(),
            "{config}"
        );
        assert_eq!(on.hv.machine.cycles().total(), off.hv.machine.cycles().total(), "{config}");
        assert_eq!(on.domain_cycles(), off.domain_cycles(), "{config}");
        assert_eq!(on.hv.stats(), off.hv.stats(), "{config}");
        assert_eq!(on.trace_digest_hex(), off.trace_digest_hex(), "{config}");
        // Only the metrics-on twin accumulated anything.
        assert!(!on.metrics().is_empty(), "{config}");
        assert!(off.metrics().is_empty(), "{config}");
        assert!(off.spans().is_empty(), "{config}");
        if audited {
            assert!(on.hv.stats().doorbells > 0, "audited batched run never drained the ring");
            let relay = on.hv.machine.metrics().merged_histogram("relay_cycles");
            assert!(relay.count() > 0, "audited batched run recorded no relay latencies");
        }
    }
}

// ---- reference model ----------------------------------------------------

/// The registry and span profiler as they stood before slot indexing and
/// path interning: every series in a string-keyed `BTreeMap`, one `String`
/// path per open span, and exporters that walk those maps directly.
#[derive(Default)]
struct Model {
    enabled: bool,
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, u64>,
    histograms: BTreeMap<Key, Histogram>,
    events: EventCounters,
    pending_exit: BTreeMap<u32, (u64, u8, u64)>,
    /// Open spans: (name, start, child cycles, `;`-joined path).
    stack: Vec<(&'static str, u64, u64, String)>,
    root_domain: u8,
    spans: BTreeMap<(String, u8), SpanStat>,
}

impl Model {
    fn set_enabled(&mut self, enabled: bool) {
        if enabled {
            *self = Model::default();
        }
        self.enabled = enabled;
    }

    fn inc_counter(&mut self, key: Key, by: u64) {
        if self.enabled {
            *self.counters.entry(key).or_insert(0) += by;
        }
    }

    fn set_gauge(&mut self, key: Key, value: u64) {
        if self.enabled {
            self.gauges.insert(key, value);
        }
    }

    fn record_hist(&mut self, key: Key, value: u64) {
        if self.enabled {
            self.histograms.entry(key).or_default().record(value);
        }
    }

    fn observe_event(&mut self, cycles: u64, event: &Event) {
        if !self.enabled {
            return;
        }
        self.events.observe(event);
        let domain = match *event {
            Event::Pvalidate { vmpl, .. }
            | Event::VmgExit { vmpl, .. }
            | Event::VmEnter { vmpl, .. }
            | Event::NestedPageFault { vmpl, .. } => vmpl,
            Event::RmpAdjust { executing, .. } => executing,
            Event::DomainSwitch { from, .. } => from,
            Event::SyscallRedirect { .. } => 2,
            Event::AuditAppend { .. } => 3,
            Event::Doorbell { target, .. } | Event::RingEnqueue { target, .. } => target,
            _ => DOMAIN_NONE,
        };
        self.inc_counter(Key::new("events_total", domain, event.name()), 1);
        match *event {
            Event::VmgExit { vcpu, vmpl, code, automatic: false, .. } => {
                self.pending_exit.insert(vcpu, (cycles, vmpl, code));
            }
            Event::VmEnter { vcpu, .. } => {
                if let Some((start, vmpl, code)) = self.pending_exit.remove(&vcpu) {
                    let key = Key::new("relay_cycles", vmpl, exit_code_label(code));
                    self.record_hist(key, cycles.saturating_sub(start));
                }
            }
            Event::DomainSwitch { from, to, .. } => {
                self.inc_counter(Key::new("domain_switch_total", from, domain_label(to)), 1);
            }
            Event::Doorbell { target, depth, .. } => {
                self.record_hist(Key::new("ring_depth", target, "doorbell"), u64::from(depth));
            }
            Event::RingEnqueue { target, depth, .. } => {
                self.record_hist(Key::new("ring_depth", target, "enqueue"), u64::from(depth));
            }
            Event::DeferredError { count, .. } => {
                let key = Key::new("gate_deferred_errors_total", DOMAIN_NONE, "");
                self.inc_counter(key, u64::from(count));
            }
            _ => {}
        }
        self.set_gauge(Key::new("cycles_total", DOMAIN_NONE, ""), cycles);
    }

    fn enter(&mut self, name: &'static str, domain: u8, now: u64) {
        if !self.enabled {
            return;
        }
        let path = match self.stack.last() {
            Some((_, _, _, parent)) => format!("{parent};{name}"),
            None => {
                self.root_domain = domain;
                name.to_string()
            }
        };
        self.stack.push((name, now, 0, path));
    }

    fn exit(&mut self, name: &'static str, now: u64) {
        if !self.enabled || self.stack.last().map(|f| f.0) != Some(name) {
            return;
        }
        let (_, start, child_cycles, path) = self.stack.pop().unwrap();
        let total = now.saturating_sub(start);
        if let Some(parent) = self.stack.last_mut() {
            parent.2 += total;
        }
        let stat = self.spans.entry((path, self.root_domain)).or_default();
        stat.count += 1;
        stat.total_cycles += total;
        stat.self_cycles += total.saturating_sub(child_cycles);
        stat.durations.record(total);
    }

    fn merged_relay(&self) -> Histogram {
        let mut out = Histogram::new();
        for h in self.histograms.iter().filter(|(k, _)| k.metric == "relay_cycles").map(|e| e.1) {
            out.merge(h);
        }
        out
    }

    fn folded(&self) -> String {
        let lines = self.spans.iter().map(|((path, domain), stat)| {
            format!("{};{path} {}\n", domain_label(*domain), stat.self_cycles)
        });
        lines.collect()
    }

    fn prometheus(&self) -> String {
        fn series(out: &mut String, name: &str, domain: u8, op: &str, le: Option<&str>, v: String) {
            out.push_str(&format!("veil_{name}{{domain=\"{}\"", domain_label(domain)));
            if !op.is_empty() {
                out.push_str(&format!(",op=\"{}\"", label_escape(op)));
            }
            if let Some(le) = le {
                out.push_str(&format!(",le=\"{le}\""));
            }
            out.push_str(&format!("}} {v}\n"));
        }
        let mut out = String::new();
        let mut last_type = None;
        let mut type_line = |out: &mut String, metric: &str, kind: &str| {
            let line = format!("# TYPE veil_{metric} {kind}\n");
            if last_type.as_ref() != Some(&line) {
                out.push_str(&line);
                last_type = Some(line);
            }
        };
        for (kind, map) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            for (k, v) in map {
                type_line(&mut out, k.metric, kind);
                series(&mut out, k.metric, k.domain, k.op, None, v.to_string());
            }
        }
        for (k, h) in &self.histograms {
            type_line(&mut out, k.metric, "histogram");
            let bucket = format!("{}_bucket", k.metric);
            let mut cumulative = 0u64;
            let below_top = &h.buckets()[..BUCKETS - 1];
            for (i, &count) in below_top.iter().enumerate().filter(|(_, &c)| c > 0) {
                cumulative += count;
                let le = (bucket_lower(i + 1) - 1).to_string();
                series(&mut out, &bucket, k.domain, k.op, Some(&le), cumulative.to_string());
            }
            series(&mut out, &bucket, k.domain, k.op, Some("+Inf"), h.count().to_string());
            series(
                &mut out,
                &format!("{}_sum", k.metric),
                k.domain,
                k.op,
                None,
                h.sum().to_string(),
            );
            let count = format!("{}_count", k.metric);
            series(&mut out, &count, k.domain, k.op, None, h.count().to_string());
        }
        if !self.spans.is_empty() {
            for metric in ["span_self_cycles", "span_total_cycles", "span_count"] {
                out.push_str(&format!("# TYPE veil_{metric} counter\n"));
                for ((path, domain), stat) in &self.spans {
                    let value = match metric {
                        "span_self_cycles" => stat.self_cycles,
                        "span_total_cycles" => stat.total_cycles,
                        _ => stat.count,
                    };
                    out.push_str(&format!(
                        "veil_{metric}{{domain=\"{}\",path=\"{}\"}} {value}\n",
                        domain_label(*domain),
                        label_escape(path)
                    ));
                }
            }
        }
        out
    }

    fn json_snapshot(&self) -> String {
        fn escape(s: &str) -> String {
            let mut out = String::new();
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
        let row = |k: &Key, rest: String| {
            format!(
                "{{\"metric\": \"{}\", \"domain\": \"{}\", \"op\": \"{}\", {rest}}}",
                k.metric,
                domain_label(k.domain),
                escape(k.op)
            )
        };
        let values = |map: &BTreeMap<Key, u64>| {
            map.iter().map(|(k, v)| row(k, format!("\"value\": {v}"))).collect::<Vec<_>>()
        };
        let hists: Vec<String> =
            self.histograms.iter().map(|(k, h)| row(k, hist_json(h))).collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|((path, domain), s)| {
                format!(
                    "{{\"path\": \"{}\", \"domain\": \"{}\", \"count\": {}, \"total_cycles\": {}, \
                     \"self_cycles\": {}, \"p50\": {}, \"p99\": {}}}",
                    escape(path),
                    domain_label(*domain),
                    s.count,
                    s.total_cycles,
                    s.self_cycles,
                    s.durations.percentile(50.0),
                    s.durations.percentile(99.0)
                )
            })
            .collect();
        format!(
            "{{\n  \"counters\": [{}],\n  \"gauges\": [{}],\n  \"histograms\": [{}],\n  \
             \"spans\": [{}]\n}}\n",
            values(&self.counters).join(", "),
            values(&self.gauges).join(", "),
            hists.join(", "),
            spans.join(", ")
        )
    }
}

/// One step of a metrics stream. Every step first advances the virtual
/// clock by its `u64`.
#[derive(Debug, Clone)]
enum MetricsOp {
    Event(u64, Event),
    Counter(u64, Key, u64),
    Gauge(u64, Key, u64),
    Hist(u64, Key, u64),
    Enable(u64, bool),
    Enter(u64, &'static str, u8),
    /// Exits the named span, or the innermost open one for `None`.
    Exit(u64, Option<&'static str>),
}

/// Domains and VMPLs: the four levels, then values the slot table has no
/// row for (4, 0x7f) and `DOMAIN_NONE`.
const DOMAINS: [u8; 7] = [0, 1, 2, 3, 4, 0x7f, DOMAIN_NONE];

const EXIT_CODES: [u64; 10] = [
    exit_code::IO,
    exit_code::MSR,
    exit_code::PAGE_STATE_CHANGE,
    exit_code::DOMAIN_SWITCH,
    exit_code::CREATE_VCPU,
    exit_code::DOORBELL,
    exit_code::SHUTDOWN,
    exit_code::AUTOMATIC,
    exit_code::UNKNOWN,
    0xdead,
];

/// Caller-chosen metric names, including the event-derived ones so that
/// caller keys collide with series the slot table caches.
const METRICS: [&str; 6] =
    ["events_total", "relay_cycles", "ring_depth", "cycles_total", "fleet_latency_cycles", "x"];

/// Ops: event names and exit-code labels that event-derived series use,
/// plus hostile label values.
const OPS: [&str; 8] = [
    "",
    "vmenter",
    "io",
    "enqueue",
    "vmpl0",
    "evil\"} 1\nveil_forged_total{domain=\"all\"",
    "back\\slash\ttab\u{1}",
    "ünï",
];

/// Span names, including ones whose joined paths alias (`a;b` is both
/// one frame and the frames `a`, `b`), and the root domains spans open
/// under.
const SPANS: [&str; 7] = ["gate.request", "gate.switch", "hv.vmgexit", "a", "b", "a;b", "q\"\n"];
const SPAN_DOMAINS: [u8; 3] = [0, 3, 0x7f];

fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
    *rng.choose(xs).unwrap()
}

fn random_event(rng: &mut TestRng) -> Event {
    let vcpu = rng.below(4) as u32;
    let d = |rng: &mut TestRng| pick(rng, &DOMAINS);
    let small = |rng: &mut TestRng| rng.below(20) as u32;
    match rng.below(16) {
        0 => Event::RmpTransition { gfn: rng.below(64), to_private: rng.gen_bool() },
        1 => Event::Pvalidate { vmpl: d(rng), gfn: rng.below(64), validate: rng.gen_bool() },
        2 => Event::RmpAdjust {
            executing: d(rng),
            target: d(rng),
            gfn: rng.below(64),
            perms: rng.below(16) as u8,
            executing_perms: rng.below(16) as u8,
        },
        3 => Event::VmgExit {
            vcpu,
            vmpl: d(rng),
            code: pick(rng, &EXIT_CODES),
            user_ghcb: rng.gen_bool(),
            automatic: rng.below(4) == 0,
        },
        4 => Event::VmEnter { vcpu, vmpl: d(rng) },
        5 => Event::DomainSwitch {
            vcpu,
            from: d(rng),
            to: d(rng),
            user_ghcb: rng.gen_bool(),
            automatic: rng.gen_bool(),
        },
        6 => Event::NestedPageFault { gfn: rng.below(64), vmpl: d(rng) },
        7 => Event::SyscallRedirect { vcpu, pid: small(rng), sysno: small(rng) },
        8 => Event::AuditAppend { pid: small(rng), sysno: small(rng) },
        9 => Event::ChannelHandshake { step: rng.below(3) as u8 },
        10 => {
            Event::ModuleLoad { pages: small(rng), protected: rng.gen_bool(), load: rng.gen_bool() }
        }
        11 => Event::Doorbell { vcpu, target: d(rng), depth: small(rng) },
        12 => Event::ReqDispatch {
            tenant: rng.below(4),
            req: rng.below(8),
            arrival: rng.below(1 << 20),
            start: rng.below(1 << 20),
        },
        13 => Event::ReqComplete { tenant: rng.below(4), req: rng.below(8) },
        14 => Event::RingEnqueue {
            vcpu,
            target: d(rng),
            depth: small(rng),
            tenant: rng.below(4),
            req: rng.below(8),
        },
        _ => Event::DeferredError { vcpu, count: small(rng) },
    }
}

fn random_op(rng: &mut TestRng) -> MetricsOp {
    let dt = match rng.below(4) {
        0 => 0,
        1 => rng.below(16),
        _ => rng.below(20_000),
    };
    let key =
        |rng: &mut TestRng| Key::new(pick(rng, &METRICS), pick(rng, &DOMAINS), pick(rng, &OPS));
    match rng.below(40) {
        0..=19 => MetricsOp::Event(dt, random_event(rng)),
        20..=22 => MetricsOp::Counter(dt, key(rng), rng.below(3) * rng.below(1000)),
        23..=24 => MetricsOp::Gauge(dt, key(rng), rng.next_u64()),
        25..=26 => MetricsOp::Hist(dt, key(rng), rng.next_u64() >> rng.below(64)),
        27 => MetricsOp::Enable(dt, rng.below(3) > 0),
        28..=33 => MetricsOp::Enter(dt, pick(rng, &SPANS), pick(rng, &SPAN_DOMAINS)),
        34 => MetricsOp::Exit(dt, Some(pick(rng, &SPANS))),
        _ => MetricsOp::Exit(dt, None),
    }
}

#[test]
fn exports_match_the_string_keyed_reference_model() {
    let ops = prop::vecs(prop::Strategy::from_fn(random_op), 0..160);
    prop::check("exports_match_the_string_keyed_reference_model", 500, &ops, |ops| {
        let (mut reg, mut spans, mut model) =
            (MetricsRegistry::new(), SpanProfiler::new(), Model::default());
        reg.set_enabled(true);
        spans.set_enabled(true);
        model.set_enabled(true);
        let mut now = 0u64;
        for op in ops {
            match op {
                MetricsOp::Event(dt, e) => {
                    now += dt;
                    reg.observe_event(now, &e);
                    model.observe_event(now, &e);
                }
                MetricsOp::Counter(dt, key, by) => {
                    now += dt;
                    reg.inc_counter(key, by);
                    model.inc_counter(key, by);
                }
                MetricsOp::Gauge(dt, key, value) => {
                    now += dt;
                    reg.set_gauge(key, value);
                    model.set_gauge(key, value);
                }
                MetricsOp::Hist(dt, key, value) => {
                    now += dt;
                    reg.record_hist(key, value);
                    model.record_hist(key, value);
                }
                MetricsOp::Enable(dt, on) => {
                    now += dt;
                    reg.set_enabled(on);
                    spans.set_enabled(on);
                    model.set_enabled(on);
                }
                MetricsOp::Enter(dt, name, domain) => {
                    now += dt;
                    spans.enter(name, domain, now);
                    model.enter(name, domain, now);
                }
                MetricsOp::Exit(dt, name) => {
                    now += dt;
                    if let Some(name) = name.or(model.stack.last().map(|f| f.0)) {
                        spans.exit(name, now);
                        model.exit(name, now);
                    }
                }
            }
        }
        prop_assert_eq!(reg.event_counters(), &model.events);
        prop_assert_eq!(reg.merged_histogram("relay_cycles"), model.merged_relay());
        prop_assert_eq!(spans.folded(), model.folded());
        prop_assert_eq!(prometheus(&reg, &spans), model.prometheus());
        prop_assert_eq!(json_snapshot(&reg, &spans), model.json_snapshot());
        prop_assert_eq!(
            reg.is_empty(),
            model.counters.is_empty() && model.gauges.is_empty() && model.histograms.is_empty()
        );
        Ok(())
    });
}
