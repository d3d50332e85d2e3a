//! Rendering of `veil-trace` event streams for the inspection tooling.
//!
//! Pure string builders (no printing) so tests can pin the output shape;
//! the `inspect` binary prints the results verbatim.

use crate::fmt;
use veil_trace::{EventCounters, Record};

/// Renders records as a fixed-width table: sequence number, virtual-cycle
/// timestamp, event name, and `key=value` fields.
pub fn table(records: &[Record]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<8}{:<16}{:<20}{}\n", "seq", "cycles", "event", "fields"));
    for r in records {
        let fields: Vec<String> =
            r.event.fields().iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str(&format!(
            "{:<8}{:<16}{:<20}{}\n",
            r.seq,
            fmt::cycles(r.cycles),
            r.event.name(),
            fields.join(" ")
        ));
    }
    out
}

/// Renders records as a JSON array of objects (`seq`, `cycles`, `event`,
/// plus the event's own fields; field values are already JSON literals).
pub fn json(records: &[Record]) -> String {
    let items: Vec<String> = records
        .iter()
        .map(|r| {
            let mut fields = vec![
                fmt::json_field("seq", r.seq),
                fmt::json_field("cycles", r.cycles),
                fmt::json_str_field("event", r.event.name()),
            ];
            for (k, v) in r.event.fields() {
                fields.push(fmt::json_field(k, v));
            }
            fmt::json_object(&fields)
        })
        .collect();
    fmt::json_array(&items)
}

/// The counter fold as `(name, value)` rows, in a stable order.
pub fn counter_rows(c: &EventCounters) -> Vec<(&'static str, u64)> {
    vec![
        ("vmgexits", c.vmgexits),
        ("automatic_exits", c.automatic_exits),
        ("vmenters", c.vmenters),
        ("domain_switches", c.domain_switches),
        ("enclave_crossings", c.enclave_crossings),
        ("io_exits", c.io_exits),
        ("page_state_changes", c.page_state_changes),
        ("pvalidates", c.pvalidates),
        ("rmpadjusts", c.rmpadjusts),
        ("rmp_transitions", c.rmp_transitions),
        ("nested_page_faults", c.nested_page_faults),
        ("syscall_redirects", c.syscall_redirects),
        ("audit_appends", c.audit_appends),
        ("handshake_steps", c.handshake_steps),
        ("module_loads", c.module_loads),
    ]
}

/// Renders the counter fold as a JSON object.
pub fn counters_json(c: &EventCounters) -> String {
    let fields: Vec<String> = counter_rows(c).iter().map(|(k, v)| fmt::json_field(k, v)).collect();
    fmt::json_object(&fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_trace::Event;

    fn sample() -> Vec<Record> {
        vec![
            Record {
                seq: 0,
                cycles: 10,
                event: Event::VmgExit {
                    vcpu: 0,
                    vmpl: 3,
                    code: 0x7b,
                    user_ghcb: false,
                    automatic: false,
                },
            },
            Record { seq: 1, cycles: 7145, event: Event::VmEnter { vcpu: 0, vmpl: 3 } },
        ]
    }

    #[test]
    fn table_has_one_line_per_record_plus_header() {
        let t = table(&sample());
        assert_eq!(t.lines().count(), 3);
        assert!(t.contains("vmgexit"));
        assert!(t.contains("7,145"));
    }

    #[test]
    fn json_is_an_array_of_objects() {
        let j = json(&sample());
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"event\": \"vmenter\""));
        assert!(j.contains("\"seq\": 0"));
    }

    #[test]
    fn counters_render_every_row() {
        let mut c = EventCounters::default();
        for r in sample() {
            c.observe(&r.event);
        }
        assert_eq!(counter_rows(&c).len(), 15);
        let j = counters_json(&c);
        assert!(j.contains("\"vmgexits\": 1"));
        assert!(j.contains("\"vmenters\": 1"));
        assert!(j.contains("\"io_exits\": 1"));
    }
}
