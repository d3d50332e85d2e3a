//! Table, number, and JSON formatting shared by the `reproduce`/`inspect`
//! binaries and the JSON writers of `fuzz` and `modelcheck`.

/// Formats a fraction as a signed percentage.
pub fn pct(f: f64) -> String {
    format!("{:+.1}%", f * 100.0)
}

/// Formats a per-second rate as `N.Nk`.
pub fn rate_k(r: f64) -> String {
    format!("{:.1}k", r / 1000.0)
}

/// Formats cycles with thousands separators.
pub fn cycles(c: u64) -> String {
    let s = c.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// Prints a header with a rule.
pub fn header(title: &str) {
    println!("\n{title}");
    println!("{}", "=".repeat(title.len()));
}

/// Prints a row of fixed-width columns.
pub fn row(cols: &[(&str, usize)]) {
    let mut line = String::new();
    for (text, width) in cols {
        line.push_str(&format!("{text:<width$}"));
    }
    println!("{}", line.trim_end());
}

/// Escapes a string for embedding in JSON.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A `"key": value` JSON member from a pre-rendered value.
pub fn json_field(key: &str, value: impl std::fmt::Display) -> String {
    format!("\"{}\": {}", json_escape(key), value)
}

/// A `"key": "value"` JSON member with an escaped string value.
pub fn json_str_field(key: &str, value: &str) -> String {
    format!("\"{}\": \"{}\"", json_escape(key), json_escape(value))
}

/// Joins pre-rendered members into a JSON object.
pub fn json_object(fields: &[String]) -> String {
    format!("{{{}}}", fields.join(", "))
}

/// Joins pre-rendered values into a JSON array.
pub fn json_array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// Renders an `f64` in a JSON-safe way (no NaN/inf literals).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(pct(0.049), "+4.9%");
        assert_eq!(pct(-0.02), "-2.0%");
        assert_eq!(rate_k(22_400.0), "22.4k");
        assert_eq!(cycles(7135), "7,135");
        assert_eq!(cycles(1234567), "1,234,567");
        assert_eq!(cycles(5), "5");
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(
            json_object(&[json_str_field("name", "x"), json_field("n", 3)]),
            "{\"name\": \"x\", \"n\": 3}"
        );
        assert_eq!(json_array(&["1".into(), "2".into()]), "[1, 2]");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(0.5), "0.500000");
    }
}
