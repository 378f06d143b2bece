//! The span exporter: Chrome trace-event JSON and its validator.

mod chrome;
mod jsonchk;

pub(crate) use chrome::chrome_trace;
pub use chrome::validate_chrome_trace;

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a microsecond quantity with up to three decimals, trimming
/// trailing zeros ("1", "0.25", "12.5"). Deterministic: plain decimal,
/// never scientific notation.
pub(crate) fn fmt_us(v: f64) -> String {
    let s = format!("{v:.3}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn fmt_us_trims() {
        assert_eq!(fmt_us(1.0), "1");
        assert_eq!(fmt_us(0.25), "0.25");
        assert_eq!(fmt_us(12.5), "12.5");
        assert_eq!(fmt_us(0.0), "0");
    }
}
