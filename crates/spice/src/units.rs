//! SPICE-style numeric literals (`1k`, `2.5MEG`, `10p`, `1e-9`).
//!
//! Suffixes are case-insensitive, as in Berkeley SPICE; trailing unit text
//! after a recognized suffix is ignored (`10pF` parses as `10e-12`).

/// Parses a SPICE numeric literal.
///
/// Recognized scale suffixes: `t` (1e12), `g` (1e9), `meg` (1e6), `k`
/// (1e3), `m` (1e-3), `mil` (25.4e-6), `u` (1e-6), `n` (1e-9), `p`
/// (1e-12), `f` (1e-15).
///
/// Returns `None` when the leading text is not a number.
///
/// # Example
///
/// ```
/// use ahfic_spice::units::parse_value;
/// assert_eq!(parse_value("2.2k"), Some(2200.0));
/// assert_eq!(parse_value("1MEG"), Some(1e6));
/// assert_eq!(parse_value("100pF"), Some(100e-12));
/// assert_eq!(parse_value("x"), None);
/// ```
pub fn parse_value(text: &str) -> Option<f64> {
    let t = text.trim();
    if t.is_empty() {
        return None;
    }
    // Split the numeric prefix from the alphabetic suffix.
    let mut split = t.len();
    let bytes = t.as_bytes();
    let mut seen_digit = false;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let numeric = c.is_ascii_digit()
            || c == '.'
            || c == '+'
            || c == '-'
            || ((c == 'e' || c == 'E')
                && seen_digit
                && i + 1 < bytes.len()
                && (bytes[i + 1].is_ascii_digit() || bytes[i + 1] == b'+' || bytes[i + 1] == b'-'));
        if c.is_ascii_digit() {
            seen_digit = true;
        }
        if !numeric {
            split = i;
            break;
        }
        if c == 'e' || c == 'E' {
            // Consume the exponent sign so a following digit run stays in
            // the numeric part.
            i += 1;
        }
        i += 1;
    }
    if !seen_digit {
        return None;
    }
    let number: f64 = t[..split].parse().ok()?;
    Some(number * scale_of(&t[split..]))
}

/// The scale of a suffix, matched in any case.
fn scale_of(suffix: &str) -> f64 {
    // Longest-match first: "meg" and "mil" before "m".
    if crate::parse::starts_with_ci(suffix, "meg") {
        1e6
    } else if crate::parse::starts_with_ci(suffix, "mil") {
        25.4e-6
    } else {
        match suffix.bytes().next().map(|b| b.to_ascii_lowercase()) {
            Some(b't') => 1e12,
            Some(b'g') => 1e9,
            Some(b'k') => 1e3,
            Some(b'm') => 1e-3,
            Some(b'u') => 1e-6,
            Some(b'n') => 1e-9,
            Some(b'p') => 1e-12,
            Some(b'f') => 1e-15,
            _ => 1.0,
        }
    }
}

/// Formats a value in engineering notation with a SPICE suffix
/// (e.g. `2200.0` → `"2.2k"`). Used by netlist and model-card emitters.
pub fn format_value(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let mag = v.abs();
    let (scale, suffix) = if mag >= 1e12 {
        (1e12, "t")
    } else if mag >= 1e9 {
        (1e9, "g")
    } else if mag >= 1e6 {
        (1e6, "meg")
    } else if mag >= 1e3 {
        (1e3, "k")
    } else if mag >= 1.0 {
        (1.0, "")
    } else if mag >= 1e-3 {
        (1e-3, "m")
    } else if mag >= 1e-6 {
        (1e-6, "u")
    } else if mag >= 1e-9 {
        (1e-9, "n")
    } else if mag >= 1e-12 {
        (1e-12, "p")
    } else {
        (1e-15, "f")
    };
    let scaled = v / scale;
    // Up to 4 significant-ish decimals, trimmed.
    let s = format!("{scaled:.4}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    format!("{s}{suffix}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_numbers() {
        assert_eq!(parse_value("5"), Some(5.0));
        assert_eq!(parse_value("-3.25"), Some(-3.25));
        assert_eq!(parse_value("1e-9"), Some(1e-9));
        assert_eq!(parse_value("2.5E6"), Some(2.5e6));
    }

    #[test]
    fn suffixes() {
        assert_eq!(parse_value("1k"), Some(1e3));
        assert_eq!(parse_value("1K"), Some(1e3));
        assert_eq!(parse_value("1meg"), Some(1e6));
        assert_eq!(parse_value("1MeG"), Some(1e6));
        assert_eq!(parse_value("1m"), Some(1e-3));
        assert_eq!(parse_value("3u"), Some(3e-6));
        assert_eq!(parse_value("2n"), Some(2e-9));
        assert_eq!(parse_value("4p"), Some(4e-12));
        assert!((parse_value("5f").unwrap() - 5e-15).abs() < 1e-27);
        assert_eq!(parse_value("1g"), Some(1e9));
        assert_eq!(parse_value("1t"), Some(1e12));
        assert_eq!(parse_value("1mil"), Some(25.4e-6));
    }

    #[test]
    fn unit_text_after_suffix_ignored() {
        assert_eq!(parse_value("10pF"), Some(10e-12));
        assert_eq!(parse_value("2.2kOhm"), Some(2200.0));
        assert_eq!(parse_value("5Volts"), Some(5.0));
    }

    #[test]
    fn exponent_and_suffix_together() {
        // SPICE semantics: exponent binds to the number, suffix scales it.
        assert_eq!(parse_value("1e3k"), Some(1e6));
    }

    #[test]
    fn rejects_non_numbers() {
        assert_eq!(parse_value(""), None);
        assert_eq!(parse_value("abc"), None);
        assert_eq!(parse_value("k1"), None);
    }

    #[test]
    fn format_round_trips_through_parse() {
        for &v in &[
            0.0, 1.0, -2.5, 2200.0, 1e6, 4.7e-12, 3.3e-9, 1.5e10, 2.54e-5, 1e-15,
        ] {
            let s = format_value(v);
            let back = parse_value(&s).unwrap();
            let tol = 1e-3 * v.abs().max(1e-18);
            assert!((back - v).abs() <= tol, "{v} -> {s} -> {back}");
        }
    }
}
