//! The line protocol's escaping contexts.
//!
//! The protocol has three distinct escaping rules:
//!
//! | context | escaped characters |
//! |---|---|
//! | measurement | `,` and space |
//! | tag key, tag value, field key | `,`, `=` and space |
//! | string field value (inside `"..."`) | `"` and `\` |
//!
//! Escapes always use a single backslash. Unknown escape sequences are kept
//! verbatim on unescape (matching InfluxDB's permissive behaviour).

/// Appends `s` to `out` with a backslash before every byte of `special`.
/// The runs between escapes are copied whole: every special byte is ASCII,
/// so each split falls on a character boundary.
fn escape_into(s: &str, special: &[u8], out: &mut String) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if special.contains(&b) {
            out.push_str(&s[start..i]);
            out.push('\\');
            start = i;
        }
    }
    out.push_str(&s[start..]);
}

/// Appends `s` to `out`, escaping `,` and space (measurement context).
pub fn escape_measurement_into(s: &str, out: &mut String) {
    escape_into(s, b", ", out);
}

/// Appends `s` to `out`, escaping `,`, `=` and space (tag/field-key context).
pub fn escape_tag_into(s: &str, out: &mut String) {
    escape_into(s, b",= ", out);
}

/// Appends `s` to `out`, escaping `"` and `\` (string field value context).
pub fn escape_string_field_into(s: &str, out: &mut String) {
    escape_into(s, b"\"\\", out);
}

/// Removes backslash escapes. Backslashes before characters that are never
/// escaped are preserved verbatim (InfluxDB-compatible).
///
/// `escapable` lists the characters a backslash may precede in this context.
pub fn unescape(s: &str, escapable: &[char]) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some(n) if escapable.contains(&n) => out.push(n),
                Some(n) => {
                    out.push('\\');
                    out.push(n);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Characters escapable in the measurement context.
pub const MEASUREMENT_ESCAPES: &[char] = &[',', ' '];
/// Characters escapable in tag keys/values and field keys.
pub const TAG_ESCAPES: &[char] = &[',', '=', ' '];
/// Characters escapable inside quoted string field values.
pub const STRING_ESCAPES: &[char] = &['"', '\\'];

#[cfg(test)]
mod tests {
    use super::*;

    fn escape_measurement(s: &str) -> String {
        let mut out = String::new();
        escape_measurement_into(s, &mut out);
        out
    }

    fn escape_tag(s: &str) -> String {
        let mut out = String::new();
        escape_tag_into(s, &mut out);
        out
    }

    #[test]
    fn measurement_escaping() {
        assert_eq!(escape_measurement("cpu load,total"), "cpu\\ load\\,total");
        assert_eq!(escape_measurement("plain"), "plain");
        // '=' is NOT escaped in measurements.
        assert_eq!(escape_measurement("a=b"), "a=b");
    }

    #[test]
    fn tag_escaping() {
        assert_eq!(escape_tag("k=v, x"), "k\\=v\\,\\ x");
    }

    #[test]
    fn string_field_escaping() {
        let mut out = String::new();
        escape_string_field_into(r#"say "hi" \now"#, &mut out);
        assert_eq!(out, r#"say \"hi\" \\now"#);
    }

    #[test]
    fn unescape_round_trip() {
        for original in ["a b,c=d", "plain", " lead", "trail ", ",,= ="] {
            let esc = escape_tag(original);
            assert_eq!(unescape(&esc, TAG_ESCAPES), original);
        }
    }

    #[test]
    fn unescape_preserves_unknown_escapes() {
        assert_eq!(unescape(r"C:\path\n", TAG_ESCAPES), r"C:\path\n");
        assert_eq!(unescape(r"x\,y\z", TAG_ESCAPES), r"x,y\z");
    }

    #[test]
    fn unescape_trailing_backslash() {
        assert_eq!(unescape(r"abc\", TAG_ESCAPES), r"abc\");
    }
}
