//! The JSON string escaper the analyzer reports share.
//!
//! feral-lint, feral-sdg and feral-sim emit hand-rolled JSON — the
//! workspace is offline and has no serde — and each used to carry its
//! own copy of the escaper. [`json_escape`] is the one they share, for
//! every dynamic string. SARIF has a single emitter, feral-lint, and
//! lives with it (`feral_lint::report`).

use std::fmt::Write as _;

/// Escape a string for embedding in a JSON literal (no surrounding
/// quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
