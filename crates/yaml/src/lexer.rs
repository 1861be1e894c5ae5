//! Line-oriented lexical analysis: splits source text into indented content
//! lines with comments stripped, which the block parser then consumes.

use crate::error::ParseYamlError;

/// Counts leading spaces; tabs in indentation are a hard error (YAML forbids
/// them).
pub(crate) fn count_indent(raw: &str, number: usize) -> Result<usize, ParseYamlError> {
    let mut indent = 0;
    for b in raw.bytes() {
        match b {
            b' ' => indent += 1,
            b'\t' => {
                return Err(ParseYamlError::new(
                    number,
                    "tab character in indentation (YAML requires spaces)",
                ))
            }
            _ => break,
        }
    }
    Ok(indent)
}

/// Removes a trailing ` # comment`, honouring single/double quote state.
/// A `#` begins a comment only when preceded by whitespace (or at start).
pub(crate) fn strip_trailing_comment(body: &str) -> &str {
    let bytes = body.as_bytes();
    if !bytes.contains(&b'#') {
        return body;
    }
    let mut in_single = false;
    let mut in_double = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            // A `''` inside a single-quoted scalar toggles twice: it stays open.
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'\\' if in_double => {
                i += 1; // skip escaped char
            }
            b'#' if !in_single
                && !in_double
                && (i == 0 || bytes[i - 1] == b' ' || bytes[i - 1] == b'\t') =>
            {
                return body[..i].trim_end();
            }
            _ => {}
        }
        i += 1;
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_indent_counts_spaces() {
        assert_eq!(count_indent("  a: 1", 1).unwrap(), 2);
        assert_eq!(count_indent("a: 1", 1).unwrap(), 0);
        assert_eq!(count_indent("", 1).unwrap(), 0);
    }

    #[test]
    fn count_indent_rejects_tab() {
        let err = count_indent("\tb: 1", 2).unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn trailing_comment_stripped() {
        assert_eq!(strip_trailing_comment("a: 1 # note"), "a: 1");
        assert_eq!(strip_trailing_comment("# whole"), "");
    }

    #[test]
    fn hash_inside_quotes_kept() {
        assert_eq!(
            strip_trailing_comment("msg: \"issue #42\""),
            "msg: \"issue #42\""
        );
        assert_eq!(strip_trailing_comment("msg: 'a # b'"), "msg: 'a # b'");
    }

    #[test]
    fn hash_without_leading_space_kept() {
        assert_eq!(strip_trailing_comment("anchor: a#b"), "anchor: a#b");
    }

    #[test]
    fn escaped_quote_in_double_quoted() {
        assert_eq!(
            strip_trailing_comment(r#"msg: "say \"hi\" # x" # real"#),
            r#"msg: "say \"hi\" # x""#
        );
    }

    #[test]
    fn doubled_single_quote_escape() {
        assert_eq!(
            strip_trailing_comment("msg: 'it''s # inside' # out"),
            "msg: 'it''s # inside'"
        );
    }
}
