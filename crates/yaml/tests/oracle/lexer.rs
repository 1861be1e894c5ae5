//! Line-oriented lexical analysis: splits source text into indented content
//! lines with comments stripped, which the block parser then consumes.

use super::ParseYamlError;

/// Counts leading spaces; tabs in indentation are a hard error (YAML forbids
/// them).
pub fn count_indent(raw: &str, number: usize) -> Result<usize, ParseYamlError> {
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
pub fn strip_trailing_comment(body: &str) -> &str {
    let bytes = body.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' if !in_double => {
                // '' inside a single-quoted scalar is an escaped quote.
                if in_single && i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                    i += 1;
                } else {
                    in_single = !in_single;
                }
            }
            b'"' if !in_single => {
                in_double = !in_double;
            }
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
