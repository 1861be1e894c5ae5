//! Recursive-descent block parser over logical lines.

use crate::error::ParseYamlError;
use crate::lexer::{count_indent, strip_trailing_comment};
use crate::value::{resolve_plain_scalar, Mapping, Value};

/// Deepest nesting the parser follows, counted separately for block
/// structure (sequences and mappings by indentation) and for flow
/// collections (`[…]` / `{…}`) within one value. Both recurse once per
/// level, so the bound is what keeps a document of `[[[[…` or `- - - -…`
/// from overflowing the caller's stack; real playbooks stay under ten.
pub const MAX_NESTING_DEPTH: usize = 64;

fn too_deep(number: usize) -> ParseYamlError {
    ParseYamlError::new(
        number,
        format!("nesting deeper than {MAX_NESTING_DEPTH} levels"),
    )
}

/// Parses a single YAML document.
///
/// An empty stream parses as [`Value::Null`]. A leading `---` marker and a
/// trailing `...` marker are accepted.
///
/// # Errors
///
/// Returns [`ParseYamlError`] on malformed input, on unsupported YAML
/// features (anchors/aliases/tags/complex keys), on nesting deeper than
/// [`MAX_NESTING_DEPTH`], or when the stream contains more than one document
/// (use [`parse_documents`] for streams).
///
/// # Examples
///
/// ```
/// let v = wisdom_yaml::parse("---\nhosts: all\n")?;
/// assert!(v.as_map().is_some());
/// # Ok::<(), wisdom_yaml::ParseYamlError>(())
/// ```
pub fn parse(src: &str) -> Result<Value, ParseYamlError> {
    let mut docs = parse_documents(src)?;
    match docs.len() {
        0 => Ok(Value::Null),
        1 => Ok(docs.remove(0)),
        n => Err(ParseYamlError::new(
            0,
            format!("stream contains {n} documents; use parse_documents"),
        )),
    }
}

/// Parses a (possibly multi-document) YAML stream.
///
/// Documents are separated by `---` lines; `...` ends a document.
///
/// # Errors
///
/// Returns [`ParseYamlError`] on malformed input or unsupported features.
///
/// # Examples
///
/// ```
/// let docs = wisdom_yaml::parse_documents("---\na: 1\n---\nb: 2\n")?;
/// assert_eq!(docs.len(), 2);
/// # Ok::<(), wisdom_yaml::ParseYamlError>(())
/// ```
pub fn parse_documents(src: &str) -> Result<Vec<Value>, ParseYamlError> {
    let mut parser = Parser::new(src)?;
    parser.documents()
}

/// One significant line in the parser's working buffer.
#[derive(Debug, Clone)]
struct SigLine {
    indent: usize,
    content: String,
    number: usize,
}

struct Parser {
    /// Significant (non-blank, non-comment) lines.
    lines: Vec<SigLine>,
    /// All raw source lines (1-based index = number - 1), for block scalars.
    raw: Vec<String>,
    pos: usize,
    /// Block nodes currently open around `pos`.
    depth: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseYamlError> {
        let mut lines = Vec::new();
        let mut raw = Vec::new();
        for (idx, raw_line) in src.lines().enumerate() {
            let number = idx + 1;
            raw.push(raw_line.to_string());
            let indent = count_indent(raw_line, number)?;
            let body = &raw_line[indent..];
            if body.trim().is_empty() || body.trim_start().starts_with('#') {
                continue;
            }
            if body.starts_with('%') && indent == 0 {
                // %YAML / %TAG directives: tolerated and ignored.
                continue;
            }
            let content = strip_trailing_comment(body).trim_end().to_string();
            if content.is_empty() {
                continue;
            }
            lines.push(SigLine {
                indent,
                content,
                number,
            });
        }
        Ok(Self {
            lines,
            raw,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> Option<&SigLine> {
        self.lines.get(self.pos)
    }

    fn bump(&mut self) -> SigLine {
        let l = self.lines[self.pos].clone();
        self.pos += 1;
        l
    }

    /// Rewrites the current line in place (used to parse inline `- content`).
    fn replace_current(&mut self, indent: usize, content: String) {
        let l = &mut self.lines[self.pos];
        l.indent = indent;
        l.content = content;
    }

    /// Skips significant lines whose source line number is <= `number`
    /// (after a block scalar body has been consumed verbatim).
    fn skip_through_line(&mut self, number: usize) {
        while self.peek().is_some_and(|l| l.number <= number) {
            self.pos += 1;
        }
    }

    fn documents(&mut self) -> Result<Vec<Value>, ParseYamlError> {
        let mut docs = Vec::new();
        let mut saw_marker = false;
        while let Some(line) = self.peek() {
            if line.indent == 0 && line.content == "---" {
                self.pos += 1;
                saw_marker = true;
                // `---` immediately followed by another marker or EOF is an
                // empty document.
                match self.peek() {
                    None => docs.push(Value::Null),
                    Some(next) if next.indent == 0 && (next.content == "---") => {
                        docs.push(Value::Null)
                    }
                    _ => {}
                }
                continue;
            }
            if line.indent == 0 && line.content == "..." {
                self.pos += 1;
                continue;
            }
            if let Some(rest) = line.content.strip_prefix("--- ") {
                if line.indent == 0 {
                    // Inline document content on the marker line.
                    let rest = rest.trim_start().to_string();
                    let extra = 4 + (line.content.len() - 4 - rest.len());
                    self.replace_current(extra, rest);
                    let v = self.parse_block(1)?;
                    docs.push(v);
                    saw_marker = true;
                    continue;
                }
            }
            let v = self.parse_block(0)?;
            docs.push(v);
        }
        if docs.is_empty() && saw_marker {
            docs.push(Value::Null);
        }
        Ok(docs)
    }

    /// Parses the next block node whose lines are indented at least
    /// `min_indent` columns. Returns `Null` when no such node exists.
    fn parse_block(&mut self, min_indent: usize) -> Result<Value, ParseYamlError> {
        let Some(first) = self.peek() else {
            return Ok(Value::Null);
        };
        if first.indent < min_indent || self.at_document_boundary() {
            return Ok(Value::Null);
        }
        if self.depth == MAX_NESTING_DEPTH {
            return Err(too_deep(first.number));
        }
        let indent = first.indent;
        let is_seq = first.content == "-" || first.content.starts_with("- ");
        let is_map = !is_seq && split_key(&first.content, first.number)?.is_some();
        self.depth += 1;
        let node = if is_seq {
            self.parse_seq(indent)
        } else if is_map {
            self.parse_map(indent)
        } else {
            self.parse_scalar_lines(indent)
        };
        self.depth -= 1;
        node
    }

    fn at_document_boundary(&self) -> bool {
        self.peek().is_some_and(|l| {
            l.indent == 0
                && (l.content == "---" || l.content == "..." || l.content.starts_with("--- "))
        })
    }

    fn parse_seq(&mut self, indent: usize) -> Result<Value, ParseYamlError> {
        let mut items = Vec::new();
        while let Some(line) = self.peek() {
            if self.at_document_boundary() || line.indent != indent {
                break;
            }
            let number = line.number;
            if line.content == "-" {
                self.pos += 1;
                items.push(self.parse_block(indent + 1)?);
            } else if let Some(rest) = line.content.strip_prefix("- ") {
                let rest_trimmed = rest.trim_start();
                let offset = indent + 2 + (rest.len() - rest_trimmed.len());
                if let Some(header) = block_scalar_header(rest_trimmed) {
                    self.pos += 1;
                    items.push(self.parse_block_scalar(indent, header, number)?);
                } else {
                    let rest_owned = rest_trimmed.to_string();
                    self.replace_current(offset, rest_owned);
                    items.push(self.parse_block(indent + 1)?);
                }
            } else {
                break;
            }
        }
        Ok(Value::Seq(items))
    }

    fn parse_map(&mut self, indent: usize) -> Result<Value, ParseYamlError> {
        let mut map = Mapping::new();
        while let Some(line) = self.peek() {
            if self.at_document_boundary() || line.indent != indent {
                break;
            }
            let number = line.number;
            let content = line.content.clone();
            let Some((key_raw, rest)) = split_key(&content, number)? else {
                break;
            };
            let key = parse_key(key_raw, number)?;
            if map.contains_key(&key) {
                return Err(ParseYamlError::new(
                    number,
                    format!("duplicate mapping key {key:?}"),
                ));
            }
            let rest = rest.trim();
            if rest.is_empty() {
                self.pos += 1;
                // Value may be a deeper block, or a sequence at the same
                // indent (zero-indented sequences are idiomatic Ansible).
                let value = match self.peek() {
                    Some(next)
                        if !self.at_document_boundary()
                            && next.indent == indent
                            && (next.content == "-" || next.content.starts_with("- ")) =>
                    {
                        self.parse_seq(indent)?
                    }
                    Some(next) if !self.at_document_boundary() && next.indent > indent => {
                        self.parse_block(indent + 1)?
                    }
                    _ => Value::Null,
                };
                map.insert(key, value);
            } else if let Some(header) = block_scalar_header(rest) {
                self.pos += 1;
                let value = self.parse_block_scalar(indent, header, number)?;
                map.insert(key, value);
            } else {
                self.pos += 1;
                let mut value = parse_inline_value(rest, number)?;
                // Plain multi-line scalar continuation: deeper lines that are
                // not themselves structures get folded in with spaces.
                if matches!(value, Value::Str(_)) && !is_quoted_or_flow(rest) {
                    let mut folded = rest.to_string();
                    let mut extended = false;
                    while let Some(next) = self.peek() {
                        if self.at_document_boundary()
                            || next.indent <= indent
                            || next.content.starts_with("- ")
                            || next.content == "-"
                            || split_key(&next.content, next.number)?.is_some()
                        {
                            break;
                        }
                        folded.push(' ');
                        folded.push_str(next.content.trim());
                        extended = true;
                        self.pos += 1;
                    }
                    if extended {
                        value = Value::Str(folded);
                    }
                }
                map.insert(key, value);
            }
        }
        Ok(Value::Map(map))
    }

    fn parse_scalar_lines(&mut self, indent: usize) -> Result<Value, ParseYamlError> {
        let line = self.bump();
        if let Some(header) = block_scalar_header(&line.content) {
            return self.parse_block_scalar(indent.saturating_sub(1), header, line.number);
        }
        let mut text = line.content;
        // Fold plain multi-line scalars.
        while let Some(next) = self.peek() {
            if self.at_document_boundary()
                || next.indent < indent
                || next.content.starts_with("- ")
                || split_key(&next.content, next.number)?.is_some()
            {
                break;
            }
            text.push(' ');
            text.push_str(next.content.trim());
            self.pos += 1;
        }
        parse_inline_value(&text, line.number)
    }

    /// Consumes the raw body of a block scalar whose header line sits at
    /// `parent_indent` and source line `header_number`.
    fn parse_block_scalar(
        &mut self,
        parent_indent: usize,
        header: BlockHeader,
        header_number: usize,
    ) -> Result<Value, ParseYamlError> {
        let mut body: Vec<&str> = Vec::new();
        let mut last_number = header_number;
        for (idx, raw) in self.raw.iter().enumerate().skip(header_number) {
            let number = idx + 1;
            if raw.trim().is_empty() {
                body.push("");
                last_number = number;
                continue;
            }
            let ind = count_indent(raw, number)?;
            if ind <= parent_indent {
                break;
            }
            body.push(raw);
            last_number = number;
        }
        let block_indent = match header.explicit_indent {
            Some(d) => parent_indent + d,
            None => body
                .iter()
                .find(|l| !l.is_empty())
                .map(|l| l.len() - l.trim_start_matches(' ').len())
                .unwrap_or(parent_indent + 1),
        };
        let mut lines: Vec<String> = Vec::new();
        for l in &body {
            if l.len() <= block_indent {
                lines.push(l.trim_start_matches(' ').to_string());
            } else {
                lines.push(l[block_indent..].to_string());
            }
        }
        // Every content line contributes a trailing newline; chomping then
        // decides how many survive at the very end.
        let mut text = if header.folded {
            fold_lines(&lines)
        } else if lines.is_empty() {
            String::new()
        } else {
            let mut t = lines.join("\n");
            t.push('\n');
            t
        };
        match header.chomp {
            Chomp::Strip => {
                while text.ends_with('\n') {
                    text.pop();
                }
            }
            Chomp::Clip => {
                while text.ends_with('\n') {
                    text.pop();
                }
                if !text.is_empty() {
                    text.push('\n');
                }
            }
            Chomp::Keep => {}
        }
        self.skip_through_line(last_number);
        Ok(Value::Str(text))
    }
}

fn fold_lines(lines: &[String]) -> String {
    let mut out = String::new();
    let mut prev_blank = true; // treat start as paragraph boundary
    for (i, line) in lines.iter().enumerate() {
        if line.is_empty() {
            out.push('\n');
            prev_blank = true;
        } else {
            if i > 0 && !prev_blank {
                out.push(' ');
            }
            out.push_str(line);
            prev_blank = false;
        }
    }
    out.push('\n');
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chomp {
    Strip,
    Clip,
    Keep,
}

#[derive(Debug, Clone, Copy)]
struct BlockHeader {
    folded: bool,
    chomp: Chomp,
    explicit_indent: Option<usize>,
}

/// Recognizes a block scalar header (`|`, `>`, with optional chomping
/// indicator and explicit indentation digit in either order).
fn block_scalar_header(text: &str) -> Option<BlockHeader> {
    let mut chars = text.chars();
    let first = chars.next()?;
    let folded = match first {
        '|' => false,
        '>' => true,
        _ => return None,
    };
    let mut chomp = Chomp::Clip;
    let mut explicit_indent = None;
    for c in chars {
        match c {
            '-' => chomp = Chomp::Strip,
            '+' => chomp = Chomp::Keep,
            '1'..='9' => explicit_indent = Some(c as usize - '0' as usize),
            _ => return None,
        }
    }
    Some(BlockHeader {
        folded,
        chomp,
        explicit_indent,
    })
}

/// Splits a mapping line into `(raw_key, rest_after_colon)`.
/// Returns `Ok(None)` if the line is not a mapping entry.
fn split_key(content: &str, number: usize) -> Result<Option<(&str, &str)>, ParseYamlError> {
    let bytes = content.as_bytes();
    if bytes.is_empty() {
        return Ok(None);
    }
    // Quoted key.
    if bytes[0] == b'"' || bytes[0] == b'\'' {
        let quote = bytes[0];
        let mut i = 1;
        while i < bytes.len() {
            if bytes[i] == b'\\' && quote == b'"' {
                i += 2;
                continue;
            }
            if bytes[i] == quote {
                if quote == b'\'' && i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                    i += 2;
                    continue;
                }
                // Found closing quote; expect optional spaces then ':'.
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] == b' ' {
                    j += 1;
                }
                if j < bytes.len() && bytes[j] == b':' {
                    let after = j + 1;
                    if after == bytes.len() || bytes[after] == b' ' {
                        return Ok(Some((&content[..=i], &content[after..])));
                    }
                }
                return Ok(None);
            }
            i += 1;
        }
        return Err(ParseYamlError::new(number, "unterminated quoted key"));
    }
    // Plain key: find ':' followed by space or EOL, outside quotes/brackets.
    let mut depth = 0i32;
    let mut in_single = false;
    let mut in_double = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'\\' if in_double => i += 1,
            b'[' | b'{' if !in_single && !in_double => depth += 1,
            b']' | b'}' if !in_single && !in_double => depth -= 1,
            b':' if !in_single
                && !in_double
                && depth == 0
                && (i + 1 == bytes.len() || bytes[i + 1] == b' ') =>
            {
                let key = &content[..i];
                // A key cannot itself be a flow collection opener.
                if key.starts_with('[') || key.starts_with('{') {
                    return Ok(None);
                }
                return Ok(Some((key, &content[i + 1..])));
            }
            _ => {}
        }
        i += 1;
    }
    Ok(None)
}

fn parse_key(raw: &str, number: usize) -> Result<String, ParseYamlError> {
    let t = raw.trim();
    if t.starts_with('?') {
        return Err(ParseYamlError::new(number, "complex keys are unsupported"));
    }
    if t.starts_with('"') || t.starts_with('\'') {
        match parse_inline_value(t, number)? {
            Value::Str(s) => Ok(s),
            other => Ok(other.scalar_repr()),
        }
    } else {
        Ok(t.to_string())
    }
}

fn is_quoted_or_flow(text: &str) -> bool {
    matches!(
        text.trim_start().as_bytes().first(),
        Some(b'"' | b'\'' | b'[' | b'{')
    )
}

/// Parses a single-line value: a flow collection, a quoted scalar, or a plain
/// scalar with type resolution.
pub(crate) fn parse_inline_value(text: &str, number: usize) -> Result<Value, ParseYamlError> {
    let t = text.trim();
    if t.is_empty() {
        return Ok(Value::Null);
    }
    match t.as_bytes()[0] {
        b'&' | b'*' => {
            return Err(ParseYamlError::new(
                number,
                "anchors and aliases are unsupported",
            ))
        }
        b'!' => {
            return Err(ParseYamlError::new(number, "tags are unsupported"));
        }
        b'"' | b'\'' => {
            let mut cursor = Cursor::new(t, number);
            let v = cursor.quoted_string()?;
            cursor.skip_ws();
            if !cursor.at_end() {
                return Err(ParseYamlError::new(
                    number,
                    "unexpected trailing content after quoted scalar",
                ));
            }
            return Ok(Value::Str(v));
        }
        b'[' | b'{' => {
            let mut cursor = Cursor::new(t, number);
            match cursor.flow_value().and_then(|v| {
                cursor.skip_ws();
                if cursor.at_end() {
                    Ok(v)
                } else {
                    Err(ParseYamlError::new(number, "trailing content"))
                }
            }) {
                Ok(v) => return Ok(v),
                // Jinja templates like `{{ var }}` are not valid flow YAML
                // but ubiquitous in Ansible; fall back to a plain string.
                Err(_) if t.starts_with("{{") || t.starts_with("{%") => {
                    return Ok(Value::Str(t.to_string()))
                }
                Err(e) => return Err(e),
            }
        }
        _ => {}
    }
    Ok(resolve_plain_scalar(t))
}

/// Character cursor for flow-style parsing within a single line.
struct Cursor<'a> {
    bytes: &'a [u8],
    text: &'a str,
    i: usize,
    number: usize,
    /// Flow collections currently open around `i`.
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str, number: usize) -> Self {
        Self {
            bytes: text.as_bytes(),
            text,
            i: 0,
            number,
            depth: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.i >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek() == Some(b' ') {
            self.i += 1;
        }
    }

    fn err(&self, msg: &str) -> ParseYamlError {
        ParseYamlError::new(self.number, format!("{msg} (column {})", self.i + 1))
    }

    fn flow_value(&mut self) -> Result<Value, ParseYamlError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => self.flow_nested(Self::flow_seq),
            Some(b'{') => self.flow_nested(Self::flow_map),
            Some(b'"') | Some(b'\'') => Ok(Value::Str(self.quoted_string()?)),
            Some(_) => Ok(resolve_plain_scalar(self.flow_plain())),
            None => Ok(Value::Null),
        }
    }

    /// Parses one flow collection, counting it against
    /// [`MAX_NESTING_DEPTH`].
    fn flow_nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseYamlError>,
    ) -> Result<Value, ParseYamlError> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(too_deep(self.number));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn flow_seq(&mut self) -> Result<Value, ParseYamlError> {
        self.i += 1; // consume '['
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Seq(items));
                }
                None => return Err(self.err("unterminated flow sequence")),
                _ => {}
            }
            items.push(self.flow_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {}
                _ => return Err(self.err("expected ',' or ']' in flow sequence")),
            }
        }
    }

    fn flow_map(&mut self) -> Result<Value, ParseYamlError> {
        self.i += 1; // consume '{'
        let mut map = Mapping::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Map(map));
                }
                None => return Err(self.err("unterminated flow mapping")),
                _ => {}
            }
            let key = match self.peek() {
                Some(b'"') | Some(b'\'') => self.quoted_string()?,
                _ => self.flow_plain_key().to_string(),
            };
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' in flow mapping"));
            }
            self.i += 1;
            let value = self.flow_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {}
                _ => return Err(self.err("expected ',' or '}' in flow mapping")),
            }
        }
    }

    /// A plain scalar inside a flow context: runs until , ] } or ':'+space.
    fn flow_plain(&mut self) -> &'a str {
        let start = self.i;
        while let Some(b) = self.peek() {
            match b {
                b',' | b']' | b'}' => break,
                b':' if matches!(self.bytes.get(self.i + 1), Some(b' ') | None) => break,
                _ => self.i += 1,
            }
        }
        self.text[start..self.i].trim()
    }

    /// A plain key inside a flow mapping: runs until ':'.
    fn flow_plain_key(&mut self) -> &'a str {
        let start = self.i;
        while let Some(b) = self.peek() {
            if b == b':' || b == b',' || b == b'}' {
                break;
            }
            self.i += 1;
        }
        self.text[start..self.i].trim()
    }

    fn quoted_string(&mut self) -> Result<String, ParseYamlError> {
        let quote = self.peek().expect("caller checked quote");
        self.i += 1;
        let mut out = String::new();
        while let Some(b) = self.peek() {
            if b == quote {
                if quote == b'\'' && self.bytes.get(self.i + 1) == Some(&b'\'') {
                    out.push('\'');
                    self.i += 2;
                    continue;
                }
                self.i += 1;
                return Ok(out);
            }
            if b == b'\\' && quote == b'"' {
                self.i += 1;
                match self.peek() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'0') => out.push('\0'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'"') => out.push('"'),
                    Some(b'\'') => out.push('\''),
                    Some(other) => {
                        out.push('\\');
                        out.push(other as char);
                    }
                    None => return Err(self.err("dangling escape")),
                }
                self.i += 1;
                continue;
            }
            // Copy one UTF-8 character.
            let ch_len = utf8_len(b);
            out.push_str(&self.text[self.i..self.i + ch_len]);
            self.i += ch_len;
        }
        Err(self.err("unterminated quoted scalar"))
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn map_get<'a>(v: &'a Value, k: &str) -> &'a Value {
        v.as_map().unwrap().get(k).unwrap()
    }

    #[test]
    fn simple_mapping() {
        let v = parse("name: Install nginx\nstate: present\ncount: 2\n").unwrap();
        assert_eq!(map_get(&v, "name").as_str(), Some("Install nginx"));
        assert_eq!(map_get(&v, "count").as_int(), Some(2));
    }

    #[test]
    fn nested_mapping() {
        let v = parse("apt:\n  name: nginx\n  state: latest\n").unwrap();
        let apt = map_get(&v, "apt");
        assert_eq!(
            apt.as_map().unwrap().get("name").unwrap().as_str(),
            Some("nginx")
        );
    }

    #[test]
    fn top_level_sequence_of_maps() {
        let v = parse("- name: a\n  cmd: ls\n- name: b\n").unwrap();
        let s = v.as_seq().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(
            s[0].as_map().unwrap().get("cmd").unwrap().as_str(),
            Some("ls")
        );
        assert_eq!(s[1].as_map().unwrap().len(), 1);
    }

    #[test]
    fn zero_indented_sequence_under_key() {
        let v = parse("tasks:\n- name: one\n- name: two\n").unwrap();
        let tasks = map_get(&v, "tasks").as_seq().unwrap();
        assert_eq!(tasks.len(), 2);
    }

    #[test]
    fn indented_sequence_under_key() {
        let v = parse("tasks:\n  - name: one\n  - name: two\n").unwrap();
        let tasks = map_get(&v, "tasks").as_seq().unwrap();
        assert_eq!(tasks.len(), 2);
    }

    #[test]
    fn paper_figure_1_playbook() {
        let src = "---\n- hosts: servers\n  tasks:\n    - name: Install SSH server\n      ansible.builtin.apt:\n        name: openssh-server\n        state: present\n    - name: Start SSH server\n      ansible.builtin.service:\n        name: ssh\n        state: started\n";
        let v = parse(src).unwrap();
        let plays = v.as_seq().unwrap();
        assert_eq!(plays.len(), 1);
        let play = plays[0].as_map().unwrap();
        assert_eq!(play.get("hosts").unwrap().as_str(), Some("servers"));
        let tasks = play.get("tasks").unwrap().as_seq().unwrap();
        assert_eq!(tasks.len(), 2);
        let apt = tasks[0]
            .as_map()
            .unwrap()
            .get("ansible.builtin.apt")
            .unwrap();
        assert_eq!(
            apt.as_map().unwrap().get("state").unwrap().as_str(),
            Some("present")
        );
    }

    #[test]
    fn flow_collections() {
        let v = parse("ports: [80, 443]\nopts: {retries: 3, delay: 5}\n").unwrap();
        assert_eq!(
            map_get(&v, "ports").as_seq().unwrap(),
            &[Value::Int(80), Value::Int(443)]
        );
        let opts = map_get(&v, "opts").as_map().unwrap();
        assert_eq!(opts.get("retries").unwrap().as_int(), Some(3));
    }

    #[test]
    fn nested_flow() {
        let v = parse("matrix: [[1, 2], [3, 4]]\n").unwrap();
        let m = map_get(&v, "matrix").as_seq().unwrap();
        assert_eq!(m[1].as_seq().unwrap()[0], Value::Int(3));
    }

    #[test]
    fn quoted_scalars() {
        let v = parse("a: \"hello: world\"\nb: 'it''s fine'\nc: \"line\\nbreak\"\n").unwrap();
        assert_eq!(map_get(&v, "a").as_str(), Some("hello: world"));
        assert_eq!(map_get(&v, "b").as_str(), Some("it's fine"));
        assert_eq!(map_get(&v, "c").as_str(), Some("line\nbreak"));
    }

    #[test]
    fn jinja_template_values() {
        let v =
            parse("src: '{{ item.src }}'\ndest: /etc/{{ name }}.conf\nraw: {{ var }}\n").unwrap();
        assert_eq!(map_get(&v, "src").as_str(), Some("{{ item.src }}"));
        assert_eq!(map_get(&v, "dest").as_str(), Some("/etc/{{ name }}.conf"));
        assert_eq!(map_get(&v, "raw").as_str(), Some("{{ var }}"));
    }

    #[test]
    fn literal_block_scalar() {
        let v = parse("script: |\n  line one\n  line two\nafter: 1\n").unwrap();
        assert_eq!(map_get(&v, "script").as_str(), Some("line one\nline two\n"));
        assert_eq!(map_get(&v, "after").as_int(), Some(1));
    }

    #[test]
    fn literal_block_strip_and_keep() {
        let v = parse("a: |-\n  x\n\nb: |+\n  y\n\nc: 1\n").unwrap();
        assert_eq!(map_get(&v, "a").as_str(), Some("x"));
        assert_eq!(map_get(&v, "b").as_str(), Some("y\n\n"));
        assert_eq!(map_get(&v, "c").as_int(), Some(1));
    }

    #[test]
    fn folded_block_scalar() {
        let v = parse("msg: >\n  hello\n  world\n\n  new para\n").unwrap();
        assert_eq!(map_get(&v, "msg").as_str(), Some("hello world\nnew para\n"));
    }

    #[test]
    fn block_scalar_preserves_inner_structure() {
        let v =
            parse("cmd: |\n  if [ -f /x ]; then\n    echo hi  # not a comment\n  fi\n").unwrap();
        assert_eq!(
            map_get(&v, "cmd").as_str(),
            Some("if [ -f /x ]; then\n  echo hi  # not a comment\nfi\n")
        );
    }

    #[test]
    fn block_scalar_in_sequence_item() {
        let v = parse("- |\n  body\n- after\n").unwrap();
        let s = v.as_seq().unwrap();
        assert_eq!(s[0].as_str(), Some("body\n"));
        assert_eq!(s[1].as_str(), Some("after"));
    }

    #[test]
    fn comments_are_ignored() {
        let v = parse("# header\na: 1 # trailing\n# middle\nb: 2\n").unwrap();
        assert_eq!(map_get(&v, "a").as_int(), Some(1));
        assert_eq!(map_get(&v, "b").as_int(), Some(2));
    }

    #[test]
    fn multi_document_stream() {
        let docs = parse_documents("---\na: 1\n---\n- x\n- y\n").unwrap();
        assert_eq!(docs.len(), 2);
        assert!(docs[0].as_map().is_some());
        assert_eq!(docs[1].as_seq().unwrap().len(), 2);
    }

    #[test]
    fn document_end_marker() {
        let docs = parse_documents("---\na: 1\n...\n").unwrap();
        assert_eq!(docs.len(), 1);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(parse("").unwrap(), Value::Null);
        assert_eq!(parse("\n\n# only comments\n").unwrap(), Value::Null);
        assert_eq!(parse("---\n").unwrap(), Value::Null);
    }

    #[test]
    fn null_values() {
        let v = parse("a:\nb: ~\nc: null\n").unwrap();
        assert!(map_get(&v, "a").is_null());
        assert!(map_get(&v, "b").is_null());
        assert!(map_get(&v, "c").is_null());
    }

    #[test]
    fn nested_sequence_items() {
        let v = parse("-\n  - 1\n  - 2\n- 3\n").unwrap();
        let s = v.as_seq().unwrap();
        assert_eq!(s[0].as_seq().unwrap().len(), 2);
        assert_eq!(s[1].as_int(), Some(3));
    }

    #[test]
    fn inline_nested_sequence() {
        let v = parse("- - 1\n  - 2\n- 3\n").unwrap();
        let s = v.as_seq().unwrap();
        assert_eq!(s[0].as_seq().unwrap().len(), 2);
        assert_eq!(s[1].as_int(), Some(3));
    }

    #[test]
    fn key_with_colon_no_space() {
        let v = parse("url: http://example.com:8080/x\n").unwrap();
        assert_eq!(
            map_get(&v, "url").as_str(),
            Some("http://example.com:8080/x")
        );
    }

    #[test]
    fn quoted_key() {
        let v = parse("\"weird: key\": 1\n'other': 2\n").unwrap();
        assert_eq!(map_get(&v, "weird: key").as_int(), Some(1));
        assert_eq!(map_get(&v, "other").as_int(), Some(2));
    }

    #[test]
    fn duplicate_key_rejected() {
        let err = parse("a: 1\na: 2\n").unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn anchors_rejected() {
        assert!(parse("a: &anchor 1\n").is_err());
        assert!(parse("a: *alias\n").is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(parse("a: \"oops\n").is_err());
        assert!(parse("a: [1, 2\n").is_err());
    }

    #[test]
    fn multiline_plain_scalar_folds() {
        let v = parse("desc: first part\n  second part\nnext: 1\n").unwrap();
        assert_eq!(map_get(&v, "desc").as_str(), Some("first part second part"));
        assert_eq!(map_get(&v, "next").as_int(), Some(1));
    }

    #[test]
    fn vars_with_mixed_types() {
        let v = parse(
            "vars:\n  http_port: 8080\n  ratio: 0.75\n  debug: false\n  tags:\n    - web\n    - prod\n",
        )
        .unwrap();
        let vars = map_get(&v, "vars").as_map().unwrap();
        assert_eq!(vars.get("http_port").unwrap().as_int(), Some(8080));
        assert_eq!(vars.get("ratio").unwrap().as_float(), Some(0.75));
        assert_eq!(vars.get("debug").unwrap().as_bool(), Some(false));
        assert_eq!(vars.get("tags").unwrap().as_seq().unwrap().len(), 2);
    }

    #[test]
    fn deeply_nested_structure() {
        let v = parse("a:\n  b:\n    c:\n      - d:\n          e: 1\n").unwrap();
        let e = v
            .as_map()
            .unwrap()
            .get("a")
            .unwrap()
            .as_map()
            .unwrap()
            .get("b")
            .unwrap()
            .as_map()
            .unwrap()
            .get("c")
            .unwrap()
            .as_seq()
            .unwrap()[0]
            .as_map()
            .unwrap()
            .get("d")
            .unwrap()
            .as_map()
            .unwrap()
            .get("e")
            .unwrap()
            .as_int();
        assert_eq!(e, Some(1));
    }

    #[test]
    fn nesting_is_bounded() {
        let flow = |depth: usize| format!("a: {}{}\n", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&flow(MAX_NESTING_DEPTH)).is_ok());
        let err = parse(&flow(MAX_NESTING_DEPTH + 1)).unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.message().contains("nesting"), "{err}");
        // Block structure: nested sequences on one line, then by indentation.
        let inline = |depth: usize| format!("{}x\n", "- ".repeat(depth));
        assert!(parse(&inline(MAX_NESTING_DEPTH - 1)).is_ok());
        assert!(parse(&inline(MAX_NESTING_DEPTH + 1)).is_err());
        let indented = |depth: usize| -> String {
            (0..depth)
                .map(|d| format!("{}k:\n", "  ".repeat(d)))
                .collect()
        };
        assert!(parse(&indented(MAX_NESTING_DEPTH - 1)).is_ok());
        assert!(parse(&indented(MAX_NESTING_DEPTH + 1)).is_err());
        // A megabyte of openers is an error, not a stack overflow.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{a: ".repeat(1 << 18)).is_err());
        assert!(parse(&"- ".repeat(1 << 19)).is_err());
    }

    #[test]
    fn directive_lines_ignored() {
        let v = parse("%YAML 1.2\n---\na: 1\n").unwrap();
        assert_eq!(map_get(&v, "a").as_int(), Some(1));
    }
}
