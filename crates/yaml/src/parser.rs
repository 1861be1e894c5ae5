//! Recursive-descent block parser over logical lines.
//!
//! The line index and the tree both borrow from the source: a significant
//! line is a `&str` slice of it, and a key or scalar is copied only when its
//! text differs from the source (escapes, `''`, folded plain continuations,
//! block scalars).

use std::borrow::Cow;

use crate::error::ParseYamlError;
use crate::lexer::{count_indent, strip_trailing_comment};
use crate::scalar::resolve_plain_scalar;
use crate::value::{Mapping, Value};

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
/// trailing `...` marker are accepted. The tree borrows from `src`; call
/// [`Value::into_owned`] to keep it longer.
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
pub fn parse(src: &str) -> Result<Value<'_>, ParseYamlError> {
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
pub fn parse_documents(src: &str) -> Result<Vec<Value<'_>>, ParseYamlError> {
    let mut parser = Parser::new(src)?;
    parser.documents()
}

/// One significant line in the parser's working buffer.
#[derive(Debug, Clone, Copy)]
struct SigLine<'a> {
    indent: usize,
    content: &'a str,
    number: usize,
    /// Byte offset of the raw source line, where a block scalar whose
    /// header sits on this line starts reading its body.
    start: usize,
}

struct Parser<'a> {
    src: &'a str,
    /// Significant (non-blank, non-comment) lines.
    lines: Vec<SigLine<'a>>,
    pos: usize,
    /// Block nodes currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, ParseYamlError> {
        let mut lines = Vec::new();
        for (idx, raw_line) in src.lines().enumerate() {
            let number = idx + 1;
            let indent = count_indent(raw_line, number)?;
            let body = &raw_line[indent..];
            if body.trim().is_empty() || body.trim_start().starts_with('#') {
                continue;
            }
            if body.starts_with('%') && indent == 0 {
                // %YAML / %TAG directives: tolerated and ignored.
                continue;
            }
            let content = strip_trailing_comment(body).trim_end();
            if content.is_empty() {
                continue;
            }
            lines.push(SigLine {
                indent,
                content,
                number,
                start: raw_line.as_ptr() as usize - src.as_ptr() as usize,
            });
        }
        Ok(Self {
            src,
            lines,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> Option<SigLine<'a>> {
        self.lines.get(self.pos).copied()
    }

    fn bump(&mut self) -> SigLine<'a> {
        let l = self.lines[self.pos];
        self.pos += 1;
        l
    }

    /// Rewrites the current line in place (used to parse inline `- content`).
    fn replace_current(&mut self, indent: usize, content: &'a str) {
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

    fn documents(&mut self) -> Result<Vec<Value<'a>>, ParseYamlError> {
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
                    let rest = rest.trim_start();
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
    fn parse_block(&mut self, min_indent: usize) -> Result<Value<'a>, ParseYamlError> {
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
        let is_seq = is_seq_entry(first.content);
        let is_map = !is_seq && split_key(first.content, first.number)?.is_some();
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

    fn parse_seq(&mut self, indent: usize) -> Result<Value<'a>, ParseYamlError> {
        let mut items = Vec::new();
        while let Some(line) = self.peek() {
            if self.at_document_boundary() || line.indent != indent {
                break;
            }
            if line.content == "-" {
                self.pos += 1;
                items.push(self.parse_block(indent + 1)?);
            } else if let Some(rest) = line.content.strip_prefix("- ") {
                let rest_trimmed = rest.trim_start();
                let offset = indent + 2 + (rest.len() - rest_trimmed.len());
                if let Some(header) = block_scalar_header(rest_trimmed) {
                    self.pos += 1;
                    items.push(self.parse_block_scalar(indent, header, line)?);
                } else {
                    self.replace_current(offset, rest_trimmed);
                    items.push(self.parse_block(indent + 1)?);
                }
            } else {
                break;
            }
        }
        Ok(Value::Seq(items))
    }

    fn parse_map(&mut self, indent: usize) -> Result<Value<'a>, ParseYamlError> {
        let mut map = Mapping::new();
        while let Some(line) = self.peek() {
            if self.at_document_boundary() || line.indent != indent {
                break;
            }
            let number = line.number;
            let Some((key_raw, rest)) = split_key(line.content, number)? else {
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
            self.pos += 1;
            let value = if rest.is_empty() {
                // Value may be a deeper block, or a sequence at the same
                // indent (zero-indented sequences are idiomatic Ansible).
                match self.peek() {
                    Some(next)
                        if !self.at_document_boundary()
                            && next.indent == indent
                            && is_seq_entry(next.content) =>
                    {
                        self.parse_seq(indent)?
                    }
                    Some(next) if !self.at_document_boundary() && next.indent > indent => {
                        self.parse_block(indent + 1)?
                    }
                    _ => Value::Null,
                }
            } else if let Some(header) = block_scalar_header(rest) {
                self.parse_block_scalar(indent, header, line)?
            } else {
                let value = parse_inline_value(rest, number)?;
                // Plain multi-line scalar continuation: deeper lines that are
                // not themselves structures get folded in with spaces.
                let quoted_or_flow = matches!(rest.as_bytes()[0], b'"' | b'\'' | b'[' | b'{');
                if matches!(value, Value::Str(_)) && !quoted_or_flow {
                    let ends = |next: &SigLine| next.indent <= indent || next.content == "-";
                    match self.fold_continuation(rest, ends)? {
                        Some(folded) => Value::Str(Cow::Owned(folded)),
                        None => value,
                    }
                } else {
                    value
                }
            };
            map.push_new(key, value);
        }
        Ok(Value::Map(map))
    }

    /// Appends the following plain continuation lines to `first`, each
    /// trimmed and joined by one space; `None` when there are none. A line
    /// ends the scalar when `ends` holds, at a document marker, or when it
    /// opens a `- ` sequence entry or a mapping key.
    fn fold_continuation(
        &mut self,
        first: &str,
        ends: impl Fn(&SigLine<'a>) -> bool,
    ) -> Result<Option<String>, ParseYamlError> {
        let mut folded: Option<String> = None;
        while let Some(next) = self.peek() {
            if self.at_document_boundary()
                || ends(&next)
                || next.content.starts_with("- ")
                || split_key(next.content, next.number)?.is_some()
            {
                break;
            }
            let text = folded.get_or_insert_with(|| first.to_string());
            text.push(' ');
            text.push_str(next.content.trim());
            self.pos += 1;
        }
        Ok(folded)
    }

    fn parse_scalar_lines(&mut self, indent: usize) -> Result<Value<'a>, ParseYamlError> {
        let line = self.bump();
        if let Some(header) = block_scalar_header(line.content) {
            return self.parse_block_scalar(indent.saturating_sub(1), header, line);
        }
        // Fold plain multi-line scalars.
        match self.fold_continuation(line.content, |next| next.indent < indent)? {
            None => parse_inline_value(line.content, line.number),
            Some(text) => parse_inline_value(&text, line.number).map(Value::into_owned),
        }
    }

    /// Consumes the raw body of a block scalar whose header line `header`
    /// sits at `parent_indent`.
    ///
    /// A body line indented less than the block (possible only after an
    /// explicit indentation digit or a deeper first line) keeps its text
    /// with the leading spaces trimmed; it does not end the scalar.
    fn parse_block_scalar(
        &mut self,
        parent_indent: usize,
        header: BlockHeader,
        header_line: SigLine<'a>,
    ) -> Result<Value<'a>, ParseYamlError> {
        let mut body: Vec<&str> = Vec::new();
        let mut last_number = header_line.number;
        let from_header = &self.src[header_line.start..];
        for (k, raw) in from_header.lines().enumerate().skip(1) {
            let number = header_line.number + k;
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
                .map(|l| leading_spaces(l))
                .unwrap_or(parent_indent + 1),
        };
        for l in &mut body {
            *l = if leading_spaces(l) < block_indent {
                l.trim_start_matches(' ')
            } else {
                &l[block_indent..]
            };
        }
        // Every content line contributes a trailing newline; chomping then
        // decides how many survive at the very end.
        let mut text = if header.folded {
            fold_lines(&body)
        } else if body.is_empty() {
            String::new()
        } else {
            let mut t = body.join("\n");
            t.push('\n');
            t
        };
        if header.chomp != Chomp::Keep {
            text.truncate(text.trim_end_matches('\n').len());
            if header.chomp == Chomp::Clip && !text.is_empty() {
                text.push('\n');
            }
        }
        self.skip_through_line(last_number);
        Ok(Value::Str(Cow::Owned(text)))
    }
}

fn is_seq_entry(content: &str) -> bool {
    content == "-" || content.starts_with("- ")
}

fn leading_spaces(line: &str) -> usize {
    line.len() - line.trim_start_matches(' ').len()
}

fn fold_lines(lines: &[&str]) -> String {
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

fn parse_key(raw: &str, number: usize) -> Result<Cow<'_, str>, ParseYamlError> {
    let t = raw.trim();
    if t.starts_with('?') {
        return Err(ParseYamlError::new(number, "complex keys are unsupported"));
    }
    if t.starts_with('"') || t.starts_with('\'') {
        match parse_inline_value(t, number)? {
            Value::Str(s) => Ok(s),
            other => Ok(Cow::Owned(other.scalar_repr())),
        }
    } else {
        Ok(Cow::Borrowed(t))
    }
}

/// Parses a single-line value: a flow collection, a quoted scalar, or a plain
/// scalar with type resolution.
pub(crate) fn parse_inline_value(text: &str, number: usize) -> Result<Value<'_>, ParseYamlError> {
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
                    return Ok(Value::Str(Cow::Borrowed(t)))
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

    fn flow_value(&mut self) -> Result<Value<'a>, ParseYamlError> {
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
        parse: fn(&mut Self) -> Result<Value<'a>, ParseYamlError>,
    ) -> Result<Value<'a>, ParseYamlError> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(too_deep(self.number));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn flow_seq(&mut self) -> Result<Value<'a>, ParseYamlError> {
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

    fn flow_map(&mut self) -> Result<Value<'a>, ParseYamlError> {
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
                _ => Cow::Borrowed(self.flow_plain_key()),
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

    /// A quoted scalar starting at the opening quote. Borrowed when the body
    /// holds no escape (`\` in double quotes, `''` in single quotes);
    /// otherwise decoded into an owned string, begun at the first escape.
    fn quoted_string(&mut self) -> Result<Cow<'a, str>, ParseYamlError> {
        let quote = self.peek().expect("caller checked quote");
        self.i += 1;
        let mut decoded: Option<String> = None;
        loop {
            let run = self.i;
            while self
                .peek()
                .is_some_and(|b| b != quote && !(b == b'\\' && quote == b'"'))
            {
                self.i += 1;
            }
            let text = &self.text[run..self.i];
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated quoted scalar"));
            };
            self.i += 1;
            let doubled = quote == b'\'' && self.peek() == Some(b'\'');
            if b == quote && !doubled {
                return Ok(match decoded {
                    None => Cow::Borrowed(text),
                    Some(mut out) => {
                        out.push_str(text);
                        Cow::Owned(out)
                    }
                });
            }
            let out = decoded.get_or_insert_with(String::new);
            out.push_str(text);
            if doubled {
                out.push('\'');
                self.i += 1;
                continue;
            }
            // A backslash inside double quotes.
            let escaped = match self.peek() {
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'0') => '\0',
                Some(b'\\') => '\\',
                Some(b'"') => '"',
                Some(b'\'') => '\'',
                Some(_) => {
                    // Unknown escape: kept verbatim, backslash and the whole
                    // (possibly multi-byte) character.
                    out.push('\\');
                    self.text[self.i..].chars().next().expect("peeked")
                }
                None => return Err(self.err("dangling escape")),
            };
            out.push(escaped);
            self.i += escaped.len_utf8();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn map_get<'v, 'a>(v: &'v Value<'a>, k: &str) -> &'v Value<'a> {
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

    #[test]
    fn plain_keys_and_scalars_borrow_from_the_source() {
        let v =
            parse("name: Install nginx\nq: 'as is'\ne: \"a\\tb\"\nf: first\n  second\n").unwrap();
        let m = v.as_map().unwrap();
        let cow = |k: &str| match m.get(k) {
            Some(Value::Str(s)) => matches!(s, Cow::Borrowed(_)),
            other => panic!("{k}: {other:?}"),
        };
        assert!(cow("name") && cow("q"));
        assert!(!cow("e") && !cow("f"), "escapes and folds own their text");
        assert_eq!(m.get("e").unwrap().as_str(), Some("a\tb"));
    }

    #[test]
    fn under_indented_block_lines_keep_their_trimmed_text() {
        // A line indented less than an explicit (or detected) block indent
        // used to be sliced at the block indent, cutting into a UTF-8
        // character; it now keeps its text with the leading spaces trimmed.
        let v = parse("a: |2\n éé\n").unwrap();
        assert_eq!(map_get(&v, "a").as_str(), Some("éé\n"));
        let v = parse("- |3\n  éé\n").unwrap();
        assert_eq!(v.as_seq().unwrap()[0].as_str(), Some("éé\n"));
        let v = parse("a: >2\n é\n").unwrap();
        assert_eq!(map_get(&v, "a").as_str(), Some("é\n"));
        let v = parse("a: |\n    x\n   é\n  abc\n").unwrap();
        assert_eq!(map_get(&v, "a").as_str(), Some("x\né\nabc\n"));
    }

    #[test]
    fn unknown_escape_keeps_the_whole_character() {
        let v = parse("a: \"x\\éy\\q\"\n").unwrap();
        assert_eq!(map_get(&v, "a").as_str(), Some("x\\éy\\q"));
    }
}
