//! Deterministic shard writer: fixed-size shards of framed documents with
//! per-shard checksums.
//!
//! Shards are built strictly in curated-document order, so the bytes of
//! every shard — and therefore the manifest's checksums — are a pure
//! function of the kept document sequence, independent of how many workers
//! produced it. Each document is framed by a comment header carrying its
//! source channel and byte length, so shards remain valid YAML streams for
//! tokenizer training while staying mechanically splittable. The header is
//! one line whatever the source label holds: `\`, line feed and carriage
//! return are escaped as `\\`, `\n` and `\r`, and the length is the number
//! after the header's last ` bytes=`.

use std::borrow::Cow;
use std::io::Write as _;
use std::path::Path;

/// One finished shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Deterministic file name (`shard-00000.yamls`, …).
    pub name: String,
    /// Number of documents framed inside.
    pub docs: usize,
    /// The shard's bytes.
    pub bytes: Vec<u8>,
    /// FNV-1a 64 checksum of `bytes`.
    pub checksum: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Accumulates curated documents into fixed-size shards.
#[derive(Debug)]
pub struct ShardWriter {
    docs_per_shard: usize,
    current: Vec<u8>,
    current_docs: usize,
    shards: Vec<Shard>,
}

impl ShardWriter {
    /// Creates a writer that seals a shard every `docs_per_shard` documents.
    ///
    /// # Panics
    ///
    /// Panics if `docs_per_shard == 0`.
    pub fn new(docs_per_shard: usize) -> Self {
        assert!(docs_per_shard > 0, "docs_per_shard must be positive");
        Self {
            docs_per_shard,
            current: Vec::new(),
            current_docs: 0,
            shards: Vec::new(),
        }
    }

    /// Appends one document, sealing the current shard if it is full.
    pub fn add(&mut self, source: &str, text: &str) {
        let source = escape_label(source);
        writeln!(self.current, "# doc source={} bytes={}", source, text.len())
            .expect("writing to a Vec cannot fail");
        self.current.extend_from_slice(text.as_bytes());
        if !text.ends_with('\n') {
            self.current.push(b'\n');
        }
        self.current_docs += 1;
        if self.current_docs == self.docs_per_shard {
            self.seal();
        }
    }

    fn seal(&mut self) {
        if self.current_docs == 0 {
            return;
        }
        let bytes = std::mem::take(&mut self.current);
        let shard = Shard {
            name: format!("shard-{:05}.yamls", self.shards.len()),
            docs: self.current_docs,
            checksum: fnv1a(&bytes),
            bytes,
        };
        self.current_docs = 0;
        self.shards.push(shard);
    }

    /// Seals any partial shard and returns the full shard list.
    pub fn finish(mut self) -> Vec<Shard> {
        self.seal();
        self.shards
    }
}

/// A source label as a frame header carries it: on one line, with `\`,
/// line feed and carriage return escaped. Any other label is unchanged.
fn escape_label(source: &str) -> Cow<'_, str> {
    if !source.contains(['\\', '\n', '\r']) {
        return Cow::Borrowed(source);
    }
    let mut out = String::with_capacity(source.len() + 8);
    for ch in source.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            ch => out.push(ch),
        }
    }
    Cow::Owned(out)
}

/// Inverts [`escape_label`].
fn unescape_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut chars = label.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(escaped) => out.push(escaped),
            None => out.push('\\'),
        }
    }
    out
}

/// Writes shards to `dir` (created if missing), one file per shard.
pub fn write_shards(dir: &Path, shards: &[Shard]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for shard in shards {
        let mut f = std::fs::File::create(dir.join(&shard.name))?;
        f.write_all(&shard.bytes)?;
    }
    Ok(())
}

/// Reassembles the document texts framed inside a shard (used by tests and
/// by consumers that want the curated corpus back in memory).
pub fn unframe(shard: &Shard) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let text = std::str::from_utf8(&shard.bytes).expect("shards are utf-8");
    let mut rest = text;
    while let Some(line_end) = rest.find('\n') {
        let header = &rest[..line_end];
        let body_start = line_end + 1;
        let Some(src) = header.strip_prefix("# doc source=") else {
            break;
        };
        let (source, len) = src.rsplit_once(" bytes=").expect("framed header");
        let len: usize = len.parse().expect("framed length");
        let body = &rest[body_start..body_start + len];
        out.push((unescape_label(source), body.to_string()));
        let mut next = body_start + len;
        if rest.as_bytes().get(next) == Some(&b'\n') && !body.ends_with('\n') {
            next += 1;
        }
        rest = &rest[next.min(rest.len())..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seals_full_shards_and_final_partial() {
        let mut w = ShardWriter::new(2);
        for i in 0..5 {
            w.add("galaxy", &format!("- name: Task {i}\n"));
        }
        let shards = w.finish();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].docs, 2);
        assert_eq!(shards[2].docs, 1);
        assert_eq!(shards[0].name, "shard-00000.yamls");
        assert_eq!(shards[2].name, "shard-00002.yamls");
    }

    #[test]
    fn checksums_are_content_determined() {
        let build = || {
            let mut w = ShardWriter::new(8);
            w.add("gitlab", "- name: A\n  ping: {}\n");
            w.add("generic", "key: value\n");
            w.finish()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_ne!(a[0].checksum, 0);
    }

    #[test]
    fn unframe_round_trips() {
        let docs = [
            ("galaxy", "- name: First\n  ping: {}\n"),
            ("generic", "no trailing newline"),
            ("gitlab", "---\n- name: Doc marker inside\n"),
            // Labels holding header syntax: a ` bytes=`, line breaks, and
            // backslashes before `n` and at the end.
            ("disk:x bytes=1.yml", "a: 1\n"),
            ("disk:two\nlines\r\n bytes=9", "b: 2\n"),
            ("disk:back\\slash\\n\\", "c: 3\n"),
        ];
        let mut w = ShardWriter::new(8);
        for (s, t) in docs {
            w.add(s, t);
        }
        let shards = w.finish();
        let back = unframe(&shards[0]);
        assert_eq!(back.len(), docs.len());
        for ((src, text), (s, t)) in back.iter().zip(docs) {
            assert_eq!(src, s);
            assert_eq!(text, t);
        }
    }

    #[test]
    fn write_shards_creates_files() {
        let dir = std::env::temp_dir().join(format!("wisdom-shards-{}", std::process::id()));
        let mut w = ShardWriter::new(2);
        w.add("galaxy", "- name: X\n");
        let shards = w.finish();
        write_shards(&dir, &shards).expect("write");
        let read = std::fs::read(dir.join("shard-00000.yamls")).expect("read back");
        assert_eq!(read, shards[0].bytes);
        std::fs::remove_dir_all(&dir).ok();
    }
}
