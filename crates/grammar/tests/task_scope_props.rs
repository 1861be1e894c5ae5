//! [`TaskScope`] against the rule it anticipates: `wisdom-core`'s
//! `truncate_first_task`, which is what actually decides how much of a
//! generation a suggestion keeps.
//!
//! * On YAML-shaped text the scanner fires at exactly the byte where
//!   truncation stops keeping lines, however the bytes are chunked.
//! * On hostile text (tabs, carriage returns, Unicode whitespace, special
//!   token markers, indented `---`) it may miss a boundary but never fires
//!   before truncation has stopped — stopping a decode there cannot change
//!   the suggestion.

use proptest::prelude::*;
use wisdom_core::truncate_first_task;
use wisdom_grammar::TaskScope;

/// A line truncation keeps at any name indent the tests use.
const PROBE: &str = "            probe: kept\n";

/// Start offset of the line where `truncate_first_task(text, indent)` stops
/// keeping lines, found by asking the function itself: it has stopped at or
/// before a line iff a probe line appended after that line is not kept.
fn stop_line(text: &str, indent: usize) -> Option<usize> {
    let mut start = 0;
    for line in text.split_inclusive('\n') {
        let end = start + line.len();
        let mut upto = text[..end].to_string();
        if !upto.ends_with('\n') {
            upto.push('\n');
        }
        upto.push_str(PROBE);
        if !truncate_first_task(&upto, indent).ends_with(PROBE) {
            return Some(start);
        }
        start = end;
    }
    None
}

/// Feeds `bytes` to a fresh scanner in chunks of the given lengths (cycled)
/// and returns the absolute offset at which it fired.
fn fires_at(bytes: &[u8], scope: usize, chunks: &[usize]) -> Option<usize> {
    let mut scan = TaskScope::new(scope);
    let mut fed = 0;
    let mut sizes = chunks.iter().cycle();
    while fed < bytes.len() {
        let n = (*sizes.next().unwrap_or(&1)).clamp(1, bytes.len() - fed);
        if let Some(at) = scan.feed(&bytes[fed..fed + n]) {
            return Some(fed + at);
        }
        fed += n;
    }
    None
}

fn leading_spaces(line: &str) -> usize {
    line.len() - line.trim_start_matches(' ').len()
}

/// One YAML-ish line from a `(kind, indent)` draw.
fn yamlish_line(kind: usize, indent: usize) -> String {
    let pad = " ".repeat(indent);
    match kind {
        0 => String::new(),
        1 => pad,
        2 => "# a comment in column 0".to_string(),
        3 => "---".to_string(),
        4 => format!("{pad}- name: another task"),
        5 => format!("{pad}ansible.builtin.apt:"),
        6 => format!("{pad}state: present   "),
        7 => format!("{pad}- item"),
        _ => format!("{pad}# indented comment"),
    }
}

/// One hostile line: what the scanner must not be fooled by.
fn hostile_line(kind: usize, indent: usize) -> String {
    let pad = " ".repeat(indent);
    match kind {
        0 => format!("{pad}\t"),
        1 => format!("{pad}\tkey: v"),
        2 => format!("{pad}\u{a0}\u{2003}"),
        3 => format!("{pad}\u{3000}key: v"),
        4 => format!("{pad}\r"),
        5 => format!("{pad}---"),
        6 => format!("{pad}<|pad|>"),
        7 => format!("{pad}k: <|endoftext|>"),
        8 => format!("{pad}\u{e9}t\u{e9}: 1"),
        _ => yamlish_line(indent % 9, kind),
    }
}

fn document(lines: &[String], final_newline: bool) -> String {
    let mut text = lines.join("\n");
    if final_newline && !lines.is_empty() {
        text.push('\n');
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Blank lines, space-only lines, column-0 comments, `---`, sibling
    /// items and deeper content, at name indents 0, 2 and 4: the scanner
    /// fires on the first non-space byte of the line truncation stops at,
    /// and nowhere when truncation keeps everything.
    #[test]
    fn fires_exactly_where_truncation_stops(
        draws in prop::collection::vec((0usize..9, 0usize..11), 0..14),
        chunks in prop::collection::vec(1usize..9, 1..6),
        final_newline in any::<bool>(),
    ) {
        let lines: Vec<String> = draws.iter().map(|&(k, i)| yamlish_line(k, i)).collect();
        let text = document(&lines, final_newline);
        for indent in [0, 2, 4] {
            let want = stop_line(&text, indent)
                .map(|start| start + leading_spaces(&text[start..]));
            prop_assert_eq!(
                fires_at(text.as_bytes(), indent, &chunks),
                want,
                "indent {} text {:?}",
                indent,
                text
            );
        }
    }

    /// On anything at all, a firing scanner is never early: truncation has
    /// stopped at or before the line it fired on.
    #[test]
    fn never_fires_before_truncation_stops(
        draws in prop::collection::vec((0usize..12, 0usize..9), 0..14),
        chunks in prop::collection::vec(1usize..9, 1..6),
        final_newline in any::<bool>(),
    ) {
        let lines: Vec<String> = draws.iter().map(|&(k, i)| hostile_line(k, i)).collect();
        let text = document(&lines, final_newline);
        for indent in [0, 2, 4] {
            let Some(fired) = fires_at(text.as_bytes(), indent, &chunks) else {
                continue;
            };
            let line_start = text[..fired].rfind('\n').map_or(0, |p| p + 1);
            let stop = stop_line(&text, indent);
            prop_assert!(
                stop.is_some_and(|s| s <= line_start),
                "indent {} fired at {} but truncation stops at {:?} in {:?}",
                indent,
                fired,
                stop,
                text
            );
        }
    }
}
