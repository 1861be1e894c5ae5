//! The incremental constraint automaton: a byte-level machine over Ansible
//! playbook / task-file documents (and a relaxed YAML-only mode) whose
//! states are small `Copy` values suitable for hashing and caching.
//!
//! Shape of the grammar (Ansible mode), anchored at a `- name: …\n` line the
//! prompt supplies (or that the automaton generates itself):
//!
//! ```text
//! - name: <free text from the prompt>
//!   <module>:              # exactly one module key per task
//!     <param>: <value>     # known params only, required ones eventually
//!   <keyword>: <value>     # task keywords, each at most once
//! ```
//!
//! or, when the first body key commits to a play:
//!
//! ```text
//! - name: <prompt text>
//!   hosts: <value>         # required before the document can end
//!   <play keyword>: <value>
//!   tasks:
//!     - name: <generated>
//!       <task body at column 6>
//! ```
//!
//! Every construct tracks exactly what the `crates/ansible` linter will
//! check: duplicate keys are impossible (the YAML parser rejects them),
//! unknown keys are impossible (candidate tries), required module parameters
//! gate "closability", and scalar machines guarantee each value resolves to
//! a kind its keyword/parameter accepts.

use crate::scope::open_item;
use crate::tables::{
    Tables, ValueSpec, FREE_FORM_SPEC, ITEM_SPEC, NAME_SPEC, TASKS_BIT, YAML_SPEC,
};

/// Maximum key length the accumulator can hold (longest FQCN fits).
pub(crate) const MAX_KEY: usize = 40;
/// Maximum frames on the structure stack (playbook nesting is ≤ 6).
pub(crate) const MAX_DEPTH: usize = 8;
/// Plain-scalar length cap: forces a newline eventually so close estimates
/// stay bounded.
const PLAIN_CAP: u8 = 96;
/// YAML-mode identifier key length cap.
const YKEY_CAP: u8 = 24;
/// Jinja identifier length cap.
const JIDENT_CAP: u8 = 24;
/// Loop guard for canonical-close construction (far above any real close).
const CLOSE_CAP: usize = 4096;

const NAME_LIT: &[u8; 6] = b"name: ";

/// YAML plain-scalar words that resolve to something other than `Str`.
/// The first three are the null class; the rest resolve to booleans.
const BAD_WORDS: &[&str] = &[
    "null", "Null", "NULL", // null class
    "true", "True", "TRUE", "yes", "Yes", "YES", "on", "On", "ON", "false", "False", "FALSE", "no",
    "No", "NO", "off", "Off", "OFF",
];
const NULL_MASK: u32 = 0b111;
const BOOL_MASK: u32 = ((1 << BAD_WORDS.len()) - 1) & !NULL_MASK;

fn bw_init(b: u8) -> u32 {
    let mut m = 0;
    for (i, w) in BAD_WORDS.iter().enumerate() {
        if w.as_bytes()[0] == b {
            m |= 1 << i;
        }
    }
    m
}

/// Words still exactly matched after appending `b` at position `len`.
fn bw_step(mask: u32, len: u8, b: u8) -> u32 {
    let mut m = 0;
    for (i, w) in BAD_WORDS.iter().enumerate() {
        if mask & (1 << i) != 0 && (len as usize) < w.len() && w.as_bytes()[len as usize] == b {
            m |= 1 << i;
        }
    }
    m
}

/// Words of exactly `len` bytes still matched (at most one bit set).
fn bw_exact(mask: u32, len: u8) -> u32 {
    let mut m = 0;
    for (i, w) in BAD_WORDS.iter().enumerate() {
        if mask & (1 << i) != 0 && w.len() == len as usize {
            m |= 1 << i;
        }
    }
    m
}

fn allowed_word_mask(spec: &ValueSpec) -> u32 {
    let mut m = 0;
    if spec.nulls {
        m |= NULL_MASK;
    }
    if spec.bools {
        m |= BOOL_MASK;
    }
    m
}

fn strict_first(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'/' || b == b'_'
}

fn relaxed_first(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'/' || b == b'_'
}

/// Interior bytes of a plain scalar: never `:`/`#` (structure/comment
/// hazards), never quotes or flow indicators.
fn plain_interior(b: u8) -> bool {
    b.is_ascii_alphanumeric()
        || matches!(
            b,
            b' ' | b'.' | b'_' | b',' | b'-' | b'/' | b'(' | b')' | b'=' | b'+' | b'\''
        )
}

fn ident_first(b: u8) -> bool {
    b.is_ascii_lowercase() || b == b'_'
}

fn yident_char(b: u8) -> bool {
    b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-'
}

fn jident_char(b: u8) -> bool {
    b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'
}

/// First-character bit for YAML-mode duplicate-key avoidance (`a`–`z`, `_`).
fn first_char_bit(b: u8) -> u32 {
    if b == b'_' {
        1 << 26
    } else {
        1 << (b - b'a')
    }
}

/// A partially typed key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct KeyAcc {
    buf: [u8; MAX_KEY],
    len: u8,
}

impl KeyAcc {
    fn start(b: u8) -> KeyAcc {
        let mut buf = [0u8; MAX_KEY];
        buf[0] = b;
        KeyAcc { buf, len: 1 }
    }

    fn push(&self, b: u8) -> Option<KeyAcc> {
        if (self.len as usize) < MAX_KEY {
            let mut next = *self;
            next.buf[next.len as usize] = b;
            next.len += 1;
            Some(next)
        } else {
            None
        }
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

/// Whether the top-level document holds task items or play items (a mixed
/// document would fail lint auto-detection, so the first item commits it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DocKind {
    Unset,
    TaskFile,
    Playbook,
}

/// One open construct on the structure stack. Columns strictly increase
/// with depth, so de-indentation closes frames unambiguously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Frame {
    /// Top-level document: `- name: …` items at column 0.
    Doc { count: u8, kind: DocKind },
    /// Body at column 2 whose first key decides task vs play.
    Body0 { task_ok: bool, play_ok: bool },
    /// A task body; `module` is the committed module key spelling.
    Task {
        col: u8,
        module: Option<u16>,
        used: u64,
    },
    /// A module's parameter mapping at `col`.
    Params { col: u8, module: u16, used: u16 },
    /// A block sequence of scalar items at `col`.
    Items { col: u8, count: u8 },
    /// After `key:` + newline for a list-capable value: either becomes
    /// `Items` at `col + 2` or resolves to null (when allowed).
    Pending { col: u8, null_ok: bool },
    /// A play body at column 2.
    Play { used: u64 },
    /// The play's `tasks:` list (items at column 4, bodies at column 6).
    Tasks { count: u8 },
    /// Relaxed-YAML mapping at `col`.
    YMap { col: u8, seen: u32 },
    /// Relaxed-YAML sequence at `col`.
    YSeq { col: u8, count: u8 },
    /// Relaxed-YAML `key:` + newline: nested map/seq at `col + 2` or null.
    YPending { col: u8 },
}

const DUMMY_FRAME: Frame = Frame::Doc {
    count: 0,
    kind: DocKind::Unset,
};

/// Value position after a committed key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum AfterKey {
    Scalar { spec: ValueSpec },
    Module { m: u16 },
    TasksKey,
    YamlKey,
}

/// Position inside a `{{ ident }}` template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Jinja {
    /// Saw `{`, expecting the second `{`.
    Open2,
    /// Saw `{{`, expecting the space.
    SpaceOpen,
    /// Inside the identifier (`len` bytes so far).
    Ident { len: u8 },
    /// Saw the closing space, expecting `}`.
    Close1,
    /// Saw one `}`, expecting the second.
    Close2,
}

/// An in-progress scalar value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Scalar {
    Fresh,
    /// Plain text; `bw` tracks which bad words the text still equals.
    Plain {
        bw: u32,
        len: u8,
        sp: bool,
    },
    Int {
        len: u8,
        zero: bool,
    },
    Jinja(Jinja),
    /// Complete; only a newline may follow.
    Closed,
}

/// Position within the current line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Line {
    /// At a line start, `spaces` indent bytes emitted so far.
    Start { spaces: u8 },
    /// The prompt ended mid-line: force a newline before any structure.
    ForceNewline,
    /// Typing a key.
    Key { acc: KeyAcc },
    /// `key:` emitted, deciding between inline value and block forms.
    Colon { after: AfterKey },
    /// Typing an inline scalar value.
    Value { spec: ValueSpec, s: Scalar },
    /// `-` emitted in a sequence, expecting the space.
    Dash,
    /// Emitting the literal `name: ` of a generated `- name:` line.
    NamePrefix { pos: u8 },
}

/// Constraint flavor carried by the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Mode {
    Ansible,
    Yaml,
}

/// One sequence's position in the grammar. Small, `Copy`, hashable — used
/// directly as the mask-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintState {
    pub(crate) mode: Mode,
    pub(crate) frames: [Frame; MAX_DEPTH],
    pub(crate) depth: u8,
    pub(crate) line: Line,
}

impl ConstraintState {
    fn new(mode: Mode, stack: &[Frame], line: Line) -> ConstraintState {
        let mut frames = [DUMMY_FRAME; MAX_DEPTH];
        frames[..stack.len()].copy_from_slice(stack);
        ConstraintState {
            mode,
            frames,
            depth: stack.len() as u8,
            line,
        }
    }

    fn top(&self) -> &Frame {
        &self.frames[self.depth as usize - 1]
    }

    fn top_mut(&mut self) -> &mut Frame {
        &mut self.frames[self.depth as usize - 1]
    }

    fn push(&mut self, f: Frame) -> bool {
        if (self.depth as usize) < MAX_DEPTH {
            self.frames[self.depth as usize] = f;
            self.depth += 1;
            true
        } else {
            false
        }
    }

    /// Pops down to `keep` frames, normalizing vacated slots so equal
    /// states hash equally.
    fn pop_to(&mut self, keep: u8) {
        for i in keep as usize..self.depth as usize {
            self.frames[i] = DUMMY_FRAME;
        }
        self.depth = keep;
    }

    fn ymap_depth(&self) -> usize {
        self.frames[..self.depth as usize]
            .iter()
            .filter(|f| matches!(f, Frame::YMap { .. }))
            .count()
    }
}

/// What a committed key resolves to.
#[derive(Debug, Clone, Copy)]
enum Commit {
    Module(u16),
    TaskKw(u8),
    PlayKw(u8),
    TasksKey,
}

/// Key-candidate domains (which list of keys is legal where).
#[derive(Debug, Clone, Copy)]
enum Domain {
    Body0 { task_ok: bool, play_ok: bool },
    Task { module_open: bool, used: u64 },
    Params { module: u16, used: u16 },
    Play { used: u64 },
}

/// The automaton driver: pure transition functions over [`ConstraintState`]
/// against the compiled [`Tables`].
pub(crate) struct Machine<'a> {
    pub t: &'a Tables,
}

impl<'a> Machine<'a> {
    pub(crate) fn new(t: &'a Tables) -> Machine<'a> {
        Machine { t }
    }

    // ---- start states ------------------------------------------------------

    /// Derives the start state from the prompt's byte tail. Total: prompts
    /// that do not end at a `- name:` line boundary fall back to generating
    /// a fresh document (after forcing a newline when the prompt ends
    /// mid-line).
    pub(crate) fn start_state(&self, mode: Mode, prompt: &[u8]) -> ConstraintState {
        let fresh = |line: Line| match mode {
            Mode::Ansible => ConstraintState::new(
                mode,
                &[Frame::Doc {
                    count: 0,
                    kind: DocKind::Unset,
                }],
                line,
            ),
            Mode::Yaml => ConstraintState::new(mode, &[Frame::YMap { col: 0, seen: 0 }], line),
        };
        if prompt.is_empty() {
            return fresh(Line::Start { spaces: 0 });
        }
        if *prompt.last().expect("non-empty") != b'\n' {
            return fresh(Line::ForceNewline);
        }
        let indent = match open_item(prompt) {
            Some((indent, _)) if indent <= 16 => indent,
            _ => return fresh(Line::Start { spaces: 0 }),
        };
        let line = Line::Start { spaces: 0 };
        if indent == 0 {
            match mode {
                Mode::Ansible => ConstraintState::new(
                    mode,
                    &[
                        Frame::Doc {
                            count: 1,
                            kind: DocKind::Unset,
                        },
                        Frame::Body0 {
                            task_ok: true,
                            play_ok: true,
                        },
                    ],
                    line,
                ),
                Mode::Yaml => ConstraintState::new(mode, &[Frame::YMap { col: 2, seen: 0 }], line),
            }
        } else {
            let col = indent as u8 + 2;
            match mode {
                Mode::Ansible => ConstraintState::new(
                    mode,
                    &[Frame::Task {
                        col,
                        module: None,
                        used: 0,
                    }],
                    line,
                ),
                Mode::Yaml => ConstraintState::new(mode, &[Frame::YMap { col, seen: 0 }], line),
            }
        }
    }

    // ---- candidates --------------------------------------------------------

    fn domain_of(&self, f: &Frame) -> Option<Domain> {
        match *f {
            Frame::Body0 { task_ok, play_ok } => Some(Domain::Body0 { task_ok, play_ok }),
            Frame::Task { module, used, .. } => Some(Domain::Task {
                module_open: module.is_none(),
                used,
            }),
            Frame::Params { module, used, .. } => Some(Domain::Params { module, used }),
            Frame::Play { used } => Some(Domain::Play { used }),
            _ => None,
        }
    }

    /// Visits every candidate key for `d` with its canonical-ordering
    /// priority (lower sorts first when constructing closes).
    fn for_each_cand(&self, d: Domain, f: &mut dyn FnMut(u8, &'static str, Commit)) {
        match d {
            Domain::Body0 { task_ok, play_ok } => {
                if task_ok {
                    for (i, m) in self.t.modules.iter().enumerate() {
                        f(1, m.key, Commit::Module(i as u16));
                    }
                    for (i, k) in self.t.task_kws.iter().enumerate() {
                        f(2, k.name, Commit::TaskKw(i as u8));
                    }
                }
                if play_ok {
                    f(3, "tasks", Commit::TasksKey);
                    for (i, k) in self.t.play_kws.iter().enumerate() {
                        let prio = if !task_ok && i as u8 == self.t.hosts_bit {
                            0
                        } else {
                            4
                        };
                        f(prio, k.name, Commit::PlayKw(i as u8));
                    }
                }
            }
            Domain::Task { module_open, used } => {
                if module_open {
                    for (i, m) in self.t.modules.iter().enumerate() {
                        f(0, m.key, Commit::Module(i as u16));
                    }
                }
                for (i, k) in self.t.task_kws.iter().enumerate() {
                    if used & (1 << i) == 0 {
                        f(1, k.name, Commit::TaskKw(i as u8));
                    }
                }
            }
            Domain::Params { module, used } => {
                let m = &self.t.modules[module as usize];
                for (i, p) in m.params.iter().enumerate() {
                    if used & (1 << i) == 0 {
                        let missing_required = p.required;
                        f(u8::from(!missing_required), p.name, Commit::TaskKw(i as u8));
                    }
                }
            }
            Domain::Play { used } => {
                for (i, k) in self.t.play_kws.iter().enumerate() {
                    if used & (1 << i) == 0 {
                        let prio = if i as u8 == self.t.hosts_bit && used & (1 << i) == 0 {
                            u8::from(used & (1u64 << self.t.hosts_bit) != 0)
                        } else {
                            1
                        };
                        f(prio, k.name, Commit::PlayKw(i as u8));
                    }
                }
                if used & TASKS_BIT == 0 {
                    f(1, "tasks", Commit::TasksKey);
                }
            }
        }
    }

    fn cand_extends(&self, d: Domain, prefix: &[u8]) -> bool {
        let mut found = false;
        self.for_each_cand(d, &mut |_, key, _| {
            if !found && key.as_bytes().starts_with(prefix) {
                found = true;
            }
        });
        found
    }

    fn cand_exact(&self, d: Domain, key: &[u8]) -> Option<Commit> {
        let mut best: Option<(u8, Commit)> = None;
        self.for_each_cand(d, &mut |prio, k, c| {
            if k.as_bytes() == key && best.map(|(p, _)| prio < p).unwrap_or(true) {
                best = Some((prio, c));
            }
        });
        best.map(|(_, c)| c)
    }

    fn cand_first_ok(&self, d: Domain, b: u8) -> bool {
        self.cand_extends(d, &[b])
    }

    fn cand_any(&self, d: Domain) -> bool {
        self.cand_extends(d, &[])
    }

    /// Canonical candidate with `prefix`: minimal under (priority, length,
    /// bytes). Returns the full key.
    fn cand_canonical(&self, d: Domain, prefix: &[u8]) -> Option<&'static str> {
        let mut best: Option<(u8, &'static str)> = None;
        self.for_each_cand(d, &mut |prio, k, _| {
            if k.as_bytes().starts_with(prefix) {
                let better = match best {
                    None => true,
                    Some((bp, bk)) => (prio, k.len(), k.as_bytes()) < (bp, bk.len(), bk.as_bytes()),
                };
                if better {
                    best = Some((prio, k));
                }
            }
        });
        best.map(|(_, k)| k)
    }

    // ---- frame predicates --------------------------------------------------

    fn entry_col(&self, f: &Frame) -> u8 {
        match *f {
            Frame::Doc { .. } => 0,
            Frame::Body0 { .. } => 2,
            Frame::Task { col, .. } => col,
            Frame::Params { col, .. } => col,
            Frame::Items { col, .. } => col,
            Frame::Pending { col, .. } => col + 2,
            Frame::Play { .. } => 2,
            Frame::Tasks { .. } => 4,
            Frame::YMap { col, .. } => col,
            Frame::YSeq { col, .. } => col,
            Frame::YPending { col } => col + 2,
        }
    }

    fn closable(&self, f: &Frame) -> bool {
        match *f {
            Frame::Doc { count, .. } => count >= 1,
            Frame::Body0 { .. } => false,
            Frame::Task { module, .. } => module.is_some(),
            Frame::Params { module, used, .. } => {
                self.t.modules[module as usize].required_mask & !used == 0
            }
            Frame::Items { count, .. } => count >= 1,
            Frame::Pending { null_ok, .. } => null_ok,
            Frame::Play { used } => used & (1u64 << self.t.hosts_bit) != 0,
            Frame::Tasks { count } => count >= 1,
            Frame::YMap { .. } | Frame::YPending { .. } => true,
            Frame::YSeq { count, .. } => count >= 1,
        }
    }

    /// Whether the frame can accept any content line at all.
    fn offers(&self, f: &Frame) -> bool {
        match f {
            Frame::Doc { .. }
            | Frame::Items { .. }
            | Frame::Pending { .. }
            | Frame::Tasks { .. }
            | Frame::YSeq { .. }
            | Frame::YPending { .. } => true,
            Frame::YMap { seen, .. } => *seen != (1 << 27) - 1,
            _ => match self.domain_of(f) {
                Some(d) => self.cand_any(d),
                None => false,
            },
        }
    }

    fn first_ok(&self, f: &Frame, b: u8) -> bool {
        match f {
            Frame::Doc { .. }
            | Frame::Items { .. }
            | Frame::Pending { .. }
            | Frame::Tasks { .. }
            | Frame::YSeq { .. } => b == b'-',
            Frame::YPending { .. } => b == b'-' || ident_first(b),
            Frame::YMap { seen, .. } => ident_first(b) && seen & first_char_bit(b) == 0,
            _ => match self.domain_of(f) {
                Some(d) => self.cand_first_ok(d, b),
                None => false,
            },
        }
    }

    /// The column where keys of the mapping owned by `f` live (used to
    /// place pending block values).
    fn content_col(&self, f: &Frame) -> u8 {
        match *f {
            Frame::Task { col, .. } => col,
            Frame::Params { col, .. } => col,
            Frame::Play { .. } => 2,
            Frame::YMap { col, .. } => col,
            _ => self.entry_col(f),
        }
    }

    // ---- accepting / EOS ---------------------------------------------------

    /// Whether end-of-sequence is legal: at a fresh line start with every
    /// open construct satisfiable as-is.
    pub(crate) fn accepting(&self, st: &ConstraintState) -> bool {
        matches!(st.line, Line::Start { spaces: 0 })
            && st.frames[..st.depth as usize]
                .iter()
                .all(|f| self.closable(f))
    }

    // ---- transitions -------------------------------------------------------

    /// Advances by one byte; `None` means the byte is illegal here.
    pub(crate) fn advance(&self, st: &ConstraintState, b: u8) -> Option<ConstraintState> {
        match st.line {
            Line::ForceNewline => {
                if b == b'\n' {
                    let mut n = *st;
                    n.line = Line::Start { spaces: 0 };
                    Some(n)
                } else {
                    None
                }
            }
            Line::Start { spaces } => self.advance_line_start(st, spaces, b),
            Line::Key { acc } => self.advance_key(st, &acc, b),
            Line::Colon { after } => self.advance_colon(st, after, b),
            Line::Value { spec, s } => self.advance_value(st, &spec, s, b),
            Line::Dash => {
                if b != b' ' {
                    return None;
                }
                let mut n = *st;
                n.line = match n.top() {
                    Frame::Items { .. } => Line::Value {
                        spec: ITEM_SPEC,
                        s: Scalar::Fresh,
                    },
                    Frame::YSeq { .. } => Line::Value {
                        spec: YAML_SPEC,
                        s: Scalar::Fresh,
                    },
                    Frame::Doc { .. } | Frame::Tasks { .. } => Line::NamePrefix { pos: 0 },
                    _ => return None,
                };
                Some(n)
            }
            Line::NamePrefix { pos } => {
                if b != NAME_LIT[pos as usize] {
                    return None;
                }
                let mut n = *st;
                n.line = if pos as usize + 1 == NAME_LIT.len() {
                    Line::Value {
                        spec: NAME_SPEC,
                        s: Scalar::Fresh,
                    }
                } else {
                    Line::NamePrefix { pos: pos + 1 }
                };
                Some(n)
            }
        }
    }

    fn advance_line_start(
        &self,
        st: &ConstraintState,
        spaces: u8,
        b: u8,
    ) -> Option<ConstraintState> {
        if b == b' ' {
            if spaces >= 30 {
                return None;
            }
            // A deeper space is only legal if some frame still offers
            // content at a column beyond it (otherwise we would strand the
            // line with nothing to write).
            let mut deeper_closable = true;
            for i in (0..st.depth as usize).rev() {
                let f = &st.frames[i];
                if self.entry_col(f) > spaces && deeper_closable && self.offers(f) {
                    let mut n = *st;
                    n.line = Line::Start { spaces: spaces + 1 };
                    return Some(n);
                }
                deeper_closable &= self.closable(f);
            }
            return None;
        }
        if b == b'\n' {
            return None; // no blank lines
        }
        // Dispatch content at exactly this column; frames deeper than the
        // target close (and must be closable).
        let mut deeper_closable = true;
        for i in (0..st.depth as usize).rev() {
            let f = st.frames[i];
            let c = self.entry_col(&f);
            if c > spaces {
                deeper_closable &= self.closable(&f);
                continue;
            }
            if c < spaces {
                return None;
            }
            // c == spaces: the unique dispatch target.
            if !deeper_closable || !self.first_ok(&f, b) {
                return None;
            }
            let mut n = *st;
            n.pop_to(i as u8 + 1);
            match f {
                Frame::Pending { col, .. } => {
                    *n.top_mut() = Frame::Items {
                        col: col + 2,
                        count: 0,
                    };
                    n.line = Line::Dash;
                }
                Frame::YPending { col } => {
                    if b == b'-' {
                        *n.top_mut() = Frame::YSeq {
                            col: col + 2,
                            count: 0,
                        };
                        n.line = Line::Dash;
                    } else {
                        *n.top_mut() = Frame::YMap {
                            col: col + 2,
                            seen: 0,
                        };
                        n.line = Line::Key {
                            acc: KeyAcc::start(b),
                        };
                    }
                }
                Frame::Doc { .. }
                | Frame::Items { .. }
                | Frame::Tasks { .. }
                | Frame::YSeq { .. } => {
                    n.line = Line::Dash;
                }
                Frame::YMap { .. }
                | Frame::Body0 { .. }
                | Frame::Task { .. }
                | Frame::Params { .. }
                | Frame::Play { .. } => {
                    n.line = Line::Key {
                        acc: KeyAcc::start(b),
                    };
                }
            }
            return Some(n);
        }
        None
    }

    fn advance_key(&self, st: &ConstraintState, acc: &KeyAcc, b: u8) -> Option<ConstraintState> {
        if matches!(st.top(), Frame::YMap { .. }) {
            if b == b':' {
                let mut n = *st;
                let first = acc.bytes()[0];
                if let Frame::YMap { seen, .. } = n.top_mut() {
                    *seen |= first_char_bit(first);
                }
                n.line = Line::Colon {
                    after: AfterKey::YamlKey,
                };
                return Some(n);
            }
            if yident_char(b) && acc.len < YKEY_CAP {
                let mut n = *st;
                n.line = Line::Key { acc: acc.push(b)? };
                return Some(n);
            }
            return None;
        }
        let d = self.domain_of(st.top())?;
        if b == b':' {
            let commit = self.cand_exact(d, acc.bytes())?;
            return Some(self.commit_key(st, commit));
        }
        let acc2 = acc.push(b)?;
        if self.cand_extends(d, acc2.bytes()) {
            let mut n = *st;
            n.line = Line::Key { acc: acc2 };
            Some(n)
        } else {
            None
        }
    }

    fn commit_key(&self, st: &ConstraintState, commit: Commit) -> ConstraintState {
        let mut n = *st;
        let is_body0 = matches!(n.top(), Frame::Body0 { .. });
        if is_body0 {
            // Committing the document kind: record it on the Doc frame so
            // later top-level items stay homogeneous.
            let doc = n.depth as usize - 2;
            if let Frame::Doc { kind, .. } = &mut n.frames[doc] {
                *kind = match commit {
                    Commit::Module(_) | Commit::TaskKw(_) => DocKind::TaskFile,
                    Commit::PlayKw(_) | Commit::TasksKey => DocKind::Playbook,
                };
            }
        }
        match commit {
            Commit::Module(m) => {
                if is_body0 {
                    *n.top_mut() = Frame::Task {
                        col: 2,
                        module: Some(m),
                        used: 0,
                    };
                } else if let Frame::Task { module, .. } = n.top_mut() {
                    *module = Some(m);
                }
                n.line = Line::Colon {
                    after: AfterKey::Module { m },
                };
            }
            Commit::TaskKw(k) => {
                // In the Params domain, `TaskKw` carries the param index.
                match n.top_mut() {
                    Frame::Body0 { .. } => {
                        *n.top_mut() = Frame::Task {
                            col: 2,
                            module: None,
                            used: 1 << k,
                        };
                        let spec = self.t.task_kws[k as usize].spec;
                        n.line = Line::Colon {
                            after: AfterKey::Scalar { spec },
                        };
                    }
                    Frame::Task { used, .. } => {
                        *used |= 1 << k;
                        let spec = self.t.task_kws[k as usize].spec;
                        n.line = Line::Colon {
                            after: AfterKey::Scalar { spec },
                        };
                    }
                    Frame::Params { module, used, .. } => {
                        *used |= 1 << k;
                        let spec = self.t.modules[*module as usize].param_specs[k as usize];
                        n.line = Line::Colon {
                            after: AfterKey::Scalar { spec },
                        };
                    }
                    _ => unreachable!("TaskKw commit outside task/params domain"),
                }
            }
            Commit::PlayKw(p) => {
                if is_body0 {
                    *n.top_mut() = Frame::Play { used: 1 << p };
                } else if let Frame::Play { used } = n.top_mut() {
                    *used |= 1 << p;
                }
                let spec = self.t.play_kws[p as usize].spec;
                n.line = Line::Colon {
                    after: AfterKey::Scalar { spec },
                };
            }
            Commit::TasksKey => {
                if is_body0 {
                    *n.top_mut() = Frame::Play { used: TASKS_BIT };
                } else if let Frame::Play { used } = n.top_mut() {
                    *used |= TASKS_BIT;
                }
                n.line = Line::Colon {
                    after: AfterKey::TasksKey,
                };
            }
        }
        n
    }

    fn advance_colon(
        &self,
        st: &ConstraintState,
        after: AfterKey,
        b: u8,
    ) -> Option<ConstraintState> {
        let mut n = *st;
        match after {
            AfterKey::Scalar { spec } => match b {
                b' ' if spec.has_inline() => {
                    n.line = Line::Value {
                        spec,
                        s: Scalar::Fresh,
                    };
                    Some(n)
                }
                b'\n' if spec.list => {
                    let col = self.content_col(n.top());
                    if !n.push(Frame::Pending {
                        col,
                        null_ok: spec.nulls,
                    }) {
                        return None;
                    }
                    n.line = Line::Start { spaces: 0 };
                    Some(n)
                }
                b'\n' if spec.nulls => {
                    n.line = Line::Start { spaces: 0 };
                    Some(n)
                }
                _ => None,
            },
            AfterKey::Module { m } => match b {
                b' ' if self.t.modules[m as usize].free_form => {
                    n.line = Line::Value {
                        spec: FREE_FORM_SPEC,
                        s: Scalar::Fresh,
                    };
                    Some(n)
                }
                b'\n' => {
                    if !self.t.modules[m as usize].params.is_empty() {
                        let col = self.content_col(n.top()) + 2;
                        if !n.push(Frame::Params {
                            col,
                            module: m,
                            used: 0,
                        }) {
                            return None;
                        }
                    }
                    n.line = Line::Start { spaces: 0 };
                    Some(n)
                }
                _ => None,
            },
            AfterKey::TasksKey => {
                if b == b'\n' && n.push(Frame::Tasks { count: 0 }) {
                    n.line = Line::Start { spaces: 0 };
                    Some(n)
                } else {
                    None
                }
            }
            AfterKey::YamlKey => match b {
                b' ' => {
                    n.line = Line::Value {
                        spec: YAML_SPEC,
                        s: Scalar::Fresh,
                    };
                    Some(n)
                }
                b'\n' => {
                    if n.ymap_depth() < 3 {
                        let col = self.content_col(n.top());
                        if !n.push(Frame::YPending { col }) {
                            return None;
                        }
                    }
                    n.line = Line::Start { spaces: 0 };
                    Some(n)
                }
                _ => None,
            },
        }
    }

    fn advance_value(
        &self,
        st: &ConstraintState,
        spec: &ValueSpec,
        s: Scalar,
        b: u8,
    ) -> Option<ConstraintState> {
        if b == b'\n' {
            if !self.scalar_end_ok(spec, &s) {
                return None;
            }
            return Some(self.value_done(st));
        }
        let s2 = self.scalar_step(spec, &s, b)?;
        let mut n = *st;
        n.line = Line::Value { spec: *spec, s: s2 };
        Some(n)
    }

    fn scalar_step(&self, spec: &ValueSpec, s: &Scalar, b: u8) -> Option<Scalar> {
        match *s {
            Scalar::Fresh => {
                if b == b'{' && spec.jinja {
                    return Some(Scalar::Jinja(Jinja::Open2));
                }
                if spec.relaxed {
                    if relaxed_first(b) {
                        return Some(Scalar::Plain {
                            bw: 0,
                            len: 1,
                            sp: false,
                        });
                    }
                    return None;
                }
                if b.is_ascii_digit() && spec.digits {
                    return Some(Scalar::Int {
                        len: 1,
                        zero: b == b'0',
                    });
                }
                if strict_first(b) {
                    if spec.plain {
                        return Some(Scalar::Plain {
                            bw: bw_init(b),
                            len: 1,
                            sp: false,
                        });
                    }
                    // Word-restricted mode: only allowed bad words.
                    let m = bw_init(b) & allowed_word_mask(spec);
                    if m != 0 {
                        return Some(Scalar::Plain {
                            bw: m,
                            len: 1,
                            sp: false,
                        });
                    }
                }
                None
            }
            Scalar::Plain { bw, len, sp: _ } => {
                let word_mode = !spec.plain && !spec.relaxed;
                if word_mode {
                    let m = bw_step(bw, len, b) & allowed_word_mask(spec);
                    if m != 0 {
                        return Some(Scalar::Plain {
                            bw: m,
                            len: len + 1,
                            sp: false,
                        });
                    }
                    return None;
                }
                if !plain_interior(b) {
                    return None;
                }
                if b == b' ' {
                    if len >= PLAIN_CAP - 1 {
                        return None;
                    }
                } else if len >= PLAIN_CAP {
                    return None;
                }
                Some(Scalar::Plain {
                    bw: bw_step(bw, len, b),
                    len: len + 1,
                    sp: b == b' ',
                })
            }
            Scalar::Int { len, zero } => {
                if b.is_ascii_digit() && !zero && len < 9 {
                    Some(Scalar::Int { len: len + 1, zero })
                } else {
                    None
                }
            }
            Scalar::Jinja(j) => match j {
                Jinja::Open2 => (b == b'{').then_some(Scalar::Jinja(Jinja::SpaceOpen)),
                Jinja::SpaceOpen => (b == b' ').then_some(Scalar::Jinja(Jinja::Ident { len: 0 })),
                Jinja::Ident { len } => {
                    if len == 0 {
                        ident_first(b).then_some(Scalar::Jinja(Jinja::Ident { len: 1 }))
                    } else if b == b' ' {
                        Some(Scalar::Jinja(Jinja::Close1))
                    } else if jident_char(b) && len < JIDENT_CAP {
                        Some(Scalar::Jinja(Jinja::Ident { len: len + 1 }))
                    } else {
                        None
                    }
                }
                Jinja::Close1 => (b == b'}').then_some(Scalar::Jinja(Jinja::Close2)),
                Jinja::Close2 => (b == b'}').then_some(Scalar::Closed),
            },
            Scalar::Closed => None,
        }
    }

    fn scalar_end_ok(&self, spec: &ValueSpec, s: &Scalar) -> bool {
        match *s {
            Scalar::Plain { bw, len, sp } => {
                if len == 0 || sp {
                    return false;
                }
                if spec.relaxed {
                    return true;
                }
                let exact = bw_exact(bw, len);
                if !spec.plain {
                    // Word mode: must be exactly an allowed word.
                    exact & allowed_word_mask(spec) != 0
                } else {
                    exact == 0 || exact & allowed_word_mask(spec) != 0
                }
            }
            Scalar::Int { .. } | Scalar::Closed => true,
            Scalar::Fresh | Scalar::Jinja(_) => false,
        }
    }

    /// Completes a value line: bumps item counts and opens bodies for
    /// generated `- name:` lines.
    fn value_done(&self, st: &ConstraintState) -> ConstraintState {
        let mut n = *st;
        n.line = Line::Start { spaces: 0 };
        match n.top_mut() {
            Frame::Items { count, .. } | Frame::YSeq { count, .. } => *count += 1,
            Frame::Tasks { count } => {
                *count += 1;
                let pushed = n.push(Frame::Task {
                    col: 6,
                    module: None,
                    used: 0,
                });
                debug_assert!(pushed, "tasks nesting fits the stack");
            }
            Frame::Doc { count, kind } => {
                *count += 1;
                let (task_ok, play_ok) = match kind {
                    DocKind::Unset => (true, true),
                    DocKind::TaskFile => (true, false),
                    DocKind::Playbook => (false, true),
                };
                let pushed = n.push(Frame::Body0 { task_ok, play_ok });
                debug_assert!(pushed, "doc nesting fits the stack");
            }
            _ => {}
        }
        n
    }

    // ---- canonical close ---------------------------------------------------

    /// The canonical next byte toward the shortest-by-construction close;
    /// `None` iff the state is accepting. Pure in the state, and always a
    /// legal byte (pinned by tests).
    pub(crate) fn canonical_next(&self, st: &ConstraintState) -> Option<u8> {
        match st.line {
            Line::ForceNewline => Some(b'\n'),
            Line::Start { spaces } => self.canonical_at_start(st, spaces),
            Line::Key { acc } => {
                if matches!(st.top(), Frame::YMap { .. }) {
                    return Some(b':');
                }
                let d = self.domain_of(st.top()).expect("key implies domain");
                let k = self
                    .cand_canonical(d, acc.bytes())
                    .expect("key prefix has a candidate");
                if k.len() == acc.bytes().len() {
                    Some(b':')
                } else {
                    Some(k.as_bytes()[acc.bytes().len()])
                }
            }
            Line::Colon { after } => Some(match after {
                AfterKey::Scalar { spec } => {
                    if spec.has_inline() {
                        b' '
                    } else {
                        b'\n'
                    }
                }
                AfterKey::Module { .. } | AfterKey::TasksKey => b'\n',
                AfterKey::YamlKey => b' ',
            }),
            Line::Value { spec, s } => Some(self.canonical_scalar(&spec, &s)),
            Line::Dash => Some(b' '),
            Line::NamePrefix { pos } => Some(NAME_LIT[pos as usize]),
        }
    }

    fn canonical_at_start(&self, st: &ConstraintState, spaces: u8) -> Option<u8> {
        let frames = &st.frames[..st.depth as usize];
        let all_closable = frames.iter().all(|f| self.closable(f));
        if spaces == 0 && all_closable {
            return None; // accepting
        }
        // Deepest frame that still needs content; else the deepest frame at
        // or beyond the current indent that can accept a line.
        let target = frames
            .iter()
            .rposition(|f| !self.closable(f) && self.entry_col(f) >= spaces)
            .or_else(|| {
                frames
                    .iter()
                    .rposition(|f| self.entry_col(f) >= spaces && self.offers(f))
            })
            .expect("a reachable frame offers content");
        let f = &frames[target];
        let col = self.entry_col(f);
        if spaces < col {
            return Some(b' ');
        }
        Some(match f {
            Frame::Doc { .. }
            | Frame::Items { .. }
            | Frame::Pending { .. }
            | Frame::Tasks { .. }
            | Frame::YSeq { .. }
            | Frame::YPending { .. } => b'-',
            Frame::YMap { seen, .. } => (b'a'..=b'z')
                .chain([b'_'])
                .find(|&b| seen & first_char_bit(b) == 0)
                .expect("offers() ensured a free first char"),
            _ => {
                let d = self.domain_of(f).expect("key domain frame");
                self.cand_canonical(d, &[])
                    .expect("offers() ensured a candidate")
                    .as_bytes()[0]
            }
        })
    }

    fn canonical_scalar(&self, spec: &ValueSpec, s: &Scalar) -> u8 {
        match *s {
            Scalar::Fresh => {
                if spec.plain || spec.relaxed {
                    b'x'
                } else if spec.digits {
                    b'0'
                } else if spec.bools || spec.nulls {
                    self.canonical_word(allowed_word_mask(spec), 0)
                } else {
                    debug_assert!(spec.jinja, "value spec has at least one branch");
                    b'{'
                }
            }
            Scalar::Plain { bw, len, sp } => {
                let word_mode = !spec.plain && !spec.relaxed;
                if word_mode {
                    let m = bw & allowed_word_mask(spec);
                    return self.canonical_word(m, len);
                }
                if sp {
                    return b'x';
                }
                let exact = bw_exact(bw, len);
                if !spec.relaxed && exact != 0 && exact & allowed_word_mask(spec) == 0 {
                    b'x' // extend past the bad word
                } else {
                    b'\n'
                }
            }
            Scalar::Int { .. } | Scalar::Closed => b'\n',
            Scalar::Jinja(j) => match j {
                Jinja::Open2 => b'{',
                Jinja::SpaceOpen => b' ',
                Jinja::Ident { len } => {
                    if len == 0 {
                        b'x'
                    } else {
                        b' '
                    }
                }
                Jinja::Close1 | Jinja::Close2 => b'}',
            },
        }
    }

    /// Next byte of the shortest allowed word still matched at `len`
    /// (newline when a word is already complete).
    fn canonical_word(&self, mask: u32, len: u8) -> u8 {
        let mut best: Option<&'static str> = None;
        for (i, w) in BAD_WORDS.iter().enumerate() {
            if mask & (1 << i) != 0 {
                let better = match best {
                    None => true,
                    Some(bw) => (w.len(), w.as_bytes()) < (bw.len(), bw.as_bytes()),
                };
                if better {
                    best = Some(w);
                }
            }
        }
        let w = best.expect("word mode has at least one allowed word");
        if w.len() == len as usize {
            b'\n'
        } else {
            w.as_bytes()[len as usize]
        }
    }

    /// Length in bytes of the canonical close from `st` (0 when accepting);
    /// optionally collects the bytes. `None` signals an internal
    /// inconsistency (pinned against by tests).
    pub(crate) fn close_len(
        &self,
        st: &ConstraintState,
        mut out: Option<&mut Vec<u8>>,
    ) -> Option<u32> {
        let mut cur = *st;
        for n in 0..CLOSE_CAP {
            match self.canonical_next(&cur) {
                None => return Some(n as u32),
                Some(b) => {
                    cur = self.advance(&cur, b)?;
                    if let Some(v) = out.as_deref_mut() {
                        v.push(b);
                    }
                }
            }
        }
        debug_assert!(false, "canonical close exceeded {CLOSE_CAP} bytes");
        None
    }
}
