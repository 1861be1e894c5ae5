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
//! gate "closability", and every inline value runs through `wisdom-yaml`'s
//! scalar scanner (the one the parser types scalars with), so each value
//! resolves to a kind its keyword/parameter accepts.

use std::hash::{Hash, Hasher};

use wisdom_yaml::{Kind, Scan, Template};

use crate::scope::open_item;
use crate::tables::{
    Tables, ValueSpec, FREE_FORM_SPEC, ITEM_SPEC, NAME_SPEC, TASKS_BIT, YAML_SPEC,
};

/// Maximum key length the accumulator can hold (longest FQCN fits).
pub(crate) const MAX_KEY: usize = 40;
/// Maximum frames on the structure stack (playbook nesting is ≤ 6).
pub(crate) const MAX_DEPTH: usize = 8;
/// Inline-value length cap: from here on only the canonical close's next
/// byte is legal, so close estimates stay bounded.
pub(crate) const PLAIN_CAP: u8 = 96;
/// YAML-mode identifier key length cap.
const YKEY_CAP: u8 = 24;
/// Loop guard for canonical-close construction (far above any real close).
const CLOSE_CAP: usize = 4096;

const NAME_LIT: &[u8; 6] = b"name: ";

/// The first byte of a relaxed-YAML key: a letter (`PATH`, `JAVA_HOME` and
/// `app_port` alike) or `_`.
fn ident_first(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn yident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'-'
}

/// The bit a relaxed-YAML key sets in its mapping's `seen`. A mapping
/// refuses a key whose bit is already set, so it never holds a key twice
/// (and now and then refuses a new one). FNV-1a's low bits depend only on
/// each byte modulo 64 (`port1` and `portq` would share one) and its last
/// byte barely reaches the high bits, so the hash goes through MurmurHash3's
/// finalizer before its high six bits pick the bit.
fn key_bit(key: &[u8]) -> u64 {
    let h = key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let h = (h ^ h >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
    1 << ((h ^ h >> 33).wrapping_mul(0xc4ce_b9fe_1a85_ec53) >> 58)
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
        let mut next = *self;
        *next.buf.get_mut(next.len as usize)? = b;
        next.len += 1;
        Some(next)
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
///
/// A sequence frame keeps whether it holds an item yet (`has_item`), not how
/// many: only the first item decides whether it may close, so the thousandth
/// item leaves the state — and the mask — the second one did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Frame {
    /// Top-level document: `- name: …` items at column 0.
    Doc { has_item: bool, kind: DocKind },
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
    Items { col: u8, has_item: bool },
    /// After `key:` + newline for a list-capable value: either becomes
    /// `Items` at `col + 2` or resolves to null (when allowed).
    Pending { col: u8, null_ok: bool },
    /// A play body at column 2.
    Play { used: u64 },
    /// The play's `tasks:` list (items at column 4, bodies at column 6).
    Tasks { has_item: bool },
    /// Relaxed-YAML mapping at `col` (also a block value of a keyword that
    /// takes a map); `seen` holds its keys' [`key_bit`]s.
    YMap { col: u8, seen: u64 },
    /// Relaxed-YAML sequence at `col`.
    YSeq { col: u8, has_item: bool },
    /// Relaxed-YAML `key:` + newline: nested map/seq at `col + 2` or null.
    YPending { col: u8 },
}

/// Whether `f`'s content lines are `- ` entries only.
fn holds_items(f: &Frame) -> bool {
    matches!(
        f,
        Frame::Doc { .. }
            | Frame::Items { .. }
            | Frame::Pending { .. }
            | Frame::Tasks { .. }
            | Frame::YSeq { .. }
    )
}

const DUMMY_FRAME: Frame = Frame::Doc {
    has_item: false,
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

/// An in-progress inline value: plain or quoted text through the YAML
/// scanner, `len` bytes so far. `tmpl` follows the template rule over a
/// double-quoted value at a position that takes no str, where the value must
/// be a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Scalar {
    scan: Scan,
    pub(crate) len: u8,
    tmpl: Option<Template>,
}

const FRESH: Scalar = Scalar {
    scan: Scan::START,
    len: 0,
    tmpl: None,
};

impl Scalar {
    fn step(self, spec: &ValueSpec, b: u8) -> Option<Scalar> {
        if self.len >= PLAIN_CAP && Some(b) != self.close(spec) {
            return None;
        }
        let scan = self.scan.push(b)?.settle(spec.accept);
        let tmpl = match self.tmpl {
            // At a position that takes no str, a quoted value is a template.
            None if self.scan.is_empty() && b == b'"' && !spec.accept.contains(Kind::Str) => {
                Some(spec.template.then(Template::default)?)
            }
            None => scan.can_reach(spec.accept).then_some(None)?,
            Some(t) if b == b'"' => t.is_template().then_some(Some(t))?,
            Some(t) if b == b'\\' || !(t.opened() || b == b'{') => return None,
            Some(t) => Some(t.push(b)),
        };
        Some(Scalar {
            scan,
            len: (self.len + 1).min(PLAIN_CAP),
            tmpl,
        })
    }

    /// The canonical next byte (`None`: the value may end here).
    fn close(&self, spec: &ValueSpec) -> Option<u8> {
        match self.tmpl {
            Some(t) => self
                .scan
                .kind()
                .is_none()
                .then(|| t.close_byte().unwrap_or(b'"')),
            None if self.scan.is_empty() && !self.scan.can_reach(spec.accept) => Some(b'"'),
            None => self.scan.close_byte(spec.accept),
        }
    }

    fn can_end(&self, spec: &ValueSpec) -> bool {
        match self.scan.kind() {
            Some(_) if self.tmpl.is_some() => true,
            kind => kind.is_some_and(|k| spec.accept.contains(k)),
        }
    }
}

/// Position within the current line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Line {
    /// At a line start, `spaces` indent bytes emitted so far.
    Start { spaces: u8 },
    /// At the start of a fresh document, where a `---` marker may open it.
    DocStart,
    /// `pos` bytes of a `---` marker typed; after one the `-` may still
    /// open an item.
    Marker { pos: u8 },
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

/// One sequence's position in the grammar. Small, `Copy`, hashable; the mask
/// cache keys it with what no mask can see forgotten (`mask_key` in
/// `index.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintState {
    pub(crate) mode: Mode,
    pub(crate) frames: [Frame; MAX_DEPTH],
    pub(crate) depth: u8,
    pub(crate) line: Line,
}

/// Hashes the live part of the state in one pass: the mode, the open frames
/// (their count first) and the line. Vacated frame slots are normalized
/// (`pop_to`), so equal states agree on them and they would add nothing but
/// work — a lookup is made for every decoded token.
impl Hash for ConstraintState {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.mode.hash(h);
        self.frames[..self.depth as usize].hash(h);
        self.line.hash(h);
    }
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

    /// Opens `f`; `None` when the stack is full.
    fn push(&mut self, f: Frame) -> Option<()> {
        *self.frames.get_mut(self.depth as usize)? = f;
        self.depth += 1;
        Some(())
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
        let mid_line = prompt.last().is_some_and(|&b| b != b'\n');
        let indent = open_item(prompt)
            .map(|(indent, _)| indent)
            .filter(|&indent| indent <= 16 && !mid_line);
        let line = match (mid_line, indent, mode) {
            (true, ..) => Line::ForceNewline,
            (false, None, Mode::Ansible) => Line::DocStart,
            _ => Line::Start { spaces: 0 },
        };
        let col = indent.map_or(0, |indent| indent as u8 + 2);
        let item = Frame::Doc {
            has_item: true,
            kind: DocKind::Unset,
        };
        let body = Frame::Body0 {
            task_ok: true,
            play_ok: true,
        };
        let task = Frame::Task {
            col,
            module: None,
            used: 0,
        };
        let stack: &[Frame] = match (mode, indent) {
            (Mode::Yaml, _) => &[Frame::YMap { col, seen: 0 }],
            (Mode::Ansible, None) => &[DUMMY_FRAME],
            (Mode::Ansible, Some(0)) => &[item, body],
            (Mode::Ansible, Some(_)) => &[task],
        };
        ConstraintState::new(mode, stack, line)
    }

    // ---- candidates --------------------------------------------------------

    /// Visits every candidate key of the mapping `frame` with its
    /// canonical-ordering priority (lower sorts first when constructing
    /// closes); a frame that holds no such keys has none.
    fn for_each_cand(&self, frame: &Frame, f: &mut dyn FnMut(u8, &'static str, Commit)) {
        match *frame {
            Frame::Body0 { task_ok, play_ok } => {
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
                        let hosts = !task_ok && i as u8 == self.t.hosts_bit;
                        f(if hosts { 0 } else { 4 }, k.name, Commit::PlayKw(i as u8));
                    }
                }
            }
            Frame::Task { module, used, .. } => {
                if module.is_none() {
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
            Frame::Params { module, used, .. } => {
                let m = &self.t.modules[module as usize];
                for (i, p) in m.params.iter().enumerate() {
                    if used & (1 << i) == 0 {
                        let missing_required = p.required;
                        f(u8::from(!missing_required), p.name, Commit::TaskKw(i as u8));
                    }
                }
            }
            Frame::Play { used } => {
                for (i, k) in self.t.play_kws.iter().enumerate() {
                    if used & (1 << i) == 0 {
                        let prio = u8::from(i as u8 != self.t.hosts_bit);
                        f(prio, k.name, Commit::PlayKw(i as u8));
                    }
                }
                if used & TASKS_BIT == 0 {
                    f(1, "tasks", Commit::TasksKey);
                }
            }
            _ => {}
        }
    }

    fn cand_extends(&self, frame: &Frame, prefix: &[u8]) -> bool {
        let mut found = false;
        self.for_each_cand(frame, &mut |_, key, _| {
            if !found && key.as_bytes().starts_with(prefix) {
                found = true;
            }
        });
        found
    }

    fn cand_exact(&self, frame: &Frame, key: &[u8]) -> Option<Commit> {
        let mut best: Option<(u8, Commit)> = None;
        self.for_each_cand(frame, &mut |prio, k, c| {
            if k.as_bytes() == key && best.map(|(p, _)| prio < p).unwrap_or(true) {
                best = Some((prio, c));
            }
        });
        best.map(|(_, c)| c)
    }

    /// Canonical candidate with `prefix`: minimal under (priority, length,
    /// bytes). Returns the full key.
    fn cand_canonical(&self, frame: &Frame, prefix: &[u8]) -> Option<&'static str> {
        let mut best: Option<(u8, &'static str)> = None;
        self.for_each_cand(frame, &mut |prio, k, _| {
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
            Frame::Doc { has_item, .. } => has_item,
            Frame::Body0 { .. } => false,
            Frame::Task { module, .. } => module.is_some(),
            Frame::Params { module, used, .. } => {
                self.t.modules[module as usize].required_mask & !used == 0
            }
            Frame::Items { has_item, .. } => has_item,
            Frame::Pending { null_ok, .. } => null_ok,
            Frame::Play { used } => used & (1u64 << self.t.hosts_bit) != 0,
            Frame::Tasks { has_item } => has_item,
            Frame::YMap { .. } | Frame::YPending { .. } => true,
            Frame::YSeq { has_item, .. } => has_item,
        }
    }

    /// Whether the frame can accept any content line at all.
    fn offers(&self, f: &Frame) -> bool {
        match f {
            _ if holds_items(f) => true,
            Frame::YPending { .. } => true,
            Frame::YMap { seen, .. } => *seen != u64::MAX,
            _ => self.cand_extends(f, &[]),
        }
    }

    fn first_ok(&self, f: &Frame, b: u8) -> bool {
        match f {
            _ if holds_items(f) => b == b'-',
            Frame::YPending { .. } => b == b'-' || ident_first(b),
            Frame::YMap { .. } => ident_first(b),
            _ => self.cand_extends(f, &[b]),
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
            Line::DocStart => {
                let mut n = self.advance_line_start(st, 0, b)?;
                n.line = Line::Marker { pos: 1 };
                Some(n)
            }
            Line::Marker { pos } => {
                let mut n = *st;
                n.line = match (pos, b) {
                    (1, b' ') => {
                        return self.advance(
                            &ConstraintState {
                                line: Line::Dash,
                                ..n
                            },
                            b,
                        )
                    }
                    (1 | 2, b'-') => Line::Marker { pos: pos + 1 },
                    (3, b'\n') => Line::Start { spaces: 0 },
                    _ => return None,
                };
                Some(n)
            }
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
                        s: FRESH,
                    },
                    Frame::YSeq { .. } => Line::Value {
                        spec: YAML_SPEC,
                        s: FRESH,
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
                        s: FRESH,
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
                        has_item: false,
                    };
                    n.line = Line::Dash;
                }
                Frame::YPending { col } => {
                    if b == b'-' {
                        *n.top_mut() = Frame::YSeq {
                            col: col + 2,
                            has_item: false,
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
                let bit = key_bit(acc.bytes());
                if let Frame::YMap { seen, .. } = n.top_mut() {
                    if *seen & bit != 0 {
                        return None;
                    }
                    *seen |= bit;
                }
                n.line = Line::Colon {
                    after: AfterKey::YamlKey,
                };
                return Some(n);
            }
            let acc = acc
                .push(b)
                .filter(|a| yident_char(b) && a.len <= YKEY_CAP)?;
            // A key at the cap can only end: its bit must be free.
            let seen =
                matches!(st.top(), Frame::YMap { seen, .. } if seen & key_bit(acc.bytes()) != 0);
            if acc.len == YKEY_CAP && seen {
                return None;
            }
            let mut n = *st;
            n.line = Line::Key { acc };
            return Some(n);
        }
        if b == b':' {
            let commit = self.cand_exact(st.top(), acc.bytes())?;
            return Some(self.commit_key(st, commit));
        }
        let acc2 = acc.push(b)?;
        if self.cand_extends(st.top(), acc2.bytes()) {
            let mut n = *st;
            n.line = Line::Key { acc: acc2 };
            Some(n)
        } else {
            None
        }
    }

    fn commit_key(&self, st: &ConstraintState, commit: Commit) -> ConstraintState {
        let mut n = *st;
        if matches!(n.top(), Frame::Body0 { .. }) {
            // Committing the document kind: record it on the Doc frame so
            // later top-level items stay homogeneous, and open the body.
            let task = matches!(commit, Commit::Module(_) | Commit::TaskKw(_));
            if let Frame::Doc { kind, .. } = &mut n.frames[n.depth as usize - 2] {
                *kind = if task {
                    DocKind::TaskFile
                } else {
                    DocKind::Playbook
                };
            }
            *n.top_mut() = match task {
                true => Frame::Task {
                    col: 2,
                    module: None,
                    used: 0,
                },
                false => Frame::Play { used: 0 },
            };
        }
        let scalar = |spec| AfterKey::Scalar { spec };
        let after = match (commit, n.top_mut()) {
            (Commit::Module(m), Frame::Task { module, .. }) => {
                *module = Some(m);
                AfterKey::Module { m }
            }
            (Commit::TaskKw(k), Frame::Task { used, .. }) => {
                *used |= 1 << k;
                scalar(self.t.task_kws[k as usize].spec)
            }
            // In the Params domain, `TaskKw` carries the param index.
            (Commit::TaskKw(k), Frame::Params { module, used, .. }) => {
                *used |= 1 << k;
                scalar(self.t.modules[*module as usize].param_specs[k as usize])
            }
            (Commit::PlayKw(p), Frame::Play { used }) => {
                *used |= 1 << p;
                scalar(self.t.play_kws[p as usize].spec)
            }
            (Commit::TasksKey, Frame::Play { used }) => {
                *used |= TASKS_BIT;
                AfterKey::TasksKey
            }
            _ => unreachable!("key committed outside its domain"),
        };
        n.line = Line::Colon { after };
        n
    }

    fn advance_colon(
        &self,
        st: &ConstraintState,
        after: AfterKey,
        b: u8,
    ) -> Option<ConstraintState> {
        let mut n = *st;
        let col = self.entry_col(n.top());
        let value = |spec| Line::Value { spec, s: FRESH };
        let start = Line::Start { spaces: 0 };
        // The line the byte leaves, and the frame a block value opens.
        let (line, block) = match (after, b) {
            (AfterKey::Scalar { spec }, b' ') if spec.has_inline() => (value(spec), None),
            (AfterKey::Scalar { spec }, b'\n') => match (spec.list, spec.map) {
                (true, true) => (start, Some(Frame::YPending { col })),
                (true, false) => {
                    let null_ok = spec.nulls();
                    (start, Some(Frame::Pending { col, null_ok }))
                }
                (false, true) => (
                    start,
                    Some(Frame::YMap {
                        col: col + 2,
                        seen: 0,
                    }),
                ),
                (false, false) if spec.nulls() => (start, None),
                _ => return None,
            },
            (AfterKey::Module { m }, b' ') if self.t.modules[m as usize].free_form => {
                (value(FREE_FORM_SPEC), None)
            }
            (AfterKey::Module { m }, b'\n') => {
                let params = !self.t.modules[m as usize].params.is_empty();
                let frame = Frame::Params {
                    col: col + 2,
                    module: m,
                    used: 0,
                };
                (start, params.then_some(frame))
            }
            (AfterKey::TasksKey, b'\n') => (start, Some(Frame::Tasks { has_item: false })),
            (AfterKey::YamlKey, b' ') => (value(YAML_SPEC), None),
            (AfterKey::YamlKey, b'\n') => (
                start,
                (n.ymap_depth() < 3).then_some(Frame::YPending { col }),
            ),
            _ => return None,
        };
        if let Some(frame) = block {
            n.push(frame)?;
        }
        n.line = line;
        Some(n)
    }

    fn advance_value(
        &self,
        st: &ConstraintState,
        spec: &ValueSpec,
        s: Scalar,
        b: u8,
    ) -> Option<ConstraintState> {
        if b == b'\n' {
            return s.can_end(spec).then(|| self.value_done(st));
        }
        let mut n = *st;
        n.line = Line::Value {
            spec: *spec,
            s: s.step(spec, b)?,
        };
        Some(n)
    }

    /// Completes a value line: marks the enclosing sequence as holding an
    /// item and opens bodies for generated `- name:` lines.
    fn value_done(&self, st: &ConstraintState) -> ConstraintState {
        let mut n = *st;
        n.line = Line::Start { spaces: 0 };
        match n.top_mut() {
            Frame::Items { has_item, .. } | Frame::YSeq { has_item, .. } => *has_item = true,
            Frame::Tasks { has_item } => {
                *has_item = true;
                let pushed = n.push(Frame::Task {
                    col: 6,
                    module: None,
                    used: 0,
                });
                debug_assert!(pushed.is_some(), "tasks nesting fits the stack");
            }
            Frame::Doc { has_item, kind } => {
                *has_item = true;
                let (task_ok, play_ok) = match kind {
                    DocKind::Unset => (true, true),
                    DocKind::TaskFile => (true, false),
                    DocKind::Playbook => (false, true),
                };
                let pushed = n.push(Frame::Body0 { task_ok, play_ok });
                debug_assert!(pushed.is_some(), "doc nesting fits the stack");
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
            Line::DocStart => self.canonical_at_start(st, 0),
            Line::Marker { pos } => Some([b' ', b'-', b'\n'][pos as usize - 1]),
            Line::Key { acc } => {
                if let Frame::YMap { seen, .. } = st.top() {
                    if seen & key_bit(acc.bytes()) == 0 {
                        return Some(b':');
                    }
                    let free = (b'a'..=b'z').find(|&b| self.advance(st, b).is_some());
                    return Some(free.unwrap_or(b':'));
                }
                let k = self
                    .cand_canonical(st.top(), acc.bytes())
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
            Line::Value { spec, s } => Some(s.close(&spec).unwrap_or(b'\n')),
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
            Frame::YPending { .. } => b'-',
            _ if holds_items(f) => b'-',
            Frame::YMap { .. } => b'a',
            _ => self
                .cand_canonical(f, &[])
                .expect("offers() ensured a candidate")
                .as_bytes()[0],
        })
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
