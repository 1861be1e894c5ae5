//! Inline scalars one byte at a time: what a value written on a block line
//! may look like, and what its text resolves to.
//!
//! The block parser owns structure (indentation, keys, sequences); this
//! scanner owns scalar syntax. The parser types every plain scalar through
//! it ([`resolve_plain_scalar`]), and a byte-level automaton can drive it to
//! emit only scalars the parser reads back as typed: [`Scan::push`] refuses
//! a byte that would end the scalar early, open a comment or a structure,
//! or break its quotes, and [`Scan::kind`] says what the text resolves to
//! if it ended here.

use std::borrow::Cow;

use crate::value::Value;

/// What a scalar resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Null,
    Bool,
    Int,
    Float,
    Str,
}

/// A set of [`Kind`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kinds(u8);

impl Kinds {
    pub const NONE: Kinds = Kinds(0);
    pub const ALL: Kinds = Kinds(0b1_1111);

    /// `self` with `kind` added.
    pub const fn with(self, kind: Kind) -> Kinds {
        Kinds(self.0 | 1 << kind as u8)
    }

    pub const fn contains(self, kind: Kind) -> bool {
        self.0 & 1 << kind as u8 != 0
    }

    const fn meets(self, other: Kinds) -> bool {
        self.0 & other.0 != 0
    }
}

/// The words a plain scalar resolves by (YAML 1.2 core schema plus YAML 1.1
/// booleans); bit `i` of a word mask is `WORDS[i]`, valued by [`word_value`].
static WORDS: [&str; 32] = [
    "~", "null", "Null", "NULL", "true", "True", "TRUE", "yes", "Yes", "YES", "on", "On", "ON",
    "false", "False", "FALSE", "no", "No", "NO", "off", "Off", "OFF", ".inf", ".Inf", ".INF",
    "+.inf", "-.inf", "-.Inf", "-.INF", ".nan", ".NaN", ".NAN",
];

fn word_value(w: usize) -> Value<'static> {
    match w {
        0..=3 => Value::Null,
        4..=21 => Value::Bool(w < 13),
        22..=25 => Value::Float(f64::INFINITY),
        26..=28 => Value::Float(f64::NEG_INFINITY),
        _ => Value::Float(f64::NAN),
    }
}

fn word_kind(w: usize) -> Kind {
    match w {
        0..=3 => Kind::Null,
        4..=21 => Kind::Bool,
        _ => Kind::Float,
    }
}

const WORD_MAX: usize = 5;

/// `AT[i][b]`: the words whose byte `i` is `b`. `LEN[n]`: the words of `n`
/// bytes.
const AT: [[u32; 256]; WORD_MAX] = {
    let mut t = [[0; 256]; WORD_MAX];
    let mut w = 0;
    while w < WORDS.len() {
        let s = WORDS[w].as_bytes();
        let mut i = 0;
        while i < s.len() {
            t[i][s[i] as usize] |= 1 << w;
            i += 1;
        }
        w += 1;
    }
    t
};
const LEN: [u32; WORD_MAX + 1] = {
    let mut t = [0; WORD_MAX + 1];
    let mut w = 0;
    while w < WORDS.len() {
        t[WORDS[w].len()] |= 1 << w;
        w += 1;
    }
    t
};

/// Significant digits an integer may hold where the text must stay an int:
/// any such integer, decimal, hex or octal, fits an `i64`.
const INT_DIGITS: u8 = 15;

/// Where a plain scalar's text stands as a number: the resolver's int
/// (`[+-]digits`, `0x[+-]hex`, `0o[+-]octal`) and float syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Num {
    Start,
    Sign,
    Zero,
    Dec,
    /// After `0x` (`hex`) or `0o`; `at` 0: nothing yet, 1: a sign, 2: digits.
    Radix {
        hex: bool,
        at: u8,
    },
    /// A `.` with no digit yet.
    Dot,
    Frac,
    Exp,
    ExpSign,
    ExpDigits,
    Dead,
}

impl Num {
    fn step(self, b: u8) -> Num {
        use Num::*;
        let digit = b.is_ascii_digit();
        match (self, b) {
            (Start, b'+' | b'-') => Sign,
            (Start, b'0') => Zero,
            (Start | Sign | Zero | Dec, _) if digit => Dec,
            (Start | Sign, b'.') => Dot,
            (Zero, b'x' | b'X' | b'o' | b'O') => Radix {
                hex: (b | 0x20) == b'x',
                at: 0,
            },
            (Radix { hex, at: 0 }, b'+' | b'-') => Radix { hex, at: 1 },
            (Radix { hex, .. }, _)
                if (hex && b.is_ascii_hexdigit()) || (b'0'..=b'7').contains(&b) =>
            {
                Radix { hex, at: 2 }
            }
            (Zero | Dec, b'.') => Frac,
            (Dot | Frac, _) if digit => Frac,
            (Zero | Dec | Frac, b'e' | b'E') => Exp,
            (Exp, b'+' | b'-') => ExpSign,
            (Exp | ExpSign | ExpDigits, _) if digit => ExpDigits,
            _ => Dead,
        }
    }

    /// The kind the text resolves to as a number (`Str` when it is none).
    fn kind(self) -> Kind {
        match self {
            Num::Start => Kind::Null,
            Num::Zero | Num::Dec | Num::Radix { at: 2, .. } => Kind::Int,
            Num::Frac | Num::ExpDigits => Kind::Float,
            _ => Kind::Str,
        }
    }

    /// The number kinds some extension can still resolve to.
    fn reach(self, digits: u8) -> Kinds {
        let int = if digits <= INT_DIGITS {
            Kinds::NONE.with(Kind::Int)
        } else {
            Kinds::NONE
        };
        match self {
            Num::Start | Num::Sign | Num::Zero | Num::Dec => int.with(Kind::Float),
            Num::Radix { .. } => int,
            Num::Dead => Kinds::NONE,
            _ => Kinds::NONE.with(Kind::Float),
        }
    }
}

/// The last byte of a plain scalar, as far as what may follow it goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Last {
    /// A leading `-`, `?` or `:`: a space next would make it structure.
    Indicator,
    Space,
    Colon,
    Other,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum At {
    Empty,
    Plain(Last),
    /// Inside `'…'`; `quote`: a `'` was just read, which closes the scalar
    /// unless another one follows.
    Single {
        quote: bool,
    },
    /// Inside `"…"`; `escape`: a `\` was just read.
    Double {
        escape: bool,
    },
    /// After the closing `"`.
    Closed,
}

/// The scanner's state over one inline scalar: small, `Copy` and hashable.
///
/// A plain scalar may not start with a space or an indicator that makes it
/// something else (`#`, `&`, `*`, `!`, `|`, `>`, `%`, `@`, `` ` ``, a flow
/// bracket or `,`), may not hold `: ` or ` #` or end in `:` or a space, and a
/// leading `-`, `?` or `:` must be followed by a non-space. Quoted scalars
/// hold printable ASCII; nothing follows their closing quote. Only printable
/// ASCII is scanned at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scan {
    at: At,
    /// Words the text still equals a prefix of (plain scalars only).
    words: u32,
    /// Bytes typed while `words` is not empty.
    word_len: u8,
    num: Num,
    /// Significant digits of the integer typed so far (saturating).
    digits: u8,
}

impl Scan {
    /// Before the first byte.
    pub const START: Scan = Scan {
        at: At::Empty,
        words: u32::MAX,
        word_len: 0,
        num: Num::Start,
        digits: 0,
    };

    /// Whether no byte has been scanned.
    pub fn is_empty(&self) -> bool {
        self.at == At::Empty
    }

    /// Follows one byte of a plain scalar's text, syntax aside.
    fn track(&mut self, b: u8) {
        self.words &= AT
            .get(self.word_len as usize)
            .map_or(0, |row| row[b as usize]);
        self.word_len = (self.word_len + 1) * u8::from(self.words != 0);
        self.num = self.num.step(b);
        let int_digit = matches!(self.num, Num::Dec | Num::Radix { at: 2, .. });
        if int_digit && (self.digits > 0 || b != b'0') {
            self.digits = self.digits.saturating_add(1);
        }
    }

    /// The scanner after `b`, or `None` when `b` cannot continue the scalar.
    pub fn push(self, b: u8) -> Option<Scan> {
        if !(0x20..0x7f).contains(&b) {
            return None;
        }
        let mut n = self;
        n.at = match (self.at, b) {
            (At::Closed, _) => return None,
            (At::Single { quote: true }, _) if b != b'\'' => return None,
            (At::Single { quote }, _) => At::Single {
                quote: !quote && b == b'\'',
            },
            (At::Double { escape: false }, b'"') => At::Closed,
            (At::Double { escape }, _) => At::Double {
                escape: !escape && b == b'\\',
            },
            (At::Empty, b'"') => At::Double { escape: false },
            (At::Empty, b'\'') => At::Single { quote: false },
            (
                At::Empty,
                b' ' | b'#' | b'&' | b'*' | b'!' | b'|' | b'>' | b'%' | b'@' | b'`' | b'[' | b']'
                | b'{' | b'}' | b',',
            )
            | (At::Plain(Last::Indicator | Last::Colon), b' ')
            | (At::Plain(Last::Space), b'#') => return None,
            (At::Empty, b'-' | b'?' | b':') => At::Plain(Last::Indicator),
            (_, b' ') => At::Plain(Last::Space),
            (_, b':') => At::Plain(Last::Colon),
            _ => At::Plain(Last::Other),
        };
        if let At::Plain(_) = n.at {
            n.track(b);
        } else {
            (n.words, n.word_len, n.num, n.digits) = (0, 0, Num::Dead, 0);
        }
        Some(n)
    }

    /// What the scalar resolves to if it ends here; `None` when it cannot
    /// end here.
    pub fn kind(&self) -> Option<Kind> {
        match self.at {
            At::Plain(Last::Other) => Some(self.class()),
            At::Single { quote: true } | At::Closed => Some(Kind::Str),
            _ => None,
        }
    }

    /// The kind of the plain text scanned so far.
    fn class(&self) -> Kind {
        self.word().map_or_else(|| self.num.kind(), word_kind)
    }

    /// The word the plain text equals, if any.
    fn word(&self) -> Option<usize> {
        let exact = self.words & LEN.get(self.word_len as usize).copied().unwrap_or(0);
        (exact != 0).then(|| exact.trailing_zeros() as usize)
    }

    /// The words that resolve to a kind of `accept` ([`word_kind`]).
    fn words_of(accept: Kinds) -> u32 {
        let of = |kind, words| if accept.contains(kind) { words } else { 0 };
        of(Kind::Null, 0xf) | of(Kind::Bool, 0x3f_fff0) | of(Kind::Float, !0x3f_ffff)
    }

    /// Whether some extension ends in a kind of `accept`.
    pub fn can_reach(&self, accept: Kinds) -> bool {
        match self.at {
            At::Empty | At::Plain(_) => {
                accept.contains(Kind::Str)
                    || self.num.reach(self.digits).meets(accept)
                    || self.words & Scan::words_of(accept) != 0
            }
            _ => accept.contains(Kind::Str),
        }
    }

    /// The next byte toward the shortest end in a kind of `accept`, or
    /// `None` when the scalar may end here. Assumes [`Self::can_reach`].
    pub fn close_byte(&self, accept: Kinds) -> Option<u8> {
        let reach = self.num.reach(self.digits);
        match self.at {
            At::Single { quote: false } => Some(b'\''),
            At::Double { escape } => Some(if escape { b'x' } else { b'"' }),
            At::Single { .. } | At::Closed => None,
            _ if self.kind().is_some_and(|k| accept.contains(k)) => None,
            _ if accept.contains(Kind::Str) => Some(b'x'),
            _ if accept.contains(Kind::Int) && reach.contains(Kind::Int) => Some(b'0'),
            _ if accept.contains(Kind::Float) && reach.contains(Kind::Float) => {
                Some(match self.num {
                    Num::Start | Num::Sign | Num::Zero | Num::Dec => b'.',
                    _ => b'0',
                })
            }
            _ => {
                // The shortest accepted word the text is still a prefix of.
                let live = self.words & Scan::words_of(accept);
                let w = (0..WORDS.len())
                    .filter(|&w| live & 1 << w != 0)
                    .min_by_key(|&w| (WORDS[w].len(), WORDS[w]))?;
                WORDS[w].as_bytes().get(self.word_len as usize).copied()
            }
        }
    }

    /// `self` with the tracking dropped that no verdict under `accept` can
    /// depend on, so scans with equal futures compare equal.
    pub fn settle(mut self, accept: Kinds) -> Scan {
        let numbers = Kinds(0b1_1100); // Int, Float, Str
        if accept == Kinds::ALL {
            (self.words, self.word_len) = (0, 0);
        }
        if accept.0 & numbers.0 == numbers.0 || !accept.meets(numbers) {
            self.num = Num::Dead;
        }
        if accept.contains(Kind::Str) || self.num == Num::Dead {
            self.digits = 0;
        }
        self
    }
}

/// The typed value of a plain (unquoted) scalar's text, trimmed: the YAML
/// 1.2 core schema plus YAML 1.1 booleans.
pub fn resolve_plain_scalar(s: &str) -> Value<'_> {
    let t = s.trim();
    let mut scan = Scan::START;
    for &b in t.as_bytes() {
        scan.track(b);
        if scan.words == 0 && scan.num == Num::Dead {
            break;
        }
    }
    let text = || Value::Str(Cow::Borrowed(t));
    if let Some(w) = scan.word() {
        return word_value(w);
    }
    match scan.num {
        Num::Start => Value::Null,
        Num::Zero | Num::Dec => t.parse().map_or_else(|_| text(), Value::Int),
        Num::Radix { hex, at: 2 } => i64::from_str_radix(&t[2..], if hex { 16 } else { 8 })
            .map_or_else(|_| text(), Value::Int),
        Num::Frac | Num::ExpDigits => t.parse().map_or_else(|_| text(), Value::Float),
        _ => text(),
    }
}

/// The template rule: a str is a template when it holds a `{{` and every
/// `{{` in it is closed by a later `}}`, every `{%` by a later `%}`. It is
/// decided one byte at a time, so a scanner can follow it as text is typed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Template {
    opened: bool,
    expr: bool,
    stmt: bool,
    last: Brace,
}

/// The last byte, as far as opening and closing `{{ }}` / `{% %}` goes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
enum Brace {
    #[default]
    Other,
    Open,
    Close,
    /// A `%` a `}` next closes a statement with (not the `%` of a `{%`).
    Percent,
}

impl Template {
    pub fn push(mut self, b: u8) -> Template {
        match (self.last, b) {
            (Brace::Open, b'{') => (self.opened, self.expr) = (true, true),
            (Brace::Open, b'%') => self.stmt = true,
            (Brace::Close, b'}') => self.expr = false,
            (Brace::Percent, b'}') => self.stmt = false,
            _ => {}
        }
        self.last = match b {
            b'{' => Brace::Open,
            b'}' => Brace::Close,
            b'%' if self.last != Brace::Open => Brace::Percent,
            _ => Brace::Other,
        };
        self
    }

    /// Whether a `{{` has been read.
    pub fn opened(&self) -> bool {
        self.opened
    }

    /// Whether the text read so far is a template.
    pub fn is_template(&self) -> bool {
        self.opened && !self.expr && !self.stmt
    }

    /// The next byte toward the shortest template, or `None` when the text
    /// already is one.
    pub fn close_byte(&self) -> Option<u8> {
        match (self.opened, self.expr, self.stmt) {
            (false, ..) => Some(b'{'),
            (_, true, _) => Some(b'}'),
            (_, _, true) if self.last == Brace::Percent => Some(b'}'),
            (_, _, true) => Some(b'%'),
            _ => None,
        }
    }
}

/// Whether `s` is a template under the template rule ([`Template`]).
pub fn is_template(s: &str) -> bool {
    s.contains("{{")
        && s.bytes()
            .fold(Template::default(), Template::push)
            .is_template()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_masks_follow_word_kinds() {
        for kind in [Kind::Null, Kind::Bool, Kind::Int, Kind::Float, Kind::Str] {
            let by_kind = (0..WORDS.len())
                .filter(|&w| word_kind(w) == kind)
                .fold(0, |m, w| m | 1 << w);
            assert_eq!(Scan::words_of(Kinds::NONE.with(kind)), by_kind, "{kind:?}");
        }
        assert_eq!(Scan::words_of(Kinds::ALL), u32::MAX);
    }
}
