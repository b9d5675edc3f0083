//! Liberty-subset parser.
//!
//! Liberty is a nested *group* syntax:
//!
//! ```text
//! group_name (arg1, arg2) {
//!     simple_attr : value;
//!     complex_attr ("a, b", "c, d");
//!     nested_group (args) { ... }
//! }
//! ```
//!
//! The parser is two-phase: a generic tokenizer + group-tree parser (which
//! accepts arbitrary Liberty constructs), then an extraction phase that pulls
//! out the NLDM subset this flow needs (cells, pins, capacitances, delay /
//! transition / constraint tables). Unknown groups and attributes are
//! silently skipped — real `.lib` files are full of constructs irrelevant to
//! placement timing.

use crate::arc::{ArcKind, TimingArc, Unate};
use crate::cell::{LibCell, LibPin};
use crate::error::LibertyError;
use crate::library::Library;
use crate::lut::{Lut1, Lut2};
use dtp_netlist::PinDir;

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Word(String),
    Str(String),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Colon,
    Semi,
    Comma,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0, line: 1 }
    }

    fn err(&self, message: impl Into<String>) -> LibertyError {
        LibertyError::Parse { line: self.line, message: message.into() }
    }

    fn next_tok(&mut self) -> Result<Option<(Tok, usize)>, LibertyError> {
        let bytes = self.src.as_bytes();
        loop {
            // Skip whitespace and comments.
            while self.pos < bytes.len() {
                match bytes[self.pos] {
                    b'\n' => {
                        self.line += 1;
                        self.pos += 1;
                    }
                    b' ' | b'\t' | b'\r' => self.pos += 1,
                    b'\\' => self.pos += 1, // line continuations
                    _ => break,
                }
            }
            if self.pos + 1 < bytes.len() && &self.src[self.pos..self.pos + 2] == "/*" {
                let end = self.src[self.pos..]
                    .find("*/")
                    .ok_or_else(|| self.err("unterminated comment"))?;
                self.line += self.src[self.pos..self.pos + end].matches('\n').count();
                self.pos += end + 2;
                continue;
            }
            if self.pos + 1 < bytes.len() && &self.src[self.pos..self.pos + 2] == "//" {
                while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            break;
        }
        if self.pos >= bytes.len() {
            return Ok(None);
        }
        let line = self.line;
        let tok = match bytes[self.pos] {
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b'{' => {
                self.pos += 1;
                Tok::LBrace
            }
            b'}' => {
                self.pos += 1;
                Tok::RBrace
            }
            b':' => {
                self.pos += 1;
                Tok::Colon
            }
            b';' => {
                self.pos += 1;
                Tok::Semi
            }
            b',' => {
                self.pos += 1;
                Tok::Comma
            }
            b'"' => {
                let start = self.pos + 1;
                let rel = self.src[start..]
                    .find('"')
                    .ok_or_else(|| self.err("unterminated string"))?;
                let s = self.src[start..start + rel].to_owned();
                self.line += s.matches('\n').count();
                self.pos = start + rel + 1;
                Tok::Str(s)
            }
            _ => {
                let start = self.pos;
                while self.pos < bytes.len()
                    && !matches!(bytes[self.pos], b'(' | b')' | b'{' | b'}' | b':' | b';' | b',' | b'"' | b' ' | b'\t' | b'\r' | b'\n')
                {
                    self.pos += 1;
                }
                if start == self.pos {
                    return Err(self.err(format!(
                        "unexpected character `{}`",
                        &self.src[self.pos..self.pos + 1]
                    )));
                }
                Tok::Word(self.src[start..self.pos].to_owned())
            }
        };
        Ok(Some((tok, line)))
    }
}

fn tokenize(src: &str) -> Result<Vec<(Tok, usize)>, LibertyError> {
    let mut lx = Lexer::new(src);
    let mut out = Vec::new();
    while let Some(t) = lx.next_tok()? {
        out.push(t);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Generic group tree
// ---------------------------------------------------------------------------

/// A parsed attribute value.
#[derive(Clone, Debug, PartialEq)]
enum AttrValue {
    /// `name : value ;`
    Simple(String),
    /// `name (v1, v2, ...) ;`
    Complex(Vec<String>),
}

/// A generic Liberty group.
#[derive(Clone, Debug, Default)]
struct Group {
    name: String,
    args: Vec<String>,
    attrs: Vec<(String, AttrValue)>,
    groups: Vec<Group>,
}

impl Group {
    fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn simple(&self, name: &str) -> Option<&str> {
        match self.attr(name) {
            Some(AttrValue::Simple(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn complex(&self, name: &str) -> Option<&[String]> {
        match self.attr(name) {
            Some(AttrValue::Complex(v)) => Some(v.as_slice()),
            _ => None,
        }
    }

    fn children<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Group> {
        self.groups.iter().filter(move |g| g.name == name)
    }

    fn child<'a>(&'a self, name: &'a str) -> Option<&'a Group> {
        self.children(name).next()
    }
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |(_, l)| *l)
    }

    fn err(&self, message: impl Into<String>) -> LibertyError {
        LibertyError::Parse { line: self.line(), message: message.into() }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: Tok) -> Result<(), LibertyError> {
        match self.bump() {
            Some(t) if t == want => Ok(()),
            other => Err(self.err(format!("expected {want:?}, found {other:?}"))),
        }
    }

    /// Parses `( v1, v2, ... )` into strings.
    fn parse_args(&mut self) -> Result<Vec<String>, LibertyError> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        loop {
            match self.bump() {
                Some(Tok::RParen) => break,
                Some(Tok::Comma) => {}
                Some(Tok::Word(w)) => args.push(w),
                Some(Tok::Str(s)) => args.push(s),
                other => return Err(self.err(format!("unexpected {other:?} in argument list"))),
            }
        }
        Ok(args)
    }

    /// Parses the body of a group after its `{`.
    fn parse_body(&mut self, group: &mut Group) -> Result<(), LibertyError> {
        loop {
            match self.bump() {
                Some(Tok::RBrace) => return Ok(()),
                Some(Tok::Word(name)) => match self.peek() {
                    Some(Tok::Colon) => {
                        self.bump();
                        let mut value = String::new();
                        loop {
                            match self.bump() {
                                Some(Tok::Semi) => break,
                                // `}` also terminates a (sloppy) attribute.
                                Some(Tok::RBrace) => {
                                    self.pos -= 1;
                                    break;
                                }
                                Some(Tok::Word(w)) => {
                                    if !value.is_empty() {
                                        value.push(' ');
                                    }
                                    value.push_str(&w);
                                }
                                Some(Tok::Str(s)) => value.push_str(&s),
                                Some(Tok::Comma) => value.push(','),
                                other => {
                                    return Err(
                                        self.err(format!("unexpected {other:?} in attribute"))
                                    )
                                }
                            }
                        }
                        group.attrs.push((name, AttrValue::Simple(value)));
                    }
                    Some(Tok::LParen) => {
                        let args = self.parse_args()?;
                        match self.peek() {
                            Some(Tok::LBrace) => {
                                self.bump();
                                let mut child = Group { name, args, ..Group::default() };
                                self.parse_body(&mut child)?;
                                group.groups.push(child);
                            }
                            _ => {
                                // Complex attribute; optional semicolon.
                                if self.peek() == Some(&Tok::Semi) {
                                    self.bump();
                                }
                                group.attrs.push((name, AttrValue::Complex(args)));
                            }
                        }
                    }
                    other => return Err(self.err(format!("unexpected {other:?} after `{name}`"))),
                },
                Some(Tok::Semi) => {} // stray semicolons
                other => return Err(self.err(format!("unexpected {other:?} in group body"))),
            }
        }
    }

    fn parse_top(&mut self) -> Result<Group, LibertyError> {
        match self.bump() {
            Some(Tok::Word(w)) if w == "library" => {}
            other => return Err(self.err(format!("expected `library`, found {other:?}"))),
        }
        let args = self.parse_args()?;
        self.expect(Tok::LBrace)?;
        let mut g = Group { name: "library".into(), args, ..Group::default() };
        self.parse_body(&mut g)?;
        Ok(g)
    }
}

// ---------------------------------------------------------------------------
// Extraction of the NLDM subset
// ---------------------------------------------------------------------------

fn parse_numbers(parts: &[String]) -> Result<Vec<f64>, LibertyError> {
    let mut out = Vec::new();
    for p in parts {
        for tok in p.split(',') {
            let t = tok.trim();
            if t.is_empty() {
                continue;
            }
            out.push(t.parse::<f64>().map_err(|_| LibertyError::BadTable(format!("bad number `{t}`")))?);
        }
    }
    Ok(out)
}

fn extract_lut2(g: &Group) -> Result<Lut2, LibertyError> {
    let x = parse_numbers(g.complex("index_1").unwrap_or(&[]))?;
    let y = parse_numbers(g.complex("index_2").unwrap_or(&[]))?;
    let v = parse_numbers(g.complex("values").ok_or_else(|| {
        LibertyError::BadTable(format!("table `{}` has no values", g.name))
    })?)?;
    if x.is_empty() && y.is_empty() && v.len() == 1 {
        // The constant table, validated like every other.
        return Lut2::new(vec![0.0], vec![0.0], v);
    }
    Lut2::new(x, y, v)
}

fn extract_lut1(g: &Group) -> Result<Lut1, LibertyError> {
    let x = parse_numbers(g.complex("index_1").unwrap_or(&[]))?;
    let v = parse_numbers(g.complex("values").ok_or_else(|| {
        LibertyError::BadTable(format!("table `{}` has no values", g.name))
    })?)?;
    if x.is_empty() && v.len() == 1 {
        // The constant table, validated like every other.
        return Lut1::new(vec![0.0], v);
    }
    Lut1::new(x, v)
}

fn extract_timing(timing: &Group, to_pin: &str) -> Result<Option<TimingArc>, LibertyError> {
    let from = timing.simple("related_pin").unwrap_or("").to_owned();
    if from.is_empty() {
        return Ok(None);
    }
    let ttype = timing.simple("timing_type").unwrap_or("combinational");
    let kind = if ttype.starts_with("setup") {
        ArcKind::Setup
    } else if ttype.starts_with("hold") {
        ArcKind::Hold
    } else if ttype.contains("edge") {
        ArcKind::ClkToQ
    } else {
        ArcKind::Combinational
    };
    match kind {
        ArcKind::Setup | ArcKind::Hold => {
            let table = timing
                .child("rise_constraint")
                .or_else(|| timing.child("fall_constraint"))
                .map(extract_lut1)
                .transpose()?
                .unwrap_or_else(|| Lut1::constant(0.0));
            Ok(Some(TimingArc::constraint(from, to_pin, kind, table)))
        }
        _ => {
            let unate = match timing.simple("timing_sense") {
                Some("positive_unate") => Unate::Positive,
                Some("non_unate") => Unate::NonUnate,
                _ => Unate::Negative,
            };
            let get = |name: &str, fallback: Option<&Lut2>| -> Result<Lut2, LibertyError> {
                match timing.child(name) {
                    Some(g) => extract_lut2(g),
                    None => Ok(fallback.cloned().unwrap_or_else(|| Lut2::constant(0.0))),
                }
            };
            let cell_rise = get("cell_rise", None)?;
            let cell_fall = get("cell_fall", Some(&cell_rise))?;
            let rise_transition = get("rise_transition", None)?;
            let fall_transition = get("fall_transition", Some(&rise_transition))?;
            Ok(Some(TimingArc {
                from,
                to: to_pin.to_owned(),
                kind,
                unate,
                cell_rise,
                cell_fall,
                rise_transition,
                fall_transition,
                constraint: None,
            }))
        }
    }
}

/// Parses Liberty-subset text into a [`Library`].
///
/// # Errors
///
/// Returns [`LibertyError::Parse`] for syntax errors and
/// [`LibertyError::BadTable`] for malformed tables. Groups and attributes
/// outside the NLDM subset are ignored.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), dtp_liberty::LibertyError> {
/// let lib = dtp_liberty::parse(r#"
///     library (demo) {
///       cell (INV) {
///         area : 1.0;
///         pin (A) { direction : input; capacitance : 1.5; }
///         pin (Y) {
///           direction : output;
///           timing () {
///             related_pin : "A";
///             cell_rise (t) { values ("3.0"); }
///             rise_transition (t) { values ("1.0"); }
///           }
///         }
///       }
///     }
/// "#)?;
/// assert_eq!(lib.cell("INV").unwrap().pin_cap("A"), 1.5);
/// # Ok(())
/// # }
/// ```
pub fn parse(text: &str) -> Result<Library, LibertyError> {
    let toks = tokenize(text)?;
    let mut p = Parser { toks, pos: 0 };
    let top = p.parse_top()?;
    let mut lib = Library::new(top.args.first().cloned().unwrap_or_else(|| "lib".into()));
    if let Some(v) = top.simple("wire_res_per_um").and_then(|s| s.parse().ok()) {
        lib.wire_res_per_um = v;
    }
    if let Some(v) = top.simple("wire_cap_per_um").and_then(|s| s.parse().ok()) {
        lib.wire_cap_per_um = v;
    }
    for cg in top.children("cell") {
        let name = cg.args.first().cloned().unwrap_or_default();
        let area = cg.simple("area").and_then(|s| s.parse().ok()).unwrap_or(0.0);
        let mut cell = LibCell::new(name, area);
        for pg in cg.children("pin") {
            let pname = pg.args.first().cloned().unwrap_or_default();
            let dir = match pg.simple("direction") {
                Some("output") => PinDir::Output,
                _ => PinDir::Input,
            };
            let cap = pg.simple("capacitance").and_then(|s| s.parse().ok()).unwrap_or(0.0);
            let max_cap = pg.simple("max_capacitance").and_then(|s| s.parse().ok());
            let is_clock = pg.simple("clock").map(|s| s == "true").unwrap_or(false);
            cell = cell.with_pin(LibPin {
                name: pname.clone(),
                dir,
                capacitance: cap,
                max_capacitance: max_cap,
                is_clock,
            });
            for tg in pg.children("timing") {
                if let Some(arc) = extract_timing(tg, &pname)? {
                    cell = cell.with_arc(arc);
                }
            }
        }
        lib.add_cell(cell);
    }
    Ok(lib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthetic_pdk;
    use crate::writer::write;

    #[test]
    fn roundtrip_synthetic_pdk() {
        let lib = synthetic_pdk();
        let text = write(&lib);
        let back = parse(&text).unwrap();
        assert_eq!(back.num_cells(), lib.num_cells());
        assert_eq!(back.wire_res_per_um, lib.wire_res_per_um);
        assert_eq!(back.wire_cap_per_um, lib.wire_cap_per_um);
        for cell in lib.cells() {
            let b = back.cell(cell.name()).unwrap();
            assert_eq!(b.pins().len(), cell.pins().len(), "{}", cell.name());
            assert_eq!(b.arcs().len(), cell.arcs().len(), "{}", cell.name());
            // Spot-check: identical arc evaluation. The writer groups arcs by
            // pin, so match by (kind, from, to) rather than position.
            for a1 in cell.arcs() {
                let a2 = b
                    .arcs()
                    .iter()
                    .find(|a| a.kind == a1.kind && a.from == a1.from && a.to == a1.to)
                    .unwrap_or_else(|| panic!("missing arc {:?} {}->{}", a1.kind, a1.from, a1.to));
                if a1.is_delay_arc() {
                    let e1 = a1.eval(7.0, 11.0);
                    let e2 = a2.eval(7.0, 11.0);
                    assert!((e1.delay - e2.delay).abs() < 1e-9);
                    assert!((e1.slew - e2.slew).abs() < 1e-9);
                } else {
                    assert!(
                        (a1.constraint_value(5.0) - a2.constraint_value(5.0)).abs() < 1e-9
                    );
                }
            }
        }
    }

    #[test]
    fn comments_and_unknowns_are_skipped() {
        let lib = parse(
            "/* header */\nlibrary (x) {\n// line comment\n  operating_conditions (tt) { process : 1; }\n  cell (C) { area : 1; }\n}\n",
        )
        .unwrap();
        assert_eq!(lib.name, "x");
        assert_eq!(lib.num_cells(), 1);
    }

    #[test]
    fn syntax_errors_have_line_numbers() {
        let err = parse("library (x) {\n  cell (C) {\n    area ;\n  }\n}").unwrap_err();
        match err {
            LibertyError::Parse { line, .. } => assert!(line >= 3, "line = {line}"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(parse("library (x) { cell (\"C) { } }").is_err());
    }

    #[test]
    fn missing_library_keyword_is_error() {
        assert!(parse("cell (C) { }").is_err());
    }

    #[test]
    fn bad_table_reported() {
        let r = parse(
            "library (x) { cell (C) { pin (Y) { direction : output; timing () { related_pin : \"A\"; cell_rise (t) { index_1 (\"1, 2\"); index_2 (\"1\"); values (\"1\"); } } } } }",
        );
        assert!(matches!(r, Err(LibertyError::BadTable(_))));
    }

    #[test]
    fn non_finite_table_numbers_are_rejected() {
        // `f64::from_str` accepts these spellings, so the table constructors
        // must reject them; a NaN axis would otherwise panic at its first
        // lookup.
        for (i1, values) in [
            ("nan, 1, 2", "1, 2, 3"),
            ("0, inf, 2", "1, 2, 3"),
            ("0, 1, 2", "1, NaN, 3"),
            ("", "-infinity"),
        ] {
            let index_1 =
                if i1.is_empty() { String::new() } else { format!("index_1 (\"{i1}\"); ") };
            let text = format!(
                "library (x) {{ cell (C) {{ pin (Y) {{ direction : output; timing () {{ related_pin : \"A\"; cell_rise (t) {{ {index_1}values (\"{values}\"); }} }} }} }} }}"
            );
            let r = parse(&text);
            assert!(matches!(r, Err(LibertyError::BadTable(_))), "{i1:?} / {values:?}: {r:?}");
        }
    }
}
