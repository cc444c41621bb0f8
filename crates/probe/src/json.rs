//! The workspace's one JSON codec (the offline build has no serde): a
//! [`Value`] tree with an insertion-ordered [`Obj`] builder, so generated
//! files diff cleanly; a pretty and a compact writer; the string escaper
//! [`write_str`]; and a depth-bounded reader, [`parse`]. Bench files, the
//! counter gate, profile reports, `deco-tidy --json` and the probe's JSONL
//! events all use it. `Event::to_jsonl` feeds the pinned digest, so it
//! builds no tree and writes its fields straight through [`write_str`].

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integers (serialized without a fraction). Wide enough that every
    /// `i64` and `u64` round-trips exactly.
    Int(i128),
    /// Finite floats, written with a fraction so they read back as floats
    /// (non-finite values serialize as `null`).
    Float(f64),
    /// A string (escaped on write).
    Str(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An insertion-ordered object.
    Object(Vec<(String, Value)>),
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i128)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v.into())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v.into())
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Array(v)
    }
}

/// Builds an array value by converting each item — the shape used for
/// per-round series (delivery choices, worker counts, message loads).
pub fn array<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
    Value::Array(items.into_iter().map(Into::into).collect())
}

/// A compact run-length encoding of a per-round label series, e.g.
/// `["3xscan", "41xpush"]` for 3 scan rounds followed by 41 push rounds —
/// keeps BENCH_*.json readable for thousand-round traces.
pub fn run_length(labels: impl IntoIterator<Item = &'static str>) -> Value {
    let mut encoded: Vec<Value> = Vec::new();
    let mut current: Option<(&'static str, usize)> = None;
    for label in labels {
        match &mut current {
            Some((cur, count)) if *cur == label => *count += 1,
            _ => {
                if let Some((cur, count)) = current.take() {
                    encoded.push(Value::Str(format!("{count}x{cur}")));
                }
                current = Some((label, 1));
            }
        }
    }
    if let Some((cur, count)) = current {
        encoded.push(Value::Str(format!("{count}x{cur}")));
    }
    Value::Array(encoded)
}

/// Builder for an insertion-ordered JSON object.
#[derive(Debug, Clone, Default)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a field (builder style).
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Obj {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Value {
        Value::Object(self.0)
    }
}

/// Writes `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else raw.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `v`; `indent` is the nesting depth when pretty-printing and
/// `None` in compact mode.
fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        // `{}` writes 80.0 as `80`, which would read back as an integer.
        Value::Float(f) if f.is_finite() && f.fract() == 0.0 => {
            let _ = write!(out, "{f:.1}");
        }
        Value::Float(f) if f.is_finite() => {
            let _ = write!(out, "{f}");
        }
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => write_str(out, s),
        Value::Array(items) => {
            write_items(out, ['[', ']'], items.iter().map(|v| (None, v)), indent)
        }
        Value::Object(fields) => {
            let fields = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
            write_items(out, ['{', '}'], fields, indent);
        }
    }
}

/// Writes a container's items, each with its key when it has one.
fn write_items<'a>(
    out: &mut String,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Value)>,
    indent: Option<usize>,
) {
    out.push(open);
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(depth) = indent {
            newline(out, depth + 1);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        write_value(out, value, indent.map(|d| d + 1));
    }
    match indent {
        Some(depth) if !empty => newline(out, depth),
        _ => {}
    }
    out.push(close);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Serializes `v` as pretty-printed JSON (2-space indent, trailing newline).
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(0));
    out.push('\n');
    out
}

/// Serializes `v` on one line, with no whitespace and no trailing newline.
pub fn to_string_compact(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None);
    out
}

impl Value {
    /// Object field by key (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }
}

/// Failure to parse JSON text, or to read a parsed document as the shape
/// its caller expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of a syntax error; `None` when the text parsed but its
    /// content did not fit.
    pub at: Option<usize>,
    /// What went wrong.
    pub what: String,
}

impl ParseError {
    /// A content error: the text parsed, but not into the expected shape.
    pub fn new(what: impl Into<String>) -> ParseError {
        ParseError { at: None, what: what.into() }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.at {
            Some(at) => write!(f, "json parse error at byte {at}: {}", self.what),
            None => f.write_str(&self.what),
        }
    }
}

impl std::error::Error for ParseError {}

fn syntax(at: usize, what: impl Into<String>) -> ParseError {
    ParseError { at: Some(at), what: what.into() }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// reader recurses once per level, so the cap bounds its stack on hostile
/// input; the committed bench files nest at most 8 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document: integers as [`Value::Int`] while they fit an
/// `i128`, other numbers as [`Value::Float`].
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, nesting deeper than
/// [`MAX_DEPTH`], or trailing garbage.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(syntax(pos, "trailing characters"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(syntax(*pos, format!("expected '{}'", c as char)))
    }
}

/// Parses the value at `pos`, which sits inside `depth` containers.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(syntax(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(syntax(*pos, format!("nesting deeper than {MAX_DEPTH} levels")))
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(syntax(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(syntax(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(syntax(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        // Exactly four hex digits naming a scalar value
                        // (surrogates are rejected, never emitted here).
                        let c = b
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| syntax(*pos, "bad \\u escape"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(syntax(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the raw run up to the next quote or backslash; both
                // are ASCII, so the run ends on a character boundary.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..*pos])
                        .map_err(|_| syntax(start, "invalid utf-8"))?,
                );
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| syntax(start, "invalid number"))?;
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Value::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| syntax(start, format!("invalid number '{text}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_keep_insertion_order() {
        let v = Obj::new().field("z", 1usize).field("a", "two").build();
        let s = to_string(&v);
        assert!(s.find("\"z\"").unwrap() < s.find("\"a\"").unwrap());
    }

    #[test]
    fn escaping() {
        let v = Value::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(to_string(&v), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn nested_round_shape() {
        let v = Obj::new()
            .field("xs", array([1usize, 2]))
            .field("nested", Obj::new().field("ok", true).build())
            .field("nan", f64::NAN)
            .build();
        let s = to_string(&v);
        assert!(s.contains("\"nan\": null"));
        assert!(s.contains("\"ok\": true"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string(&Value::Array(vec![])), "[]\n");
        assert_eq!(to_string(&Obj::new().build()), "{}\n");
    }

    #[test]
    fn array_converts_items() {
        let v = array([1usize, 2, 3]);
        assert_eq!(to_string(&v), "[\n  1,\n  2,\n  3\n]\n");
    }

    #[test]
    fn compact_mode_has_no_whitespace() {
        let v = Obj::new()
            .field("a", 1usize)
            .field("b", Value::Array(vec![Value::Bool(true), Value::Null]))
            .field("c", Obj::new().build())
            .field("d", Value::Array(vec![]))
            .field("e", "x y")
            .build();
        let s = to_string_compact(&v);
        assert_eq!(s, r#"{"a":1,"b":[true,null],"c":{},"d":[],"e":"x y"}"#);
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Obj::new()
            .field("bench", "demo")
            .field("count", 42usize)
            .field("neg", -7i64)
            .field("ratio", 2.5f64)
            .field("zero", 0.0f64)
            .field("whole", 80.0f64)
            .field("neg_whole", -3.0f64)
            .field("ok", true)
            .field("none", Value::Null)
            .field("text", "a\"b\\c\nd é")
            .field("xs", array([1usize, 2, 3]))
            .field("nested", Obj::new().field("empty_arr", Value::Array(vec![])).build())
            .build();
        let text = to_string(&v);
        let back = parse(&text).unwrap();
        assert_eq!(back, v, "every leaf keeps its class: {text}");
        assert_eq!(to_string(&back), text);
        assert_eq!(back.get("whole"), Some(&Value::Float(80.0)));
        assert_eq!(back.get("bench").and_then(Value::as_str), Some("demo"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        let e = parse("nope").unwrap_err();
        assert!(e.to_string().contains("byte"));
        // A \u escape takes exactly four hex digits naming a scalar value.
        for bad in [r#""\uéééé""#, r#""\u+abc""#, r#""\u12""#, r#""\ud800""#, r#""\u12é""#] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn parse_bounds_nesting() {
        // One recursion per level: uncapped, this overflows the stack.
        let e = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(e.at, Some(MAX_DEPTH), "{e}");
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        assert!(parse(&format!("{{\"a\":{deepest}}}")).is_err());
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(parse("5").unwrap(), Value::Int(5));
        assert_eq!(parse("-5").unwrap(), Value::Int(-5));
        assert!(matches!(parse("5.5").unwrap(), Value::Float(f) if f == 5.5));
        assert!(matches!(parse("1e3").unwrap(), Value::Float(f) if f == 1000.0));
        // Every u64 is an integer; past i128 falls back to float.
        let max = Value::from(u64::MAX);
        assert_eq!(parse(&to_string(&max)).unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(Value::Int(-1).as_u64(), None);
        assert!(matches!(parse(&"9".repeat(40)).unwrap(), Value::Float(_)));
    }

    #[test]
    fn run_length_encodes_series() {
        let v = run_length(["scan", "scan", "push", "push", "push", "scan"]);
        let s = to_string(&v);
        assert!(s.contains("\"2xscan\""));
        assert!(s.contains("\"3xpush\""));
        assert!(s.contains("\"1xscan\""));
        assert_eq!(to_string(&run_length([])), "[]\n");
    }
}
