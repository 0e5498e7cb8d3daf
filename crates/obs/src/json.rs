//! The workspace's one JSON codec, kept tiny so the crate stays
//! dependency-free. Every JSON artifact goes through it: flight dumps,
//! traces, timelines, profiles, series, bench reports, the platform event
//! log and saved scenario files. The writers emit the compact form
//! (`{"k":v}`, no spaces) or, for hand-edited files, a pretty form with
//! two-space indents; the reader is a plain recursive-descent parser over
//! all of JSON except non-finite numbers.

/// A parsed JSON value. Integers keep their exact 64-bit representation
/// (a plain `f64` tree would corrupt large counter values and nanosecond
/// timestamps), so round trips are lossless.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no `.`, `e` or sign).
    UInt(u64),
    /// A negative integer literal.
    Int(i64),
    /// A literal with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if numeric and representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(v) => Some(v),
            Value::Int(v) => u64::try_from(v).ok(),
            Value::Float(v) if v >= 0.0 && v.fract() == 0.0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(v) => Some(v as f64),
            Value::Int(v) => Some(v as f64),
            Value::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's elements, if an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's fields in insertion order, if an object.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Appends `s` as a JSON string literal (quoted, escaped).
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number; non-finite values (invalid JSON) are
/// written as `null`.
pub fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // `{:?}` is Rust's shortest round-trip representation and always
        // contains a `.` or an exponent, so the reader can tell floats
        // from integers.
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

/// Appends `v` as compact JSON.
pub fn write_value(v: &Value, out: &mut String) {
    write_nested(v, None, out);
}

/// Appends `v` as pretty JSON: one array element or object member per
/// line, two spaces of indent per level, `"key": value`.
pub fn write_pretty(v: &Value, out: &mut String) {
    write_nested(v, Some(0), out);
}

/// `depth` is `None` for compact output, else the pretty nesting level.
fn write_nested(v: &Value, depth: Option<usize>, out: &mut String) {
    let inner = depth.map(|d| d + 1);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(n) => write_f64(*n, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                open_member(i, inner, out);
                write_nested(item, inner, out);
            }
            close_container(items.is_empty(), depth, out);
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                open_member(i, inner, out);
                write_escaped(k, out);
                out.push_str(if depth.is_some() { ": " } else { ":" });
                write_nested(item, inner, out);
            }
            close_container(fields.is_empty(), depth, out);
            out.push('}');
        }
    }
}

/// Starts member `i` of a container: a comma after the first member,
/// then in pretty mode a line break indented to `depth`.
fn open_member(i: usize, depth: Option<usize>, out: &mut String) {
    if i > 0 {
        out.push(',');
    }
    if let Some(d) = depth {
        line_break(d, out);
    }
}

/// In pretty mode, puts a non-empty container's closing bracket on its
/// own line at the container's `depth`.
fn close_container(empty: bool, depth: Option<usize>, out: &mut String) {
    if let (false, Some(d)) = (empty, depth) {
        line_break(d, out);
    }
}

fn line_break(depth: usize, out: &mut String) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

/// Parses one JSON document.
pub fn parse(s: &str) -> Result<Value, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(s, bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(s: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(s, bytes, pos),
        Some(b'[') => parse_array(s, bytes, pos),
        Some(b'"') => parse_string(s, bytes, pos).map(Value::Str),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(s, bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(s: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = &s[start..*pos];
    if token.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    let is_float = token.contains(['.', 'e', 'E']);
    if !is_float {
        if let Some(stripped) = token.strip_prefix('-') {
            // `-0` parses as UInt 0 via the float fallback below; exact
            // negative integers keep i64.
            if let Ok(v) = stripped.parse::<u64>() {
                if v == 0 {
                    return Ok(Value::UInt(0));
                }
            }
            if let Ok(v) = token.parse::<i64>() {
                return Ok(Value::Int(v));
            }
        } else if let Ok(v) = token.parse::<u64>() {
            return Ok(Value::UInt(v));
        }
    }
    token
        .parse::<f64>()
        .map(Value::Float)
        .map_err(|e| format!("bad number {token:?} at byte {start}: {e}"))
}

fn parse_string(s: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hi = parse_hex4(s, pos)?;
                        let code = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair.
                            if !bytes[*pos..].starts_with(b"\\u") {
                                return Err("unpaired surrogate".into());
                            }
                            *pos += 2;
                            let lo = parse_hex4(s, pos)?;
                            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                        } else {
                            hi
                        };
                        out.push(char::from_u32(code).ok_or_else(|| "bad \\u escape".to_string())?);
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char)),
                }
            }
            _ => {
                // Consume one full UTF-8 character.
                let rest = &s[*pos..];
                let c = rest.chars().next().expect("in-bounds");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(s: &str, pos: &mut usize) -> Result<u32, String> {
    let hex = s
        .get(*pos..*pos + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    *pos += 4;
    u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape: {e}"))
}

fn parse_array(s: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(s, bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(s: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(s, bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(s, bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("42").unwrap(), Value::UInt(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn big_integers_are_exact() {
        assert_eq!(parse(&u64::MAX.to_string()).unwrap(), Value::UInt(u64::MAX));
        assert_eq!(parse(&i64::MIN.to_string()).unwrap(), Value::Int(i64::MIN));
    }

    #[test]
    fn objects_and_arrays_nest() {
        let v = parse(r#"{"a":[1,{"b":"c"}],"d":null}"#).unwrap();
        assert_eq!(v.get("d"), Some(&Value::Null));
        match v.get("a").unwrap() {
            Value::Arr(items) => {
                assert_eq!(items[0], Value::UInt(1));
                assert_eq!(items[1].get("b").unwrap().as_str(), Some("c"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        for s in [
            "plain",
            "q\"uote",
            "back\\slash",
            "new\nline",
            "tab\there",
            "nul\u{1}ctl",
            "uni→中",
        ] {
            let mut out = String::new();
            write_escaped(s, &mut out);
            let back = parse(&out).unwrap();
            assert_eq!(back.as_str(), Some(s), "escaping {s:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1f600}")
        );
        // Raw (unescaped) UTF-8 passes through untouched too.
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1f600}"));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn float_writer_roundtrips() {
        for v in [0.0, 1.5, -2.25, 1e-10, 1e300, f64::MIN_POSITIVE] {
            let mut out = String::new();
            write_f64(v, &mut out);
            assert_eq!(parse(&out).unwrap().as_f64(), Some(v));
        }
        let mut out = String::new();
        write_f64(f64::INFINITY, &mut out);
        assert_eq!(out, "null");
    }

    #[test]
    fn compact_and_pretty_writers_roundtrip() {
        let text = r#"{"a":[1,{"b":"c"}],"e":[],"f":{},"g":-2.5}"#;
        let v = parse(text).unwrap();
        let mut compact = String::new();
        write_value(&v, &mut compact);
        assert_eq!(compact, text);
        let mut pretty = String::new();
        write_pretty(&v, &mut pretty);
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": \"c\"\n    }\n  ],\n  \"e\": [],\n  \"f\": {},\n  \"g\": -2.5\n}"
        );
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}
