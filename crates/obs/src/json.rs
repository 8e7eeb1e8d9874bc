//! The one wire codec for the instrument's own JSON / JSONL artifacts.
//!
//! The repo is zero-dependency by policy, and the trace / span / health /
//! summary / profile artifacts *are* the measurement, so everything that
//! reads one back — `analyze`, `diff`, the benchmark's `compare` —
//! goes through this module: [`Json::parse`] is the only JSON reader,
//! [`escape`] the only string escaper and [`read_jsonl`] the only JSONL
//! envelope in `crates/{obs,core,bench}`. Record types decode from a parsed
//! [`Json`] through the typed field accessors ([`Json::num`],
//! [`Json::opt_num`], [`Json::uint`], [`Json::string`], [`Json::array`]),
//! which build the "missing field" / "must be a …" errors once.
//!
//! **Exact integers.** A number written as plain digits that fits `u64` is
//! kept exact ([`Json::Int`]); every other number is an `f64`
//! ([`Json::Num`]). Integer fields (`seed`, `queue_depth`, `hop`, `channel`,
//! counters) decode through [`Json::uint`], which accepts only the exact form
//! and range-checks the target type — a negative, fractional, exponent-form,
//! non-finite or out-of-range value is an error, never a silent round or
//! saturate.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::RunProvenance;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written as plain digits that fits `u64`, kept exact.
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved (sorted map) — irrelevant for
    /// reading our own artifacts back. A key repeated within one object is a
    /// parse error.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    /// A description of the first syntax problem found.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            chars: text.chars().peekable(),
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.chars.next().is_some() {
            return Err("trailing characters after document".into());
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number, if it is one (exact integers widen to `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer, if it was written as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    fn field(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(m) => m.get(key).ok_or_else(|| format!("missing field {key:?}")),
            _ => Err("expected a JSON object".into()),
        }
    }

    /// The required number field `key` of this object.
    ///
    /// # Errors
    /// The field is missing or not a number.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.field(key)?
            .as_f64()
            .ok_or_else(|| format!("{key} must be a number"))
    }

    /// The optional number field `key` of this object (`None` when absent).
    ///
    /// # Errors
    /// The field is present but not a number.
    pub fn opt_num(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(_) => self.num(key).map(Some),
        }
    }

    /// The required unsigned-integer field `key` of this object, exact (see
    /// the module docs) and range-checked against `T`.
    ///
    /// # Errors
    /// The field is missing, not written as a plain non-negative integer, or
    /// does not fit `T`.
    pub fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let n = self
            .field(key)?
            .as_u64()
            .ok_or_else(|| format!("{key} must be a non-negative integer"))?;
        T::try_from(n).map_err(|_| format!("{key} is out of range: {n}"))
    }

    /// The required string field `key` of this object.
    ///
    /// # Errors
    /// The field is missing or not a string.
    pub fn string(&self, key: &str) -> Result<&str, String> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| format!("{key} must be a string"))
    }

    /// The required array field `key` of this object.
    ///
    /// # Errors
    /// The field is missing or not an array.
    pub fn array(&self, key: &str) -> Result<&[Json], String> {
        self.field(key)?
            .as_array()
            .ok_or_else(|| format!("{key} must be an array"))
    }
}

/// JSON string escaping: quote, backslash, the short `\n` `\r` `\t` forms
/// and `\u00XX` for every other control character. The one escaper behind
/// every artifact writer.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape`] appended to `out`. A string with nothing to escape — every
/// name the simulator renders — is appended as it stands.
pub fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                push_hex(out, c as u64, 2);
            }
            c => out.push(c),
        }
    }
}

/// Appends the low `digits` hex digits of `n`, lowercase and zero-padded
/// (`{:0digits$x}` of a value that fits).
pub(crate) fn push_hex(out: &mut String, n: u64, digits: usize) {
    let mut buf = [b'0'; 16];
    let digits = digits.min(buf.len());
    for (i, b) in buf[..digits].iter_mut().enumerate() {
        *b = b"0123456789abcdef"[(n >> (4 * (digits - 1 - i)) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&buf[..digits]).unwrap_or_default());
}

/// Appends `n` in decimal, zero-padded to `min_digits` (`{}` at 1, `{:09}`
/// at 9).
pub(crate) fn push_uint(out: &mut String, mut n: u64, min_digits: usize) {
    // u64::MAX has 20 digits.
    let mut buf = [b'0'; 20];
    let mut at = buf.len();
    while n > 0 || buf.len() - at < min_digits.clamp(1, buf.len()) {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
}

/// Appends `t` with 9 decimals, byte-equal to `{:.9}`.
///
/// Virtual time is integer nanoseconds, so almost every time on the wire is
/// `n as f64 / 1e9` for some `n < 2⁵³`. For such a `t` the nearest 9-decimal
/// value is `n` itself (`t` is within half an ulp of `n`·10⁻⁹, and where an
/// ulp is wider than a nanosecond `t × 1e9` is already the integer `{:.9}`
/// rounds to), so `n` is printed by integer arithmetic. Anything else —
/// negative, `-0.0`, fractional nanoseconds, ≥ 2⁵³ ns, non-finite — goes
/// through the float formatter.
pub(crate) fn push_secs9(out: &mut String, t: f64) {
    const NS: u64 = 1_000_000_000;
    let n = (t * 1e9).round();
    // Both comparisons are false for NaN.
    if t >= 0.0 && n < 9_007_199_254_740_992.0 {
        let ns = n as u64;
        if (ns as f64 / 1e9).to_bits() == t.to_bits() {
            push_uint(out, ns / NS, 1);
            out.push('.');
            push_uint(out, ns % NS, 9);
            return;
        }
    }
    let _ = write!(out, "{t:.9}");
}

/// Reads a JSONL artifact: one JSON object per non-blank line, each decoded
/// by `record` into the returned list — except the [`RunProvenance`] header
/// (any line carrying a `"provenance"` key), which is returned beside it. The
/// header is written first by the CLI but accepted at any position; a second
/// one is an error (two runs' artifacts concatenated by mistake).
///
/// # Errors
/// `line N: …` for the first line that fails to parse or that `record`
/// refuses.
pub fn read_jsonl<T>(
    text: &str,
    mut record: impl FnMut(&Json) -> Result<T, String>,
) -> Result<(Option<RunProvenance>, Vec<T>), String> {
    let mut prov = None;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        let v = Json::parse(line).map_err(at)?;
        if v.get("provenance").is_none() {
            records.push(record(&v).map_err(at)?);
        } else if prov
            .replace(RunProvenance::from_value(&v).map_err(at)?)
            .is_some()
        {
            return Err(at(
                "duplicate provenance line (two runs' artifacts concatenated?)".into(),
            ));
        }
    }
    Ok((prov, records))
}

/// Deepest container nesting [`Json::parse`] accepts. The artifacts nest at
/// most five levels; the bound keeps a hostile `[[[[…` from overflowing the
/// stack of the recursive parser.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some(c) if c == want => Ok(()),
            other => Err(format!("expected {want:?}, found {other:?}")),
        }
    }

    fn keyword(&mut self, rest: &str, value: Json) -> Result<Json, String> {
        for want in rest.chars() {
            self.expect(want)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.chars.peek() {
            Some(&open @ ('{' | '[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
                }
                self.depth += 1;
                let v = if open == '{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') => {
                self.chars.next();
                self.keyword("rue", Json::Bool(true))
            }
            Some('f') => {
                self.chars.next();
                self.keyword("alse", Json::Bool(false))
            }
            Some('n') => {
                self.chars.next();
                self.keyword("ull", Json::Null)
            }
            Some(c) if c.is_ascii_digit() || *c == '-' => self.number(),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.chars.peek() == Some(&'}') {
            self.chars.next();
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.value()?;
            if map.contains_key(&key) {
                return Err(format!("duplicate key {key:?}"));
            }
            map.insert(key, value);
            self.skip_ws();
            match self.chars.next() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Obj(map)),
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&']') {
            self.chars.next();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.chars.next() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Arr(items)),
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let hex: String = (0..4).filter_map(|_| self.chars.next()).collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                        out.push(char::from_u32(code).ok_or("invalid \\u codepoint")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let mut num = String::new();
        while let Some(&c) = self.chars.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                num.push(c);
                self.chars.next();
            } else {
                break;
            }
        }
        // Plain digits that fit u64 stay exact; an overflowing run of digits
        // falls through to f64 and is refused by `Json::uint`.
        if num.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = num.parse() {
                return Ok(Json::Int(n));
            }
        }
        num.parse()
            .map(Json::Num)
            .map_err(|e| format!("bad number {num:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#" {"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": null}, "e": true} "#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "{\"a\":1} extra",
            "\"unterminated",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn round_trips_empty_containers() {
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(Vec::new()));
    }

    #[test]
    fn decodes_string_escapes() {
        // \uXXXX (BMP), backslash, quote, and the short escapes together.
        let v = Json::parse(r#""Aé中 \\ \" \/ \n\r\t\b\f""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé中 \\ \" / \n\r\t\u{8}\u{c}"));
        // Escapes are also decoded in object keys.
        let v = Json::parse(r#"{"a\"b\\c": 1}"#).unwrap();
        assert_eq!(v.get("a\"b\\c").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn rejects_bad_unicode_escapes() {
        for bad in [
            r#""\uD800""#, // lone surrogate is not a scalar value
            r#""\u12""#,   // truncated hex
            r#""\uZZZZ""#, // not hex
            r#""\x41""#,   // unknown escape letter
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn parses_deeply_nested_containers() {
        let depth = 200;
        let deep_arr = "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&deep_arr).is_ok(), "deep arrays parse");
        let deep_obj = "{\"k\":".repeat(depth) + "null" + &"}".repeat(depth);
        let mut v = &Json::parse(&deep_obj).expect("deep objects parse");
        for _ in 0..depth {
            v = v.get("k").expect("every level has k");
        }
        assert_eq!(v, &Json::Null);
        // Unbalanced deep nesting still errors rather than hanging.
        assert!(Json::parse(&"[".repeat(depth)).is_err());
        // Past the bound the parser refuses instead of overflowing its stack.
        let hostile = "[".repeat(1_000_000);
        assert!(Json::parse(&hostile)
            .expect_err("bounded")
            .contains("nesting"));
        let at_bound = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&at_bound).is_ok());
    }

    #[test]
    fn parses_exponent_form_numbers() {
        for (text, want) in [
            ("1e3", 1000.0),
            ("1E3", 1000.0),
            ("2.5e-2", 0.025),
            ("-1.5E+10", -1.5e10),
            ("0.0001e4", 1.0),
            ("-0", 0.0),
        ] {
            let v = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(v.as_f64(), Some(want), "{text}");
        }
    }

    #[test]
    fn integers_stay_exact_and_everything_else_is_f64() {
        for (text, want) in [
            ("0", Json::Int(0)),
            ("9007199254740993", Json::Int((1 << 53) + 1)),
            ("18446744073709551615", Json::Int(u64::MAX)),
            ("18446744073709551616", Json::Num(18446744073709551616.0)),
            ("-1", Json::Num(-1.0)),
            ("1.0", Json::Num(1.0)),
            ("1e3", Json::Num(1000.0)),
        ] {
            assert_eq!(Json::parse(text), Ok(want), "{text}");
        }
        assert_eq!(Json::Int(7).as_f64(), Some(7.0));
        assert_eq!(Json::Num(7.0).as_u64(), None);
    }

    #[test]
    fn field_accessors_build_each_error_once() {
        let v = Json::parse(r#"{"n":1.5,"i":300,"s":"x","a":[1],"o":{}}"#).unwrap();
        assert_eq!(v.num("n"), Ok(1.5));
        assert_eq!(v.num("i"), Ok(300.0));
        assert_eq!(v.opt_num("n"), Ok(Some(1.5)));
        assert_eq!(v.opt_num("absent"), Ok(None));
        assert_eq!(v.uint::<u64>("i"), Ok(300));
        assert_eq!(v.uint::<u32>("i"), Ok(300));
        assert_eq!(v.string("s"), Ok("x"));
        assert_eq!(v.array("a").map(<[Json]>::len), Ok(1));
        for (got, want) in [
            (v.num("absent").map(drop), "missing field \"absent\""),
            (v.num("s").map(drop), "s must be a number"),
            (v.num("o").map(drop), "o must be a number"),
            (v.opt_num("a").map(drop), "a must be a number"),
            (
                v.uint::<u64>("n").map(drop),
                "n must be a non-negative integer",
            ),
            (v.uint::<u8>("i").map(drop), "i is out of range: 300"),
            (v.string("i").map(drop), "i must be a string"),
            (v.array("o").map(drop), "o must be an array"),
            (Json::Null.num("n").map(drop), "expected a JSON object"),
        ] {
            assert_eq!(got, Err(want.to_string()));
        }
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let raw = "we\"ird\\name\twith\ncontrol\r\u{1}\u{1f}é中";
        let escaped = escape(raw);
        assert_eq!(
            escaped,
            "we\\\"ird\\\\name\\twith\\ncontrol\\r\\u0001\\u001fé中"
        );
        assert_eq!(
            Json::parse(&format!("\"{escaped}\"")),
            Ok(Json::Str(raw.into()))
        );
    }

    #[test]
    fn malformed_input_rejection_table() {
        for (bad, why) in [
            ("", "empty document"),
            ("   ", "whitespace only"),
            ("{", "unterminated object"),
            ("[", "unterminated array"),
            ("[1,]", "trailing comma in array"),
            ("{\"a\":1,}", "trailing comma in object"),
            ("{\"a\":1,\"a\":2}", "duplicate key"),
            (
                "{\"a\":{\"b\":1,\"b\":1}}",
                "duplicate key in a nested object",
            ),
            ("{\"a\"}", "missing colon"),
            ("{\"a\":}", "missing value"),
            ("{a:1}", "unquoted key"),
            ("[1 2]", "missing comma"),
            ("tru", "truncated keyword"),
            ("nul", "truncated null"),
            ("TRUE", "wrong case keyword"),
            ("{\"a\":1} extra", "trailing characters"),
            ("\"unterminated", "unterminated string"),
            ("1.2.3", "double decimal point"),
            ("1e", "dangling exponent"),
            ("--1", "double sign"),
            ("'single'", "single quotes"),
            (",", "bare comma"),
        ] {
            assert!(Json::parse(bad).is_err(), "{why}: {bad:?} should fail");
        }
    }
}
