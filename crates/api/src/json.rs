//! Hand-rolled line-JSON codec for the evaluation API.
//!
//! The workspace deliberately has no serialization dependency (the build
//! is offline; `vendor/` holds only stubs), so the wire format is written
//! and parsed here: a small recursive-descent JSON parser plus one
//! crate-private `Wire` trait that encodes a value into a shared buffer
//! and decodes it from a parsed [`Json`]. Every struct on the wire lists
//! its fields once, in wire order, in a `wire_struct!` row, and every
//! tagged enum lists its variants once in a `wire_enum!` row; both
//! directions of the codec are derived from those lists. Floats are
//! emitted with Rust's shortest round-trip formatting (`{:?}`) and
//! integer literals parse exactly, so **encode → parse is exact** — the
//! round-trip property tests in `tests/json_roundtrip.rs` assert
//! equality, not approximation, and `tests/wire_bytes.rs` pins the text.

use crate::baseline::{BaselineMetric, BaselineOut, BaselineSpec, CdrArchKind};
use crate::error::GccoError;
use crate::optimize::{BestDesignOut, ComboReportOut, OptimizeOut, OptimizeSpec};
use crate::request::{
    ChannelOut, DsimRunOut, DsimRunSpec, EvalRequest, EvalResponse, JtolPointOut, MultiChannelSpec,
    PowerPointOut, PowerScanSpec, SizedCellOut, SjOverride,
};
use crate::spec::{ModelSpec, RunDistSpec};
use gcco_stat::{EdgeModel, SamplingTap};
use std::fmt::Write as _;

/// The protocol version this build speaks. Every envelope must declare it
/// in a top-level `"v"` field; see the gate in [`parse_client_line`] for
/// the acceptance policy:
///
/// * `"v": 2` — current, accepted.
/// * anything else — including `"v": 1` and an absent `"v"` field, the
///   pre-versioning wire format whose one-release deprecation window has
///   closed — is rejected with [`GccoError::UnsupportedVersion`] (wire
///   kind `"unsupported_version"`), so a stale or future client gets a
///   structured version error instead of a confusing field-level parse
///   failure.
pub const PROTOCOL_VERSION: u64 = 2;

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// legal line (a batch of optimize envelopes with counted run lengths)
/// nests about 7 levels; the cap only exists so hostile input cannot
/// exhaust the parser's stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A plain digit literal that fits a `u64`, kept exact.
    Int(u64),
    /// Any other JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error, and so is nesting deeper than 64 arrays/objects.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] describing the first offence and its byte
    /// offset.
    pub fn parse(text: &str) -> Result<Json, GccoError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float (an exact integer converts with the same
    /// rounding as parsing its digits as a float would).
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the value is not a number.
    pub fn as_f64(&self, what: &str) -> Result<f64, GccoError> {
        match self {
            Json::Num(x) => Ok(*x),
            Json::Int(n) => Ok(*n as f64),
            other => Err(type_err(what, "a number", other)),
        }
    }

    /// The value as an unsigned integer (rejects fractions and negatives).
    /// Digit literals are exact across the whole `u64` range; float forms
    /// such as `5.0` or `5e0` are accepted up to 2^53, where every integer
    /// is still exact.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the value is not a non-negative integer.
    pub fn as_u64(&self, what: &str) -> Result<u64, GccoError> {
        match self {
            Json::Int(n) => Ok(*n),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Ok(*x as u64),
            other => Err(type_err(what, "a non-negative integer", other)),
        }
    }

    /// The value as a signed integer.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the value is not an integer in range.
    pub fn as_i64(&self, what: &str) -> Result<i64, GccoError> {
        match self {
            Json::Int(n) => i64::try_from(*n).map_err(|_| range_err(what, *n)),
            Json::Num(x) if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) => Ok(*x as i64),
            other => Err(type_err(what, "an integer", other)),
        }
    }

    /// The value as a bool.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the value is not a boolean.
    pub fn as_bool(&self, what: &str) -> Result<bool, GccoError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(type_err(what, "a boolean", other)),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the value is not a string.
    pub fn as_str(&self, what: &str) -> Result<&str, GccoError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_err(what, "a string", other)),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the value is not an array.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], GccoError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(type_err(what, "an array", other)),
        }
    }

    /// Required object field.
    ///
    /// # Errors
    ///
    /// [`GccoError::Parse`] when the field is missing or `self` is not an
    /// object.
    pub fn field(&self, key: &str) -> Result<&Json, GccoError> {
        self.get(key)
            .ok_or_else(|| GccoError::Parse(format!("missing field \"{key}\"")))
    }
}

fn type_err(what: &str, expected: &str, got: &Json) -> GccoError {
    let tag = match got {
        Json::Null => "null",
        Json::Bool(_) => "a boolean",
        Json::Int(_) | Json::Num(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    };
    GccoError::Parse(format!("{what}: expected {expected}, got {tag}"))
}

fn range_err(what: &str, n: u64) -> GccoError {
    GccoError::Parse(format!("{what}: {n} is out of range"))
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> GccoError {
        GccoError::Parse(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), GccoError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, GccoError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, GccoError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, GccoError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        // Only ASCII bytes were consumed, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| GccoError::Parse(format!("invalid number \"{text}\" at byte {start}")))
    }

    fn string(&mut self) -> Result<String, GccoError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // escape or control byte in one slice: those stop bytes are
            // ASCII, so the run ends on a char boundary.
            let run = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, GccoError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, GccoError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, GccoError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Escapes and quotes a string for JSON output.
pub fn json_string(s: &str) -> String {
    let mut buf = String::with_capacity(s.len() + 2);
    push_json_string(&mut buf, s);
    buf
}

/// Formats a float with Rust's shortest round-trip representation
/// (`5.0`, `0.021`, `1e-12`, …) — exact under encode → parse. Non-finite
/// values (which validation keeps out of every payload) become `null`.
pub fn json_f64(x: f64) -> String {
    to_json(&x)
}

// ---------------------------------------------------------------------
// The Wire trait and its derivations
// ---------------------------------------------------------------------

/// One shape of the wire format: encodes into a shared buffer, decodes
/// from a parsed value. `what` names the field being decoded, for error
/// messages.
trait Wire: Sized {
    fn encode(&self, buf: &mut String);
    fn decode(v: &Json, what: &str) -> Result<Self, GccoError>;
}

/// A [`Wire`] object whose fields can also be written into an enclosing
/// object (see `#[flatten]` in [`wire_enum!`]).
trait WireFields: Wire {
    fn encode_fields(&self, buf: &mut String);
}

fn to_json<T: Wire>(x: &T) -> String {
    let mut buf = String::with_capacity(128);
    x.encode(&mut buf);
    buf
}

/// Writes `"name":`, after a comma unless it is the object's first key.
/// Names are Rust identifiers, so they need no escaping.
fn key(buf: &mut String, name: &str) {
    if !buf.ends_with('{') {
        buf.push(',');
    }
    buf.push('"');
    buf.push_str(name);
    buf.push_str("\":");
}

fn push_json_string(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

fn push_list<T: Wire>(buf: &mut String, items: &[T]) {
    buf.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        x.encode(buf);
    }
    buf.push(']');
}

/// A required object field.
fn field<T: Wire>(v: &Json, name: &str) -> Result<T, GccoError> {
    T::decode(v.field(name)?, name)
}

/// An object field that may be absent or `null`.
fn optional<T: Wire>(v: &Json, name: &str) -> Result<Option<T>, GccoError> {
    v.get(name).map_or(Ok(None), |x| Option::decode(x, name))
}

impl Wire for f64 {
    fn encode(&self, buf: &mut String) {
        if self.is_finite() {
            let _ = write!(buf, "{self:?}");
        } else {
            buf.push_str("null");
        }
    }
    fn decode(v: &Json, what: &str) -> Result<f64, GccoError> {
        v.as_f64(what)
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut String) {
        let _ = write!(buf, "{self}");
    }
    fn decode(v: &Json, what: &str) -> Result<u64, GccoError> {
        v.as_u64(what)
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut String) {
        let _ = write!(buf, "{self}");
    }
    fn decode(v: &Json, what: &str) -> Result<u32, GccoError> {
        let n = v.as_u64(what)?;
        u32::try_from(n).map_err(|_| range_err(what, n))
    }
}

impl Wire for i64 {
    fn encode(&self, buf: &mut String) {
        let _ = write!(buf, "{self}");
    }
    fn decode(v: &Json, what: &str) -> Result<i64, GccoError> {
        v.as_i64(what)
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut String) {
        buf.push_str(if *self { "true" } else { "false" });
    }
    fn decode(v: &Json, what: &str) -> Result<bool, GccoError> {
        v.as_bool(what)
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut String) {
        push_json_string(buf, self);
    }
    fn decode(v: &Json, what: &str) -> Result<String, GccoError> {
        v.as_str(what).map(str::to_string)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut String) {
        match self {
            Some(x) => x.encode(buf),
            None => buf.push_str("null"),
        }
    }
    fn decode(v: &Json, what: &str) -> Result<Option<T>, GccoError> {
        match v {
            Json::Null => Ok(None),
            x => T::decode(x, what).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut String) {
        push_list(buf, self);
    }
    fn decode(v: &Json, what: &str) -> Result<Vec<T>, GccoError> {
        v.as_arr(what)?.iter().map(|x| T::decode(x, what)).collect()
    }
}

/// Derives [`Wire`] for string-valued enums from one `Variant = "name"`
/// list.
macro_rules! wire_names {
    ($($ty:ident { $($var:ident = $name:literal),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn encode(&self, buf: &mut String) {
                buf.push_str(match self {
                    $($ty::$var => concat!("\"", $name, "\""),)*
                });
            }
            fn decode(v: &Json, what: &str) -> Result<$ty, GccoError> {
                match v.as_str(what)? {
                    $($name => Ok($ty::$var),)*
                    other => Err(GccoError::Parse(format!("unknown {what} \"{other}\""))),
                }
            }
        }
    )*};
}

wire_names! {
    SamplingTap { Standard = "standard", Improved = "improved" }
    EdgeModel { ResyncReferenced = "resync_referenced", IndependentEdges = "independent_edges" }
}

/// The architecture names live with [`CdrArchKind`] (they also label its
/// obs counters).
impl Wire for CdrArchKind {
    fn encode(&self, buf: &mut String) {
        push_json_string(buf, self.wire_name());
    }
    fn decode(v: &Json, what: &str) -> Result<CdrArchKind, GccoError> {
        let name = v.as_str(what)?;
        CdrArchKind::from_wire(name)
            .ok_or_else(|| GccoError::Parse(format!("unknown {what} \"{name}\"")))
    }
}

/// Derives [`Wire`] for structs from their field list, in wire order: the
/// object `{"field":value,...}` with each key spelled as the Rust field.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl WireFields for $ty {
            fn encode_fields(&self, buf: &mut String) {
                $(
                    key(buf, stringify!($field));
                    self.$field.encode(buf);
                )*
            }
        }
        impl Wire for $ty {
            fn encode(&self, buf: &mut String) {
                buf.push('{');
                self.encode_fields(buf);
                buf.push('}');
            }
            fn decode(v: &Json, _: &str) -> Result<$ty, GccoError> {
                Ok($ty { $($field: field(v, stringify!($field))?,)* })
            }
        }
    )*};
}

wire_struct! {
    ModelSpec {
        dj_pp, rj_rms, sj_pp, sj_freq_norm, ckj_rms, cid_max, run_dist, tap, freq_offset,
        edge_model, include_slip, gating_tau_ui, grid_step,
    }
    SjOverride { amplitude_pp, freq_norm }
    PowerScanSpec {
        bit_rate_gbps, swing_v, n_stages, cid, eta, sigma_ui_target, iss_min_ua, iss_max_ua,
        steps, iss_sizing_max_a,
    }
    DsimRunSpec { seed, stages, stage_delay_ps, jitter_rel, duration_ns }
    MultiChannelSpec {
        channels, mismatch_sigma, ripple_rms_ui, seed, bit_rate_gbps, target_ber, spec,
    }
    OptimizeSpec {
        base, target_ber, budget_mw_per_gbps, bit_rate_gbps, freq_margin, margin_hi, taps,
        cids, ckj_lo, ckj_hi, rel_tol, seed, max_probes,
    }
    BaselineSpec {
        bits, seed, bit_rate_gbps, freq_offset, kp, ki, sj_amp_pp, sj_freq_norm, rj_rms_ui,
    }
    JtolPointOut { freq_norm, amplitude_pp, censored }
    SizedCellOut { iss_a, swing_v, delay_fs }
    PowerPointOut { iss_a, ring_power_mw, sigma_ui }
    DsimRunOut { period_ps_mean, period_ps_rms, rising_edges, events }
    ChannelOut { index, freq_offset, ber, settling_ui }
    BestDesignOut { spec, mw_per_gbps, worst_ber, margin, settling_ui }
    ComboReportOut { tap, cid_max, ckj_rms, mw_per_gbps, worst_ber, probes }
    OptimizeOut { best, per_combo, probes, store_hits, converged }
    BaselineOut { lock_bits, errors, updates, residual_rms_ui, capture_range, jtol_amp_pp }
}

/// Encodes or decodes one variant field of a [`wire_enum!`] row; a
/// `#[flatten]` field writes its own fields into the variant's object.
macro_rules! wire_variant_field {
    (encode $buf:ident, $field:ident) => {{
        key($buf, stringify!($field));
        $field.encode($buf);
    }};
    (encode $buf:ident, $field:ident, flatten) => {
        $field.encode_fields($buf)
    };
    (decode $v:ident, $field:ident) => {
        field($v, stringify!($field))
    };
    (decode $v:ident, $field:ident, flatten) => {
        Wire::decode($v, stringify!($field))
    };
}

/// Derives [`Wire`] and `kind()` for internally tagged enums from one
/// `Variant = "tag" { fields }` list: the object carries the tag under
/// the given key, followed by the variant's fields in list order.
macro_rules! wire_enum {
    ($($vis:vis $ty:ident by $tag_key:literal {
        $($var:ident = $tag:literal { $($(#[$flat:ident])? $field:ident),* })*
    })*) => {$(
        impl $ty {
            #[doc = concat!(
                "Short lowercase tag naming the variant (the wire `\"",
                $tag_key,
                "\"` field)."
            )]
            $vis fn kind(&self) -> &'static str {
                match self {
                    $($ty::$var { .. } => $tag,)*
                }
            }
        }
        impl Wire for $ty {
            fn encode(&self, buf: &mut String) {
                buf.push('{');
                key(buf, $tag_key);
                push_json_string(buf, self.kind());
                match self {$(
                    $ty::$var { $($field),* } => {
                        $(wire_variant_field!(encode buf, $field $(, $flat)?);)*
                    }
                )*}
                buf.push('}');
            }
            fn decode(v: &Json, what: &str) -> Result<$ty, GccoError> {
                match v.field($tag_key)?.as_str($tag_key)? {
                    $($tag => Ok($ty::$var {
                        $($field: wire_variant_field!(decode v, $field $(, $flat)?)?,)*
                    }),)*
                    other => Err(GccoError::Parse(format!(
                        concat!("unknown {} ", $tag_key, " \"{}\""),
                        what, other
                    ))),
                }
            }
        }
    )*};
}

wire_enum! {
    pub EvalRequest by "type" {
        BerPoint = "ber_point" { spec, sj }
        BerGrid = "ber_grid" { spec, amps_pp, freqs_norm }
        JtolCurve = "jtol_curve" { spec, freqs_norm, target_ber }
        FtolSearch = "ftol_search" { spec, target_ber }
        PowerScan = "power_scan" { scan }
        DsimRun = "dsim_run" { run }
        MultiChannel = "multi_channel" { mc }
        Optimize = "optimize" { opt }
        Baseline = "baseline" { arch, spec, metric }
    }
    pub EvalResponse by "type" {
        Scalar = "scalar" { value }
        Grid = "grid" { rows }
        Jtol = "jtol" { points }
        Ftol = "ftol" { value }
        Power = "power" { sized, points }
        Dsim = "dsim" { run }
        MultiChannel = "multi_channel" {
            channels, worst_ber, yield_pct, mw_per_gbps, within_budget
        }
        Optimize = "optimize" { #[flatten] out }
        Baseline = "baseline" { out }
    }
    BaselineMetric by "kind" {
        Track = "track" {}
        CaptureRange = "capture_range" { hi }
        JtolPoint = "jtol_point" { freq_norm }
    }
}

// ---------------------------------------------------------------------
// Irregular shapes
// ---------------------------------------------------------------------

// Keys of the hand-written shapes below, each shared by its encoder and
// decoder.
const GEOMETRIC: &str = "geometric";
const COUNTS: &str = "counts";
const ID: &str = "id";
const V: &str = "v";
const DEADLINE_MS: &str = "deadline_ms";
const REQUEST: &str = "request";
const BATCH: &str = "batch";
const NOTE: &str = "note";
const OK: &str = "ok";
const ERR: &str = "err";
const KIND: &str = "kind";
const DETAIL: &str = "detail";

/// `{"geometric":n}` or `{"counts":[...]}`: the key itself is the tag.
impl Wire for RunDistSpec {
    fn encode(&self, buf: &mut String) {
        buf.push('{');
        match self {
            RunDistSpec::Geometric(n) => {
                key(buf, GEOMETRIC);
                n.encode(buf);
            }
            RunDistSpec::Counts(counts) => {
                key(buf, COUNTS);
                counts.encode(buf);
            }
        }
        buf.push('}');
    }
    fn decode(v: &Json, what: &str) -> Result<RunDistSpec, GccoError> {
        if let Some(n) = v.get(GEOMETRIC) {
            Ok(RunDistSpec::Geometric(Wire::decode(n, GEOMETRIC)?))
        } else if let Some(counts) = v.get(COUNTS) {
            Ok(RunDistSpec::Counts(Wire::decode(counts, COUNTS)?))
        } else {
            Err(GccoError::Parse(format!(
                "{what} must carry \"{GEOMETRIC}\" or \"{COUNTS}\""
            )))
        }
    }
}

/// Encodes a [`ModelSpec`] as a JSON object.
pub fn encode_model_spec(spec: &ModelSpec) -> String {
    to_json(spec)
}

/// Parses a [`ModelSpec`] from its JSON object.
///
/// # Errors
///
/// [`GccoError::Parse`] on a missing/mistyped field or unknown tag.
pub fn parse_model_spec(v: &Json) -> Result<ModelSpec, GccoError> {
    ModelSpec::decode(v, "spec")
}

/// Encodes an [`EvalRequest`] as a JSON object (the envelope's
/// `"request"` payload).
pub fn encode_request(req: &EvalRequest) -> String {
    to_json(req)
}

/// Parses an [`EvalRequest`] from its JSON object.
///
/// # Errors
///
/// [`GccoError::Parse`] on malformed input.
pub fn parse_request(v: &Json) -> Result<EvalRequest, GccoError> {
    EvalRequest::decode(v, REQUEST)
}

/// Encodes an [`EvalResponse`] as a JSON object.
pub fn encode_response(resp: &EvalResponse) -> String {
    to_json(resp)
}

/// Parses an [`EvalResponse`] from its JSON object.
///
/// # Errors
///
/// [`GccoError::Parse`] on malformed input.
pub fn parse_response(v: &Json) -> Result<EvalResponse, GccoError> {
    EvalResponse::decode(v, "response")
}

// ---------------------------------------------------------------------
// gcco-serve wire envelopes
// ---------------------------------------------------------------------

/// One submitted request with its wire id and optional deadline.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Client-chosen request id, echoed on the response line.
    pub id: u64,
    /// Declared protocol version; `None` means the field was absent.
    /// Only `Some(`[`PROTOCOL_VERSION`]`)` passes the parse gate — the
    /// `Option` survives so a client can encode (and a test can exercise)
    /// the rejected shapes.
    pub v: Option<u64>,
    /// Optional per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// The request payload.
    pub request: EvalRequest,
}

/// One parsed client line.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientLine {
    /// One or more requests (a bare envelope, or `{"batch": [...]}`).
    Requests(Vec<Envelope>),
    /// A control command (`{"cmd": "..."}`): `ping`, `stats`, `shutdown`.
    Command(String),
}

/// `"v"` is omitted when `None` (a shape the parse gate rejects, kept
/// encodable for tests and version probes) while `"deadline_ms"` is
/// written as `null`; decoding gates on the version before it touches
/// the payload.
impl Wire for Envelope {
    fn encode(&self, buf: &mut String) {
        buf.push('{');
        key(buf, ID);
        self.id.encode(buf);
        if let Some(v) = self.v {
            key(buf, V);
            v.encode(buf);
        }
        key(buf, DEADLINE_MS);
        self.deadline_ms.encode(buf);
        key(buf, REQUEST);
        self.request.encode(buf);
        buf.push('}');
    }
    fn decode(v: &Json, _: &str) -> Result<Envelope, GccoError> {
        let version = optional(v, V)?;
        // Version gate before touching the payload: a request from another
        // protocol generation should fail with a structured version error,
        // not a field-level parse error inside a request shape this build
        // has never heard of. An absent field is the retired v1 format.
        if version != Some(PROTOCOL_VERSION) {
            return Err(GccoError::UnsupportedVersion {
                v: version.unwrap_or(1),
            });
        }
        Ok(Envelope {
            id: field(v, ID)?,
            v: version,
            deadline_ms: optional(v, DEADLINE_MS)?,
            request: field(v, REQUEST)?,
        })
    }
}

/// Rejects a batch whose envelopes reuse a request id: ids are the only
/// correlation mechanism on the wire (responses arrive in completion
/// order), so a duplicated id would make its responses ambiguous.
///
/// # Errors
///
/// [`GccoError::DuplicateId`] naming the first repeated id.
pub fn check_unique_ids(envelopes: &[Envelope]) -> Result<(), GccoError> {
    for (i, env) in envelopes.iter().enumerate() {
        if envelopes[..i].iter().any(|e| e.id == env.id) {
            return Err(GccoError::DuplicateId { id: env.id });
        }
    }
    Ok(())
}

/// Parses one client line: a single envelope, a batch, or a command.
///
/// # Errors
///
/// [`GccoError::Parse`] on malformed input, [`GccoError::DuplicateId`]
/// when a batch reuses a request id.
pub fn parse_client_line(line: &str) -> Result<ClientLine, GccoError> {
    let v = Json::parse(line)?;
    if let Some(cmd) = v.get("cmd") {
        return Ok(ClientLine::Command(cmd.as_str("cmd")?.to_string()));
    }
    if let Some(batch) = v.get(BATCH) {
        let envelopes: Vec<Envelope> = Wire::decode(batch, BATCH)?;
        if envelopes.is_empty() {
            return Err(GccoError::Parse("empty batch".to_string()));
        }
        check_unique_ids(&envelopes)?;
        return Ok(ClientLine::Requests(envelopes));
    }
    Ok(ClientLine::Requests(vec![Envelope::decode(
        &v, "envelope",
    )?]))
}

/// Encodes an [`Envelope`] as one client line (no trailing newline).
/// A `v: None` envelope is emitted without a `"v"` field — a shape the
/// parse gate rejects, kept encodable for tests and version probes.
pub fn encode_envelope(env: &Envelope) -> String {
    to_json(env)
}

/// Encodes a batch of envelopes as one client line (no trailing newline).
pub fn encode_batch(envs: &[Envelope]) -> String {
    let mut buf = String::from("{");
    key(&mut buf, BATCH);
    push_list(&mut buf, envs);
    buf.push('}');
    buf
}

/// Encodes one response line for the given request id (no trailing
/// newline): `{"id":N,"ok":{...}}` or `{"id":N,"err":{...}}`.
pub fn encode_result_line(id: u64, result: &Result<EvalResponse, GccoError>) -> String {
    encode_result_line_with_note(id, None, result)
}

/// Like [`encode_result_line`], with an optional advisory `"note"` field
/// between the id and the payload — the slot a server or proxy tier uses
/// to attach out-of-band warnings without disturbing the `ok`/`err`
/// shape (and which [`ResultLine`] preserves when forwarding).
pub fn encode_result_line_with_note(
    id: u64,
    note: Option<&str>,
    result: &Result<EvalResponse, GccoError>,
) -> String {
    match result {
        Ok(resp) => write_result_line(id, note, Ok(resp)),
        Err(e) => write_result_line(id, note, Err((e.kind(), &e.detail()))),
    }
}

/// Re-encodes a parsed [`ResultLine`] (no trailing newline),
/// **byte-identically** to the line the server emitted: field order is
/// fixed and the float codec is exact (`f64`s round-trip through their
/// shortest decimal form), so `parse_result_line` → this function is the
/// identity on every line `gcco-serve` produces. This is what lets a
/// proxy tier — `gcco-router` — forward responses without perturbing a
/// byte, keeping cluster results comparable to a single-server run with
/// `==` on the raw wire text.
pub fn encode_parsed_result_line(line: &ResultLine) -> String {
    let result = match &line.result {
        Ok(resp) => Ok(resp),
        Err((kind, detail)) => Err((kind.as_str(), detail.as_str())),
    };
    write_result_line(line.id, line.note.as_deref(), result)
}

/// The one writer behind every response line.
fn write_result_line(
    id: u64,
    note: Option<&str>,
    result: Result<&EvalResponse, (&str, &str)>,
) -> String {
    let mut buf = String::with_capacity(128);
    buf.push('{');
    key(&mut buf, ID);
    id.encode(&mut buf);
    if let Some(note) = note {
        key(&mut buf, NOTE);
        push_json_string(&mut buf, note);
    }
    match result {
        Ok(resp) => {
            key(&mut buf, OK);
            resp.encode(&mut buf);
        }
        Err((kind, detail)) => write_err(&mut buf, kind, detail),
    }
    buf.push('}');
    buf
}

/// Writes the `"err":{"kind":...,"detail":...}` member.
fn write_err(buf: &mut String, kind: &str, detail: &str) {
    key(buf, ERR);
    buf.push('{');
    key(buf, KIND);
    push_json_string(buf, kind);
    key(buf, DETAIL);
    push_json_string(buf, detail);
    buf.push('}');
}

/// Encodes an **id-less** error line (no trailing newline):
/// `{"err":{"kind":...,"detail":...}}`. This is the reply to input the
/// server cannot correlate to any envelope — a malformed line or an
/// unknown command — and is deliberately shaped so it can never be
/// mistaken for the response to a legitimate request (every envelope
/// response carries an `"id"` field; this line has none).
pub fn encode_error_line(e: &GccoError) -> String {
    let mut buf = String::from("{");
    write_err(&mut buf, e.kind(), &e.detail());
    buf.push('}');
    buf
}

/// A response line parsed from the wire, error side kept as
/// `(kind, detail)` strings.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultLine {
    /// The echoed request id.
    pub id: u64,
    /// Advisory server note, if any (preserved byte-faithfully when a
    /// proxy tier forwards the line).
    pub note: Option<String>,
    /// The response or the wire error.
    pub result: Result<EvalResponse, (String, String)>,
}

/// Parses one server response line.
///
/// # Errors
///
/// [`GccoError::Parse`] on malformed input.
pub fn parse_result_line(line: &str) -> Result<ResultLine, GccoError> {
    let v = Json::parse(line)?;
    let id = field(&v, ID)?;
    let note = optional(&v, NOTE)?;
    let result = match v.get(OK) {
        Some(ok) => Ok(EvalResponse::decode(ok, "response")?),
        None => {
            let err = v.field(ERR)?;
            Err((field(err, KIND)?, field(err, DETAIL)?))
        }
    };
    Ok(ResultLine { id, note, result })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_json_zoo() {
        let v = Json::parse(
            r#"{"a": [1, -2.5, 1e-12], "b": {"c": "x\n\"y\u00e9\ud83d\ude00"}, "d": null, "e": true}"#,
        )
        .expect("parses");
        assert_eq!(v.field("a").unwrap().as_arr("a").unwrap().len(), 3);
        assert_eq!(
            v.field("b")
                .unwrap()
                .field("c")
                .unwrap()
                .as_str("c")
                .unwrap(),
            "x\n\"yé😀"
        );
        assert_eq!(v.field("d").unwrap(), &Json::Null);
        assert!(v.field("e").unwrap().as_bool("e").unwrap());
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "{\"a\":1} x",
            "\"\\q\"",
            "1e",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_parse_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).expect_err("too deep");
        assert_eq!(err.kind(), "parse_error");
        assert!(err.detail().contains("nesting"), "{err:?}");
        // Deep enough to overflow a recursive parser's stack: still just
        // a parse error, on a client line as on a bare value.
        let hostile = format!("{{\"batch\":{}", "[".repeat(20_000));
        assert_eq!(
            parse_client_line(&hostile).expect_err("too deep").kind(),
            "parse_error"
        );
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "é".repeat(512 * 1024);
        let line = format!("{{\"cmd\":\"{body}\"}}");
        assert!(line.len() > 1 << 20);
        let start = std::time::Instant::now();
        let parsed = parse_client_line(&line).expect("parses");
        let took = start.elapsed();
        assert_eq!(parsed, ClientLine::Command(body));
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    #[test]
    fn integers_decode_exactly_or_not_at_all() {
        // Digit literals are exact across the whole u64 range.
        for n in [0, (1 << 53) + 1, u64::MAX] {
            assert_eq!(Json::parse(&n.to_string()).unwrap().as_u64("n"), Ok(n));
        }
        // Float spellings of small integers still count.
        for text in ["5.0", "5e0", "0.5e1"] {
            assert_eq!(Json::parse(text).unwrap().as_u64("n"), Ok(5), "{text}");
        }
        // A u32 field out of range is a parse error naming the field, not
        // a silent truncation (4294967301 would wrap to 5).
        let spec = encode_model_spec(&ModelSpec::paper_table1())
            .replace("\"cid_max\":5", "\"cid_max\":4294967301");
        let err = parse_model_spec(&Json::parse(&spec).unwrap()).expect_err("out of range");
        assert_eq!(err.kind(), "parse_error");
        assert!(err.detail().contains("cid_max"), "{err:?}");
        // Past u64, and negative, are rejected too.
        for text in ["18446744073709551616", "-1", "5.5"] {
            assert!(Json::parse(text).unwrap().as_u64("n").is_err(), "{text}");
        }
    }

    #[test]
    fn f64_formatting_round_trips_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0,
            0.1,
            1e-12,
            2.5,
            0.021,
            f64::MIN_POSITIVE,
            f64::MAX,
            -123.456e-7,
        ] {
            let text = json_f64(x);
            let back = Json::parse(&text).unwrap().as_f64("x").unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn spec_round_trips() {
        let spec = ModelSpec::paper_table1()
            .with_sj(0.3, 0.25)
            .with_freq_offset(-0.01)
            .with_run_dist(RunDistSpec::Counts(vec![0, 7, 3]));
        let text = encode_model_spec(&spec);
        let back = parse_model_spec(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn envelope_and_result_lines_round_trip() {
        let env = Envelope {
            id: 7,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: Some(250),
            request: EvalRequest::FtolSearch {
                spec: ModelSpec::paper_table1(),
                target_ber: 1e-12,
            },
        };
        let line = encode_envelope(&env);
        match parse_client_line(&line).unwrap() {
            ClientLine::Requests(envs) => assert_eq!(envs, vec![env.clone()]),
            other => panic!("{other:?}"),
        }
        let mut second = env.clone();
        second.id = 8;
        let batch = encode_batch(&[env.clone(), second]);
        match parse_client_line(&batch).unwrap() {
            ClientLine::Requests(envs) => assert_eq!(envs.len(), 2),
            other => panic!("{other:?}"),
        }
        let ok_line = encode_result_line(7, &Ok(EvalResponse::Ftol { value: 0.033 }));
        let parsed = parse_result_line(&ok_line).unwrap();
        assert_eq!(parsed.id, 7);
        assert_eq!(parsed.result, Ok(EvalResponse::Ftol { value: 0.033 }));
        let err_line = encode_result_line(8, &Err(GccoError::QueueFull { capacity: 4 }));
        let parsed = parse_result_line(&err_line).unwrap();
        assert_eq!(parsed.id, 8);
        let (kind, detail) = parsed.result.unwrap_err();
        assert_eq!(kind, "queue_full");
        assert!(detail.contains('4'));
    }

    #[test]
    fn duplicate_batch_ids_are_rejected() {
        let env = Envelope {
            id: 7,
            v: Some(PROTOCOL_VERSION),
            deadline_ms: None,
            request: EvalRequest::FtolSearch {
                spec: ModelSpec::paper_table1(),
                target_ber: 1e-12,
            },
        };
        let batch = encode_batch(&[env.clone(), env.clone()]);
        let err = parse_client_line(&batch).expect_err("duplicate ids must be rejected");
        assert_eq!(err, GccoError::DuplicateId { id: 7 });
        assert_eq!(err.kind(), "duplicate_id");
        // Distinct ids are fine.
        let ok = encode_batch(&[env.clone(), Envelope { id: 8, ..env }]);
        assert!(parse_client_line(&ok).is_ok());
    }

    #[test]
    fn idless_error_lines_carry_no_id_field() {
        let line = encode_error_line(&GccoError::Parse("bad".to_string()));
        let v = Json::parse(&line).unwrap();
        assert!(v.get("id").is_none(), "{line}");
        assert_eq!(
            v.field("err")
                .unwrap()
                .field("kind")
                .unwrap()
                .as_str("kind")
                .unwrap(),
            "parse_error"
        );
        // It is not an envelope response, so the envelope parser refuses it.
        assert!(parse_result_line(&line).is_err());
    }

    #[test]
    fn commands_parse() {
        assert_eq!(
            parse_client_line("{\"cmd\":\"shutdown\"}").unwrap(),
            ClientLine::Command("shutdown".to_string())
        );
    }

    #[test]
    fn multi_channel_request_and_response_round_trip() {
        let req = EvalRequest::MultiChannel {
            mc: MultiChannelSpec::paper_quad(),
        };
        let text = encode_request(&req);
        let back = parse_request(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, req);

        let resp = EvalResponse::MultiChannel {
            channels: vec![
                ChannelOut {
                    index: 0,
                    freq_offset: 0.0013,
                    ber: 1e-15,
                    settling_ui: 9.25,
                },
                ChannelOut {
                    index: 1,
                    freq_offset: -0.002,
                    ber: 2.5e-13,
                    settling_ui: 11.0,
                },
            ],
            worst_ber: 2.5e-13,
            yield_pct: 100.0,
            mw_per_gbps: Some(3.8),
            within_budget: true,
        };
        let text = encode_response(&resp);
        let back = parse_response(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, resp);

        // The null side of the optional power roll-up.
        let resp = EvalResponse::MultiChannel {
            channels: vec![],
            worst_ber: 1.0,
            yield_pct: 0.0,
            mw_per_gbps: None,
            within_budget: false,
        };
        let text = encode_response(&resp);
        assert!(text.contains("\"mw_per_gbps\":null"), "{text}");
        assert_eq!(parse_response(&Json::parse(&text).unwrap()).unwrap(), resp);
    }

    #[test]
    fn baseline_request_and_response_round_trip() {
        for arch in CdrArchKind::ALL {
            for metric in [
                BaselineMetric::Track,
                BaselineMetric::CaptureRange { hi: 0.1 },
                BaselineMetric::JtolPoint { freq_norm: 0.01 },
            ] {
                let req = EvalRequest::Baseline {
                    arch,
                    spec: BaselineSpec {
                        freq_offset: 0.0015,
                        rj_rms_ui: 0.01,
                        ..BaselineSpec::typical(arch)
                    },
                    metric,
                };
                let text = encode_request(&req);
                let back = parse_request(&Json::parse(&text).unwrap()).unwrap();
                assert_eq!(back, req);
            }
        }

        let resp = EvalResponse::Baseline {
            out: BaselineOut {
                lock_bits: Some(207),
                errors: 3,
                updates: 14_975,
                residual_rms_ui: Some(0.0123),
                capture_range: None,
                jtol_amp_pp: Some(0.75),
            },
        };
        let text = encode_response(&resp);
        let back = parse_response(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, resp);

        // The no-lock side: every optional field rides as null.
        let resp = EvalResponse::Baseline {
            out: BaselineOut {
                lock_bits: None,
                errors: 991,
                updates: 14_975,
                residual_rms_ui: None,
                capture_range: None,
                jtol_amp_pp: None,
            },
        };
        let text = encode_response(&resp);
        assert!(text.contains("\"lock_bits\":null"), "{text}");
        assert!(text.contains("\"residual_rms_ui\":null"), "{text}");
        assert_eq!(parse_response(&Json::parse(&text).unwrap()).unwrap(), resp);

        // Unknown arch and metric names are structured parse errors.
        let bad = "{\"type\":\"baseline\",\"arch\":\"pll\",\"spec\":{},\"metric\":{}}";
        assert!(matches!(
            parse_request(&Json::parse(bad).unwrap()),
            Err(GccoError::Parse(_))
        ));
    }

    #[test]
    fn version_gate_accepts_only_the_current_version() {
        let request = "{\"type\":\"ftol_search\",\"spec\":SPEC,\"target_ber\":1e-12}"
            .replace("SPEC", &encode_model_spec(&ModelSpec::paper_table1()));

        // Current version: accepted and re-encoded with its version.
        let line = format!("{{\"id\":1,\"v\":{PROTOCOL_VERSION},\"request\":{request}}}");
        let ClientLine::Requests(envs) = parse_client_line(&line).unwrap() else {
            panic!("not requests");
        };
        assert_eq!(envs[0].v, Some(PROTOCOL_VERSION));
        let reencoded = encode_envelope(&envs[0]);
        assert!(
            reencoded.contains(&format!("\"v\":{PROTOCOL_VERSION}")),
            "{reencoded}"
        );

        // Everything else gets the structured error: the retired v1
        // format (explicit or as an absent field) and unknown future
        // versions alike — even when the payload would not parse, the
        // version gate fires first.
        for (line, want_v) in [
            (format!("{{\"id\":1,\"request\":{request}}}"), 1),
            (format!("{{\"id\":1,\"v\":1,\"request\":{request}}}"), 1),
            (format!("{{\"id\":1,\"v\":3,\"request\":{request}}}"), 3),
            (
                "{\"id\":1,\"v\":99,\"request\":{\"type\":\"from_the_future\"}}".to_string(),
                99,
            ),
        ] {
            let err = parse_client_line(&line).expect_err("wrong v must be rejected");
            assert!(
                matches!(err, GccoError::UnsupportedVersion { v } if v == want_v),
                "{line}: {err:?}"
            );
            assert_eq!(err.kind(), "unsupported_version");
        }

        // A non-integer version is a parse error, not a crash.
        let bad = format!("{{\"id\":1,\"v\":\"two\",\"request\":{request}}}");
        assert!(matches!(parse_client_line(&bad), Err(GccoError::Parse(_))));
    }

    #[test]
    fn result_line_notes_round_trip_and_default_off() {
        let plain = encode_result_line(4, &Ok(EvalResponse::Scalar { value: 1.0 }));
        assert!(!plain.contains("note"), "{plain}");
        assert_eq!(parse_result_line(&plain).unwrap().note, None);

        let advisory = "served from a draining backend";
        let noted = encode_result_line_with_note(
            4,
            Some(advisory),
            &Ok(EvalResponse::Scalar { value: 1.0 }),
        );
        let parsed = parse_result_line(&noted).unwrap();
        assert_eq!(parsed.id, 4);
        assert_eq!(parsed.note.as_deref(), Some(advisory));
        assert_eq!(parsed.result, Ok(EvalResponse::Scalar { value: 1.0 }));

        // Notes ride on error lines too.
        let err_line =
            encode_result_line_with_note(5, Some(advisory), &Err(GccoError::ShuttingDown));
        let parsed = parse_result_line(&err_line).unwrap();
        assert_eq!(parsed.note.as_deref(), Some(advisory));
        assert_eq!(parsed.result.unwrap_err().0, "shutting_down");
    }

    /// `parse_result_line` → `encode_parsed_result_line` is the identity
    /// on every line shape the server emits — ok, error, noted, awkward
    /// floats — the byte-forwarding contract the router tier leans on.
    #[test]
    fn parsed_result_lines_re_encode_byte_identically() {
        let lines = [
            encode_result_line(0, &Ok(EvalResponse::Scalar { value: 1e-12 })),
            encode_result_line(
                7,
                &Ok(EvalResponse::Grid {
                    rows: vec![vec![0.1, f64::MIN_POSITIVE], vec![-0.0, 2.5e-308]],
                }),
            ),
            encode_result_line(3, &Err(GccoError::QueueFull { capacity: 4 })),
            encode_result_line_with_note(
                9,
                Some("served from a draining backend"),
                &Ok(EvalResponse::Scalar { value: 0.021 }),
            ),
            encode_result_line_with_note(
                11,
                Some("weird \"note\"\n"),
                &Err(GccoError::Parse("x".into())),
            ),
        ];
        for line in lines {
            let parsed = parse_result_line(&line).expect("well-formed");
            assert_eq!(encode_parsed_result_line(&parsed), line);
        }
    }
}
