//! The line-based text protocol spoken over TCP.
//!
//! One request per line, fields separated by single spaces. Every response
//! is a single line, except `METRICS`, whose header announces how many
//! exposition lines follow. The grammar (also in the README's "Serving"
//! section):
//!
//! ```text
//! request  := "COVER?" SP vertex
//!           | "BREAKERS?" SP vertex SP vertex
//!           | "EXPLAIN?" SP vertex
//!           | "RESIDUAL?"
//!           | "HEALTH?"
//!           | "INSERT" SP vertex SP vertex
//!           | "DELETE" SP vertex SP vertex
//!           | "STATS" | "SNAPSHOT" | "METRICS" | "PING" | "SHUTDOWN"
//! vertex   := decimal u32
//!
//! response := "OK" SP payload | "ERR" SP message
//! payload  := ("IN" | "OUT") SP epoch
//!             SP "cost=" total SP "exhausted=" bit     (COVER?)
//!           | "BREAKERS" SP epoch SP count {SP vertex} (BREAKERS?)
//!           | "EXPLAIN" {SP key "=" value}             (EXPLAIN?)
//!           | "RESIDUAL" {SP key "=" value}            (RESIDUAL?)
//!           | "HEALTH" {SP key "=" value}              (HEALTH?)
//!           | "QUEUED"                                 (INSERT / DELETE)
//!           | "STATS" {SP key "=" value}               (STATS)
//!           | "SNAPSHOT" {SP key "=" value}            (SNAPSHOT)
//!           | "METRICS" SP count LF count * (line LF)  (METRICS)
//!           | "PONG"                                   (PING)
//!           | "BYE"                                    (SHUTDOWN)
//! ```
//!
//! The `COVER?` reply carries the cover's `cost=` (total vertex cost of the
//! snapshot cover under the engine's cost model; equals the cover size under
//! uniform costs) and `exhausted=` (`1` when the cover is known incomplete —
//! the resident engine maintains complete covers, so it always answers `0`;
//! the field keeps clients forward-compatible with budgeted serving).
//! `EXPLAIN? v` reports how load-bearing `v` is: its cost and the number of
//! constrained cycles only it breaks (keys `epoch`, `vertex`, `in_cover`,
//! `cost`, `cycles`, `truncated`). `RESIDUAL?` counts constrained cycles the
//! published cover fails to break (keys `epoch`, `count`, `truncated`) — the
//! wire-level completeness audit, `count=0` on a healthy service.
//! `HEALTH?` answers the watchdog's classification (keys `status` —
//! `ok`/`degraded`/`stalled` — `reasons` as comma-joined machine-readable
//! codes, `heartbeat_age_ms`, `publish_age_ms`, `queue_depth`,
//! `queue_capacity`, `epoch`). `SNAPSHOT` describes the published snapshot
//! (keys `epoch`, `vertices`, `edges`, `cover`, `k`, `dirty`); the writer
//! minimizes before every publish, so `dirty` always reads `0` and stays on
//! the wire only for clients that parse it.
//!
//! `key` and `value` are percent-escaped ([`kv_response`] / [`parse_kv`]):
//! `%`, space, `=`, TAB, CR and LF appear as `%25` `%20` `%3d` `%09` `%0d`
//! `%0a`, so free-form values cannot break the one-line framing or the
//! `key=value` token shape. The `METRICS` body is Prometheus text exposition
//! (`# TYPE` lines, `name value` samples, histogram `_bucket`/`_sum`/
//! `_count` series) and is framed by the line count in its header instead.
//!
//! Reads (`COVER?`, `BREAKERS?`, `SNAPSHOT`) are answered from the handler's
//! current snapshot and carry the epoch they were answered against. Updates
//! are acknowledged at *enqueue* time (`OK QUEUED`) and become visible in a
//! later epoch — the protocol makes the asynchrony explicit rather than
//! hiding it. An `INSERT` naming a vertex id above the server's
//! `max_vertex_id` is refused with `ERR` before anything is queued.
//!
//! A request line longer than [`MAX_LINE_BYTES`] is answered with
//! `ERR request line longer than 1024 bytes`, and the server then closes the
//! connection: it can no longer tell where the next request starts.

use std::fmt::Write as _;

use tdb_graph::VertexId;
use tdb_obs::Registry;

/// The longest request line the server reads, in bytes, not counting the LF
/// that ends it. The grammar bounds every valid request
/// (`BREAKERS? 4294967295 4294967295` is 31 bytes), so a longer line is
/// broken or hostile, and this cap is what stops a client that never sends
/// a newline from growing the server's line buffer without bound.
pub const MAX_LINE_BYTES: usize = 1024;

/// A parsed client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `COVER? v` — is `v` in the current cover?
    Cover(VertexId),
    /// `BREAKERS? u v` — cover vertices implicated in constrained cycles
    /// through the (possibly hypothetical) edge `(u, v)`.
    Breakers(VertexId, VertexId),
    /// `EXPLAIN? v` — cost and witness-cycle count of vertex `v`.
    Explain(VertexId),
    /// `RESIDUAL?` — count of constrained cycles the cover fails to break.
    Residual,
    /// `HEALTH?` — the watchdog's current classification of the engine.
    Health,
    /// `INSERT u v` — enqueue an edge insertion.
    Insert(VertexId, VertexId),
    /// `DELETE u v` — enqueue an edge removal.
    Delete(VertexId, VertexId),
    /// `STATS` — live server and engine counters.
    Stats,
    /// `SNAPSHOT` — metadata of the current snapshot.
    Snapshot,
    /// `METRICS` — full Prometheus-style metric exposition.
    Metrics,
    /// `PING` — liveness probe.
    Ping,
    /// `SHUTDOWN` — gracefully stop the server.
    Shutdown,
}

/// Why a request line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn vertex(tok: Option<&str>, verb: &str) -> Result<VertexId, ParseError> {
    let tok = tok.ok_or_else(|| ParseError(format!("{verb}: missing vertex argument")))?;
    tok.parse::<VertexId>()
        .map_err(|_| ParseError(format!("{verb}: {tok:?} is not a vertex id")))
}

fn no_more(mut rest: std::str::SplitWhitespace<'_>, verb: &str) -> Result<(), ParseError> {
    match rest.next() {
        None => Ok(()),
        Some(extra) => Err(ParseError(format!("{verb}: unexpected argument {extra:?}"))),
    }
}

/// Parse one request line (leading/trailing whitespace tolerated).
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let mut tokens = line.split_whitespace();
    let verb = tokens
        .next()
        .ok_or_else(|| ParseError("empty request".into()))?;
    let request = match verb {
        "COVER?" => Request::Cover(vertex(tokens.next(), verb)?),
        "BREAKERS?" => {
            Request::Breakers(vertex(tokens.next(), verb)?, vertex(tokens.next(), verb)?)
        }
        "EXPLAIN?" => Request::Explain(vertex(tokens.next(), verb)?),
        "RESIDUAL?" => Request::Residual,
        "HEALTH?" => Request::Health,
        "INSERT" => Request::Insert(vertex(tokens.next(), verb)?, vertex(tokens.next(), verb)?),
        "DELETE" => Request::Delete(vertex(tokens.next(), verb)?, vertex(tokens.next(), verb)?),
        "STATS" => Request::Stats,
        "SNAPSHOT" => Request::Snapshot,
        "METRICS" => Request::Metrics,
        "PING" => Request::Ping,
        "SHUTDOWN" => Request::Shutdown,
        other => return Err(ParseError(format!("unknown verb {other:?}"))),
    };
    no_more(tokens, verb)?;
    Ok(request)
}

/// Format the `COVER?` response. `cost` is the snapshot cover's total vertex
/// cost; `exhausted` marks a knowingly incomplete (budget-trimmed) cover.
pub fn cover_response(contained: bool, epoch: u64, cost: u64, exhausted: bool) -> String {
    format!(
        "OK {} {epoch} cost={cost} exhausted={}",
        if contained { "IN" } else { "OUT" },
        u8::from(exhausted)
    )
}

/// Format the `BREAKERS?` response.
pub fn breakers_response(epoch: u64, breakers: &[VertexId]) -> String {
    let mut out = format!("OK BREAKERS {epoch} {}", breakers.len());
    for b in breakers {
        let _ = write!(out, " {b}");
    }
    out
}

/// Format the `INSERT` / `DELETE` acknowledgement.
pub fn queued_response() -> String {
    "OK QUEUED".to_string()
}

/// Percent-escape the characters that would break the one-line framing or
/// the `key=value` token shape. Clean identifiers and numbers pass through
/// unchanged, so the wire format for the built-in counters is stable.
fn escape_kv(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '=' => out.push_str("%3d"),
            '\t' => out.push_str("%09"),
            '\r' => out.push_str("%0d"),
            '\n' => out.push_str("%0a"),
            c => out.push(c),
        }
    }
    out
}

/// Undo [`escape_kv`]; rejects malformed escapes with a typed error.
fn unescape_kv(token: &str, kind: &str) -> Result<String, ParseError> {
    let mut out = String::with_capacity(token.len());
    let mut chars = token.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hex: String = chars.by_ref().take(2).collect();
        let code = u32::from_str_radix(&hex, 16)
            .ok()
            .filter(|_| hex.len() == 2)
            .and_then(char::from_u32)
            .ok_or_else(|| {
                ParseError(format!("{kind}: bad percent-escape %{hex:?} in {token:?}"))
            })?;
        out.push(code);
    }
    Ok(out)
}

/// Format a `key=value` payload response (`STATS` / `SNAPSHOT`). Keys and
/// values are percent-escaped, so free-form strings (spaces, `=`, newlines)
/// survive the single-line, space-separated framing.
pub fn kv_response(kind: &str, pairs: &[(&str, String)]) -> String {
    let mut out = format!("OK {kind}");
    for (k, v) in pairs {
        let _ = write!(out, " {}={}", escape_kv(k), escape_kv(v));
    }
    out
}

/// Format an error response (single line; embedded newlines are flattened).
pub fn err_response(message: &str) -> String {
    let flat: String = message
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    format!("ERR {flat}")
}

/// Split a `kv_response` payload back into pairs (client side), undoing the
/// percent-escaping. Fails with a typed error on a wrong response kind, a
/// token without `=`, or a malformed escape.
pub fn parse_kv(line: &str, kind: &str) -> Result<Vec<(String, String)>, ParseError> {
    let rest = line
        .strip_prefix("OK ")
        .and_then(|r| r.strip_prefix(kind))
        .ok_or_else(|| ParseError(format!("not an OK {kind} response: {line:?}")))?;
    let mut pairs = Vec::new();
    for tok in rest.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| ParseError(format!("{kind}: token {tok:?} is not key=value")))?;
        pairs.push((unescape_kv(k, kind)?, unescape_kv(v, kind)?));
    }
    Ok(pairs)
}

/// Format the `METRICS` response: a header announcing the line count, then
/// the engine registry's and the global registry's Prometheus exposition.
/// (The engine registry holds the serve-layer metrics; the global one holds
/// the solver/cycle/dynamic instrumentation.)
pub fn metrics_response(engine: &Registry, global: &Registry) -> String {
    let mut body = engine.render_prometheus();
    body.push_str(&global.render_prometheus());
    let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut out = format!("OK METRICS {}", lines.len());
    for line in lines {
        out.push('\n');
        out.push_str(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_and_reject() {
        assert_eq!(parse_request("COVER? 17"), Ok(Request::Cover(17)));
        assert_eq!(
            parse_request("  BREAKERS? 3 4 "),
            Ok(Request::Breakers(3, 4))
        );
        assert_eq!(parse_request("EXPLAIN? 12"), Ok(Request::Explain(12)));
        assert_eq!(parse_request("RESIDUAL?"), Ok(Request::Residual));
        assert_eq!(parse_request("HEALTH?"), Ok(Request::Health));
        assert!(parse_request("HEALTH? 1").is_err(), "no-arg verb with arg");
        assert_eq!(parse_request("INSERT 0 1"), Ok(Request::Insert(0, 1)));
        assert_eq!(parse_request("DELETE 1 0"), Ok(Request::Delete(1, 0)));
        assert_eq!(parse_request("STATS"), Ok(Request::Stats));
        assert_eq!(parse_request("SNAPSHOT"), Ok(Request::Snapshot));
        assert_eq!(parse_request("METRICS"), Ok(Request::Metrics));
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
        assert_eq!(parse_request("SHUTDOWN"), Ok(Request::Shutdown));

        assert!(parse_request("").is_err());
        assert!(parse_request("COVER?").is_err(), "missing argument");
        assert!(parse_request("COVER? x").is_err(), "non-numeric vertex");
        assert!(parse_request("COVER? 1 2").is_err(), "extra argument");
        assert!(parse_request("BREAKERS? 1").is_err(), "one vertex short");
        assert!(parse_request("EXPLAIN?").is_err(), "missing vertex");
        assert!(
            parse_request("RESIDUAL? 1").is_err(),
            "no-arg verb with arg"
        );
        assert!(parse_request("INSERT 1 -2").is_err(), "negative id");
        assert!(parse_request("EXPLODE 1").is_err(), "unknown verb");
        assert!(parse_request("STATS now").is_err(), "no-arg verb with arg");
    }

    #[test]
    fn responses_format_as_single_lines() {
        assert_eq!(
            cover_response(true, 9, 12, false),
            "OK IN 9 cost=12 exhausted=0"
        );
        assert_eq!(
            cover_response(false, 0, 0, true),
            "OK OUT 0 cost=0 exhausted=1"
        );
        assert_eq!(breakers_response(4, &[7, 9]), "OK BREAKERS 4 2 7 9");
        assert_eq!(breakers_response(1, &[]), "OK BREAKERS 1 0");
        assert_eq!(queued_response(), "OK QUEUED");
        assert_eq!(
            kv_response("SNAPSHOT", &[("epoch", "3".into()), ("cover", "12".into())]),
            "OK SNAPSHOT epoch=3 cover=12"
        );
        assert_eq!(err_response("bad\nthing"), "ERR bad thing");
    }

    #[test]
    fn kv_payloads_round_trip() {
        let line = kv_response("STATS", &[("a", "1".into()), ("b", "x".into())]);
        let pairs = parse_kv(&line, "STATS").unwrap();
        assert_eq!(
            pairs,
            vec![("a".into(), "1".into()), ("b".into(), "x".into())]
        );
        assert!(parse_kv("OK PONG", "STATS").is_err());
    }

    #[test]
    fn kv_values_with_metacharacters_survive_the_framing() {
        // Regression: spaces, `=`, `%`, and newlines in free-form values must
        // not break the one-line framing or the key=value token shape.
        let hostile = "a b=c%d\ne\tf\rg".to_string();
        let line = kv_response("STATS", &[("label", hostile.clone()), ("n", "7".into())]);
        assert_eq!(line.lines().count(), 1, "framing stays one line: {line:?}");
        let pairs = parse_kv(&line, "STATS").unwrap();
        assert_eq!(
            pairs,
            vec![("label".to_string(), hostile), ("n".into(), "7".into())]
        );
        // Hostile keys too.
        let line = kv_response("SNAPSHOT", &[("weird key=", "v".into())]);
        let pairs = parse_kv(&line, "SNAPSHOT").unwrap();
        assert_eq!(pairs, vec![("weird key=".to_string(), "v".to_string())]);
    }

    #[test]
    fn malformed_kv_payloads_are_typed_errors() {
        let no_eq = parse_kv("OK STATS justatoken", "STATS").unwrap_err();
        assert!(no_eq.0.contains("not key=value"), "{no_eq}");
        let bad_escape = parse_kv("OK STATS k=%zz", "STATS").unwrap_err();
        assert!(bad_escape.0.contains("bad percent-escape"), "{bad_escape}");
        let truncated = parse_kv("OK STATS k=%2", "STATS").unwrap_err();
        assert!(truncated.0.contains("bad percent-escape"), "{truncated}");
        let wrong_kind = parse_kv("OK SNAPSHOT a=1", "STATS").unwrap_err();
        assert!(wrong_kind.0.contains("not an OK STATS"), "{wrong_kind}");
    }

    #[test]
    fn metrics_response_frames_by_line_count() {
        let engine = Registry::new();
        engine.counter("tdb_serve_test_total").add(2);
        let global = Registry::new();
        global
            .histogram("tdb_solve_test_seconds")
            .observe_nanos(500);
        let response = metrics_response(&engine, &global);
        let mut lines = response.lines();
        let header = lines.next().unwrap();
        let count: usize = header.strip_prefix("OK METRICS ").unwrap().parse().unwrap();
        let body: Vec<&str> = lines.collect();
        assert_eq!(body.len(), count, "header count matches body:\n{response}");
        assert!(body.contains(&"tdb_serve_test_total 2"));
        assert!(body
            .iter()
            .any(|l| l.starts_with("tdb_solve_test_seconds_bucket")));
    }
}
