//! A small blocking client for the line protocol — used by the load
//! generator, the examples, and the integration tests.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use tdb_graph::VertexId;

use crate::protocol::parse_kv;

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server answered `ERR <message>`.
    Server(String),
    /// The response line did not match the expected shape.
    Malformed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Malformed(l) => write!(f, "malformed response: {l:?}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A `COVER?` answer: membership plus the epoch it was answered against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverAnswer {
    /// Whether the vertex is in the cover.
    pub contained: bool,
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Total vertex cost of the snapshot cover (`cost=` field).
    pub cost: u64,
    /// Whether the cover is knowingly incomplete (`exhausted=` field; always
    /// `false` from the resident engine).
    pub exhausted: bool,
}

/// A `BREAKERS?` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakersAnswer {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Implicated cover vertices, ascending.
    pub breakers: Vec<VertexId>,
}

/// A blocking connection to a [`crate::CoverServer`].
#[derive(Debug)]
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl ServeClient {
    /// Connect to a server address (e.g. the value of
    /// [`crate::CoverServer::local_addr`]).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(ServeClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn round_trip(&mut self, request: &str) -> Result<String, ClientError> {
        writeln!(self.writer, "{request}")?;
        self.writer.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let line = line.trim_end().to_string();
        if let Some(message) = line.strip_prefix("ERR ") {
            return Err(ClientError::Server(message.to_string()));
        }
        Ok(line)
    }

    /// `COVER? v`.
    pub fn cover(&mut self, v: VertexId) -> Result<CoverAnswer, ClientError> {
        let line = self.round_trip(&format!("COVER? {v}"))?;
        let mut tok = line.split_whitespace();
        match (tok.next(), tok.next(), tok.next(), tok.next(), tok.next()) {
            (
                Some("OK"),
                Some(inout @ ("IN" | "OUT")),
                Some(epoch),
                Some(cost),
                Some(exhausted),
            ) => {
                let parse = || -> Option<CoverAnswer> {
                    Some(CoverAnswer {
                        contained: inout == "IN",
                        epoch: epoch.parse().ok()?,
                        cost: cost.strip_prefix("cost=")?.parse().ok()?,
                        exhausted: match exhausted.strip_prefix("exhausted=")? {
                            "0" => false,
                            "1" => true,
                            _ => return None,
                        },
                    })
                };
                parse().ok_or_else(|| ClientError::Malformed(line.clone()))
            }
            _ => Err(ClientError::Malformed(line)),
        }
    }

    /// `BREAKERS? u v`.
    pub fn breakers(&mut self, u: VertexId, v: VertexId) -> Result<BreakersAnswer, ClientError> {
        let line = self.round_trip(&format!("BREAKERS? {u} {v}"))?;
        let malformed = || ClientError::Malformed(line.clone());
        let mut tok = line.split_whitespace();
        if tok.next() != Some("OK") || tok.next() != Some("BREAKERS") {
            return Err(malformed());
        }
        let epoch: u64 = tok
            .next()
            .ok_or_else(malformed)?
            .parse()
            .map_err(|_| malformed())?;
        let count: usize = tok
            .next()
            .ok_or_else(malformed)?
            .parse()
            .map_err(|_| malformed())?;
        let breakers: Vec<VertexId> = tok
            .map(|t| t.parse::<VertexId>().map_err(|_| malformed()))
            .collect::<Result<_, _>>()?;
        if breakers.len() != count {
            return Err(malformed());
        }
        Ok(BreakersAnswer { epoch, breakers })
    }

    /// `EXPLAIN? v` — the vertex's cost and witness-cycle count, as key →
    /// value pairs (`epoch`, `vertex`, `in_cover`, `cost`, `cycles`,
    /// `truncated`).
    pub fn explain(&mut self, v: VertexId) -> Result<Vec<(String, String)>, ClientError> {
        let line = self.round_trip(&format!("EXPLAIN? {v}"))?;
        parse_kv(&line, "EXPLAIN").map_err(|e| ClientError::Malformed(format!("{e}: {line:?}")))
    }

    /// `RESIDUAL?` — uncovered-cycle audit of the published snapshot, as key
    /// → value pairs (`epoch`, `count`, `truncated`).
    pub fn residual(&mut self) -> Result<Vec<(String, String)>, ClientError> {
        let line = self.round_trip("RESIDUAL?")?;
        parse_kv(&line, "RESIDUAL").map_err(|e| ClientError::Malformed(format!("{e}: {line:?}")))
    }

    /// `INSERT u v` — acknowledged at enqueue, visible in a later epoch.
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> Result<(), ClientError> {
        self.expect_exact(&format!("INSERT {u} {v}"), "OK QUEUED")
    }

    /// `DELETE u v` — acknowledged at enqueue, visible in a later epoch.
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> Result<(), ClientError> {
        self.expect_exact(&format!("DELETE {u} {v}"), "OK QUEUED")
    }

    /// `STATS` as key → value pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, String)>, ClientError> {
        let line = self.round_trip("STATS")?;
        parse_kv(&line, "STATS").map_err(|e| ClientError::Malformed(format!("{e}: {line:?}")))
    }

    /// One numeric `STATS` field (convenience over [`ServeClient::stats`]).
    pub fn stat_u64(&mut self, key: &str) -> Result<u64, ClientError> {
        let pairs = self.stats()?;
        for (k, v) in &pairs {
            if k == key {
                return v
                    .parse()
                    .map_err(|_| ClientError::Malformed(format!("{key}={v}")));
            }
        }
        Err(ClientError::Malformed(format!("missing STATS key {key:?}")))
    }

    /// `SNAPSHOT` metadata as key → value pairs.
    pub fn snapshot(&mut self) -> Result<Vec<(String, String)>, ClientError> {
        let line = self.round_trip("SNAPSHOT")?;
        parse_kv(&line, "SNAPSHOT").map_err(|e| ClientError::Malformed(format!("{e}: {line:?}")))
    }

    /// `METRICS` — the server's full Prometheus-style text exposition (serve
    /// request/epoch latency histograms plus the process-global solver and
    /// dynamic-maintenance metrics).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let header = self.round_trip("METRICS")?;
        let count: usize = header
            .strip_prefix("OK METRICS ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| ClientError::Malformed(header.clone()))?;
        let mut body = String::new();
        let mut line = String::new();
        for _ in 0..count {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-exposition",
                )));
            }
            body.push_str(line.trim_end_matches(['\r', '\n']));
            body.push('\n');
        }
        Ok(body)
    }

    /// `HEALTH?` — the watchdog's classification as key → value pairs
    /// (`status`, `reasons`, `heartbeat_age_ms`, `publish_age_ms`,
    /// `queue_depth`, `queue_capacity`, `epoch`).
    pub fn health(&mut self) -> Result<Vec<(String, String)>, ClientError> {
        let line = self.round_trip("HEALTH?")?;
        parse_kv(&line, "HEALTH").map_err(|e| ClientError::Malformed(format!("{e}: {line:?}")))
    }

    /// The `status` field of [`ServeClient::health`] (convenience).
    pub fn health_status(&mut self) -> Result<String, ClientError> {
        let pairs = self.health()?;
        pairs
            .into_iter()
            .find(|(k, _)| k == "status")
            .map(|(_, v)| v)
            .ok_or_else(|| ClientError::Malformed("missing HEALTH key \"status\"".into()))
    }

    /// `PING`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect_exact("PING", "OK PONG")
    }

    /// `SHUTDOWN` — gracefully stop the server.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect_exact("SHUTDOWN", "OK BYE")
    }

    fn expect_exact(&mut self, request: &str, expected: &str) -> Result<(), ClientError> {
        let line = self.round_trip(request)?;
        if line == expected {
            Ok(())
        } else {
            Err(ClientError::Malformed(line))
        }
    }
}
