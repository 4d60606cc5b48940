//! The client half of the newline-JSON protocol: one connection with a
//! read timeout (a hung server fails the run, it does not hang it) and a
//! reply view that reads only the fields the benchmark checks.

use crate::oracle::{parse_rows, Relations};
use nestdb::proto::{parse_json, Json};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long any single reply may take before the run fails.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        writer.set_write_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    pub fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.writer.set_read_timeout(Some(timeout))
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        // one write per request: with TCP_NODELAY two writes are two segments
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// Read one line into `buf` (cleared first), without the newline.
    pub fn recv(&mut self, buf: &mut String) -> io::Result<()> {
        buf.clear();
        if self.reader.read_line(buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if buf.ends_with('\n') {
            buf.pop();
        }
        Ok(())
    }

    /// Send one request and parse its reply (set-up and checks only; the
    /// measured loops keep raw lines and parse after the window).
    pub fn call(&mut self, line: &str) -> Result<Reply, String> {
        let mut buf = String::new();
        self.send(line)
            .and_then(|()| self.recv(&mut buf))
            .map_err(|e| format!("{e} (request {})", clip(line)))?;
        Reply::parse(&buf)
    }

    /// [`Conn::call`], failing on a reply that is not `ok`.
    pub fn call_ok(&mut self, line: &str) -> Result<Reply, String> {
        let reply = self.call(line)?;
        if reply.ok {
            Ok(reply)
        } else {
            Err(format!("{} (request {})", reply.error, clip(line)))
        }
    }
}

pub fn clip(line: &str) -> String {
    if line.len() <= 160 {
        line.to_string()
    } else {
        let end = (0..=160)
            .rev()
            .find(|&i| line.is_char_boundary(i))
            .unwrap_or(0);
        format!("{}…", &line[..end])
    }
}

/// Whether a raw line is a pushed event rather than a reply. Strings inside
/// a reply are JSON-escaped, so this unescaped key/value can only be the
/// top-level field; no full parse is needed inside the measured window.
pub fn is_push(line: &str) -> bool {
    line.contains("\"event\":\"delta\"")
}

/// Same reasoning as [`is_push`].
pub fn is_ok(line: &str) -> bool {
    line.contains("\"ok\":true")
}

/// A parsed reply or push line.
#[derive(Debug, Clone)]
pub struct Reply {
    pub ok: bool,
    /// `kind: message` of the error, or empty.
    pub error: String,
    json: Json,
}

impl Reply {
    pub fn parse(line: &str) -> Result<Reply, String> {
        let json = parse_json(line).map_err(|e| format!("unreadable reply: {e}"))?;
        let err = json.get("error");
        let field = |k: &str| {
            err.and_then(|e| e.get(k))
                .and_then(Json::as_str)
                .unwrap_or_default()
        };
        Ok(Reply {
            ok: json.get("ok").and_then(Json::as_bool).unwrap_or(false),
            error: match err {
                Some(Json::Obj(_)) => format!("{}: {}", field("kind"), field("message")),
                _ => String::new(),
            },
            json,
        })
    }

    /// The reply's relations, parsed into the oracle's value model.
    pub fn relations(&self) -> Result<Relations, String> {
        relation_list(self.json.get("relations"))
    }

    /// `(view, added, removed)` of each delta carried by an update reply
    /// or a push line.
    pub fn deltas(&self) -> Result<Vec<(String, Relations, Relations)>, String> {
        let Some(items) = self.json.get("deltas").and_then(Json::as_arr) else {
            return Ok(Vec::new());
        };
        items
            .iter()
            .map(|d| {
                let view = d.get("view").and_then(Json::as_str).unwrap_or_default();
                Ok((
                    view.to_string(),
                    relation_list(d.get("added"))?,
                    relation_list(d.get("removed"))?,
                ))
            })
            .collect()
    }

    /// A counter of the `stats` reply.
    pub fn stat(&self, key: &str) -> u64 {
        self.json
            .get("stats")
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }
}

fn relation_list(v: Option<&Json>) -> Result<Relations, String> {
    let mut out = Relations::new();
    for rel in v.and_then(Json::as_arr).unwrap_or_default() {
        let name = rel.get("name").and_then(Json::as_str).unwrap_or_default();
        let rows: Vec<String> = rel
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_str)
            .map(str::to_string)
            .collect();
        out.insert(name.to_string(), parse_rows(&rows)?);
    }
    Ok(out)
}
