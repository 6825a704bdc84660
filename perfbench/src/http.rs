//! A minimal HTTP/1.1 client: one request at a time over a keep-alive
//! connection, `Content-Length` framing only (the daemon always sends it).
//!
//! Any framing problem — a missing length, a connection that closes
//! before the declared body arrives — is an error, so the checker counts
//! a truncated body as a failed request.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status code and body text.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body, exactly `Content-Length` bytes.
    pub body: String,
}

/// A keep-alive connection to the daemon.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Socket timeout for every benchmark connection: long enough for any
/// answer the workloads ask for, short enough that a wedged daemon fails
/// the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

impl Conn {
    /// Connects to `addr`.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads its response. `body` is sent with a
    /// `Content-Length` when present.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, String> {
        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
        if let Some(b) = body {
            req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            ));
        } else {
            req.push_str("\r\n");
        }
        self.writer
            .write_all(req.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        read_response(&mut self.reader)
    }
}

/// Reads one `Content-Length`-framed response.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response, String> {
    let mut line = String::new();
    if reader
        .read_line(&mut line)
        .map_err(|e| format!("status line: {e}"))?
        == 0
    {
        return Err("connection closed before the status line".into());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line `{}`", line.trim_end()))?;
    let mut length = None;
    loop {
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("header: {e}"))?
            == 0
        {
            return Err("connection closed inside the headers".into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad Content-Length `{}`", value.trim()))?,
                );
            }
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let mut body = vec![0u8; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("truncated body ({length} B declared): {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Ok(Response { status, body })
}

/// One request on a fresh connection that is closed afterwards.
pub fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, String> {
    Conn::open(addr)
        .map_err(|e| format!("connect: {e}"))?
        .request(method, path, body)
}
