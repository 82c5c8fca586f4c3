//! The load generator's side of the wire: one blocking keep-alive
//! connection that sends pre-encoded JSON-RPC requests and returns the
//! raw response body. Encoding happens before a round trip's clock starts
//! and decoding after it stops, so a timed round trip holds only the
//! write, the server's work and the read. `shop_traffic` and `wire_reads`
//! also keep encoding and decoding out of their timed phases; a
//! `debug_session` step needs the fork id of one reply for its next call,
//! so it decodes inside the phase.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use trod_core::json::Json;

/// One encoded request: the HTTP bytes plus the JSON-RPC id they carry.
pub struct Request {
    pub id: u64,
    pub bytes: Vec<u8>,
}

/// Encodes a JSON-RPC call as the HTTP/1.1 POST the server expects.
pub fn encode(id: u64, method: &str, params: Json) -> Request {
    let body = Json::obj(vec![
        ("jsonrpc", Json::str("2.0")),
        ("id", Json::from(id)),
        ("method", Json::str(method)),
        ("params", params),
    ])
    .to_string();
    let mut bytes = format!(
        "POST /rpc HTTP/1.1\r\nhost: trod\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    Request { id, bytes }
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone socket")),
            writer: stream,
        }
    }

    /// Sends one request and reads the whole response; returns the body
    /// and the round-trip time.
    pub fn round_trip(&mut self, request: &Request) -> (Vec<u8>, Duration) {
        let start = Instant::now();
        self.writer.write_all(&request.bytes).expect("send request");
        let body = read_response(&mut self.reader);
        (body, start.elapsed())
    }

    /// Sends one request and decodes the JSON-RPC envelope.
    pub fn call(&mut self, request: &Request) -> Reply {
        let (body, elapsed) = self.round_trip(request);
        let reply = Reply::decode(&body, request.id);
        Reply { elapsed, ..reply }
    }
}

/// Reads one HTTP response (status line, headers, `content-length`
/// body) and returns the body.
fn read_response(reader: &mut BufReader<TcpStream>) -> Vec<u8> {
    let mut line = String::new();
    let mut content_length = None;
    let mut first = true;
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read response head");
        assert!(n > 0, "server closed the connection");
        if first {
            first = false;
            continue;
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let mut body = vec![0u8; content_length.expect("response has content-length")];
    reader.read_exact(&mut body).expect("read response body");
    body
}

/// True when a raw reply body is an error the server marked retryable (a
/// conflict). Only a body that mentions `"error"` is decoded, so a
/// successful reply costs one byte scan.
pub fn is_retryable(body: &[u8]) -> bool {
    body.windows(7).any(|w| w == b"\"error\"") && Reply::decode(body, 0).is_retryable()
}

/// A decoded JSON-RPC reply.
pub struct Reply {
    pub result: Result<Json, Json>,
    pub elapsed: Duration,
}

impl Reply {
    pub fn decode(body: &[u8], id: u64) -> Reply {
        let text = std::str::from_utf8(body).expect("UTF-8 response");
        let doc = Json::parse(text).expect("JSON response");
        let result = match doc.get("error") {
            Some(err) => Err(err.clone()),
            None => {
                assert_eq!(
                    doc.get("id").and_then(Json::as_u64),
                    Some(id),
                    "response id must echo the request id"
                );
                Ok(doc.get("result").cloned().expect("result member"))
            }
        };
        Reply {
            result,
            elapsed: Duration::ZERO,
        }
    }

    /// True when the server marked the failure retryable (a conflict).
    pub fn is_retryable(&self) -> bool {
        match &self.result {
            Err(e) => e
                .get("data")
                .and_then(|d| d.get("retryable"))
                .and_then(Json::as_bool)
                .unwrap_or(false),
            Ok(_) => false,
        }
    }
}
