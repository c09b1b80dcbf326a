//! A minimal HTTP/1.1 codec: enough for the Nginx-like server harness
//! (request parsing, response building, Content-Encoding negotiation).

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (only GET is used by the harness).
    pub method: String,
    /// Request path.
    pub path: String,
    /// Whether the client advertised `Accept-Encoding: deflate`.
    pub accepts_deflate: bool,
    /// Whether the connection should stay open.
    pub keep_alive: bool,
}

impl Request {
    /// Builds a GET request for `path`.
    pub fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            accepts_deflate: false,
            keep_alive: true,
        }
    }

    /// Enables `Accept-Encoding: deflate`.
    pub fn with_deflate(mut self) -> Request {
        self.accepts_deflate = true;
        self
    }

    /// Serializes to wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut s = format!("{} {} HTTP/1.1\r\nHost: bench\r\n", self.method, self.path);
        if self.accepts_deflate {
            s.push_str("Accept-Encoding: deflate\r\n");
        }
        if !self.keep_alive {
            s.push_str("Connection: close\r\n");
        }
        s.push_str("\r\n");
        s.into_bytes()
    }

    /// Parses a request head.
    ///
    /// # Errors
    ///
    /// Returns a static description of the malformation.
    pub fn parse(data: &[u8]) -> Result<Request, &'static str> {
        let text = std::str::from_utf8(data).map_err(|_| "not utf-8")?;
        let head = text
            .split("\r\n\r\n")
            .next()
            .ok_or("no header terminator")?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or("empty request")?;
        let mut parts = request_line.split(' ');
        let method = parts.next().ok_or("missing method")?.to_string();
        let path = parts.next().ok_or("missing path")?.to_string();
        let version = parts.next().ok_or("missing version")?;
        if !version.starts_with("HTTP/1.") {
            return Err("unsupported version");
        }
        let mut accepts_deflate = false;
        let mut keep_alive = true;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_ascii_lowercase();
            match name.as_str() {
                "accept-encoding" => accepts_deflate = value.contains("deflate"),
                "connection" => keep_alive = value != "close",
                _ => {}
            }
        }
        Ok(Request {
            method,
            path,
            accepts_deflate,
            keep_alive,
        })
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 404, ...).
    pub status: u16,
    /// Body bytes (possibly already content-encoded).
    pub body: Vec<u8>,
    /// Whether the body carries `Content-Encoding: deflate`.
    pub deflate_encoded: bool,
}

impl Response {
    /// A 200 response with a plain body.
    pub fn ok(body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            body: body.into(),
            deflate_encoded: false,
        }
    }

    /// A 404 response.
    pub fn not_found() -> Response {
        Response {
            status: 404,
            body: b"not found".to_vec(),
            deflate_encoded: false,
        }
    }

    /// Marks the body as deflate-encoded.
    pub fn with_deflate_body(mut self, body: impl Into<Vec<u8>>) -> Response {
        self.body = body.into();
        self.deflate_encoded = true;
        self
    }

    /// Serializes header + body to wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let reason = match self.status {
            200 => "OK",
            404 => "Not Found",
            _ => "Unknown",
        };
        let mut s = format!(
            "HTTP/1.1 {} {}\r\nServer: smartdimm-bench\r\nContent-Length: {}\r\n",
            self.status,
            reason,
            self.body.len()
        );
        if self.deflate_encoded {
            s.push_str("Content-Encoding: deflate\r\n");
        }
        s.push_str("\r\n");
        let mut out = Vec::with_capacity(s.len() + self.body.len());
        out.extend_from_slice(s.as_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses a full response (header + complete body).
    ///
    /// # Errors
    ///
    /// Returns a static description of the malformation.
    pub fn parse(data: &[u8]) -> Result<Response, &'static str> {
        let split = data
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or("no header terminator")?;
        let head = std::str::from_utf8(&data[..split]).map_err(|_| "not utf-8")?;
        let body = &data[split + 4..];
        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or("empty response")?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .ok_or("missing status")?
            .parse()
            .map_err(|_| "bad status")?;
        let mut content_length = None;
        let mut deflate = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = Some(value.trim().parse().map_err(|_| "bad length")?)
                }
                "content-encoding" => deflate = value.trim().eq_ignore_ascii_case("deflate"),
                _ => {}
            }
        }
        let len: usize = content_length.ok_or("missing content-length")?;
        if body.len() < len {
            return Err("truncated body");
        }
        Ok(Response {
            status,
            body: body[..len].to_vec(),
            deflate_encoded: deflate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = Request::get("/index.html").with_deflate();
        let parsed = Request::parse(&req.to_bytes()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn request_connection_close() {
        let mut req = Request::get("/x");
        req.keep_alive = false;
        let parsed = Request::parse(&req.to_bytes()).unwrap();
        assert!(!parsed.keep_alive);
    }

    #[test]
    fn request_parse_rejects_garbage() {
        assert!(Request::parse(b"\xff\xfe").is_err());
        assert!(Request::parse(b"GET /\r\n\r\n").is_err()); // no version
        assert!(Request::parse(b"GET / SPDY/3\r\n\r\n").is_err());
    }

    #[test]
    fn response_round_trip_plain() {
        let resp = Response::ok("hello body");
        let parsed = Response::parse(&resp.to_bytes()).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(&parsed.body[..], b"hello body");
        assert!(!parsed.deflate_encoded);
    }

    #[test]
    fn response_round_trip_deflate() {
        let resp = Response::ok("").with_deflate_body(vec![1u8, 2, 3]);
        let parsed = Response::parse(&resp.to_bytes()).unwrap();
        assert!(parsed.deflate_encoded);
        assert_eq!(&parsed.body[..], &[1, 2, 3]);
    }

    #[test]
    fn response_rejects_truncation() {
        let resp = Response::ok(vec![9u8; 100]);
        let bytes = resp.to_bytes();
        assert_eq!(
            Response::parse(&bytes[..bytes.len() - 1]),
            Err("truncated body")
        );
    }

    #[test]
    fn not_found_serializes() {
        let parsed = Response::parse(&Response::not_found().to_bytes()).unwrap();
        assert_eq!(parsed.status, 404);
    }
}
