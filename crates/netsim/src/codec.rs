//! Trace persistence: a versioned newline-delimited JSON format.
//!
//! The first line is a header object (`{"format":"annoyed-users-trace",
//! "version":1, "meta":{...}}`); each subsequent line is one
//! [`TraceRecord`]. NDJSON keeps the reader streaming-friendly — traces can
//! be bigger than memory on the writing side — while staying debuggable
//! with standard tools.
//!
//! Two readers are provided:
//!
//! * [`read_trace`] — strict: the first malformed line aborts the read.
//!   Appropriate for traces this system wrote itself, where corruption
//!   means a bug.
//! * [`TraceReader`] / [`read_trace_lossy`] — lossy: NDJSON's per-line
//!   framing means a corrupt record only poisons its own line, so the
//!   reader resyncs at the next newline, counts what it skipped (and why)
//!   in [`CodecStats`], and keeps going. This models the reality of the
//!   paper's ISP vantage point, where capture loss and truncation are
//!   routine and a monitoring pipeline must degrade rather than crash.

use crate::json::{
    self, field, field_f64, field_opt_str, field_opt_u64, field_str, field_u16, field_u32,
    field_u64, Value,
};
use crate::record::{Trace, TraceMeta, TraceRecord};
use crate::stream::ChunkReader;
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::{HttpTransaction, Method};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// Current format version.
pub const FORMAT_VERSION: u32 = 1;
/// Format magic string.
pub const FORMAT_NAME: &str = "annoyed-users-trace";
/// Longest record line the lossy reader will buffer. Real records are a
/// few hundred bytes; anything bigger is corruption (e.g. a lost newline
/// gluing many records together) and is skipped without unbounded memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Errors from reading a trace stream.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Header missing or malformed.
    BadHeader(String),
    /// A record line failed to parse.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// Parse error description.
        error: String,
    },
    /// Unsupported version.
    Version(u32),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "I/O error: {e}"),
            CodecError::BadHeader(e) => write!(f, "bad trace header: {e}"),
            CodecError::BadRecord { line, error } => {
                write!(f, "bad record at line {line}: {error}")
            }
            CodecError::Version(v) => write!(f, "unsupported trace version {v}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) fn encode_meta(out: &mut String, m: &TraceMeta) {
    out.push_str("{\"name\":");
    json::write_str(out, &m.name);
    out.push_str(",\"duration_secs\":");
    json::write_f64(out, m.duration_secs);
    use std::fmt::Write as _;
    let _ = write!(
        out,
        ",\"subscribers\":{},\"start_hour\":{},\"start_weekday\":{}}}",
        m.subscribers, m.start_hour, m.start_weekday
    );
}

pub(crate) fn encode_record(out: &mut String, r: &TraceRecord) {
    use std::fmt::Write as _;
    match r {
        TraceRecord::Http(t) => {
            out.push_str("{\"Http\":{\"ts\":");
            json::write_f64(out, t.ts);
            let _ = write!(
                out,
                ",\"client_ip\":{},\"server_ip\":{},\"server_port\":{},\"method\":\"{:?}\",\"request\":{{\"host\":",
                t.client_ip, t.server_ip, t.server_port, t.method
            );
            json::write_str(out, &t.request.host);
            out.push_str(",\"uri\":");
            json::write_str(out, &t.request.uri);
            out.push_str(",\"referer\":");
            json::write_opt_str(out, t.request.referer.as_deref());
            out.push_str(",\"user_agent\":");
            json::write_opt_str(out, t.request.user_agent.as_deref());
            let _ = write!(out, "}},\"response\":{{\"status\":{}", t.response.status);
            out.push_str(",\"content_type\":");
            json::write_opt_str(out, t.response.content_type.as_deref());
            out.push_str(",\"content_length\":");
            match t.response.content_length {
                Some(n) => {
                    let _ = write!(out, "{n}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"location\":");
            json::write_opt_str(out, t.response.location.as_deref());
            out.push_str("},\"tcp_handshake_ms\":");
            json::write_f64(out, t.tcp_handshake_ms);
            out.push_str(",\"http_handshake_ms\":");
            json::write_f64(out, t.http_handshake_ms);
            out.push_str("}}");
        }
        TraceRecord::Https(t) => {
            out.push_str("{\"Https\":{\"ts\":");
            json::write_f64(out, t.ts);
            let _ = write!(
                out,
                ",\"client_ip\":{},\"server_ip\":{},\"server_port\":{},\"bytes\":{}}}}}",
                t.client_ip, t.server_ip, t.server_port, t.bytes
            );
        }
    }
}

/// Encode one record as its NDJSON line (newline excluded) — the exact
/// bytes [`write_trace`] would emit for it. The quarantine sidecar uses
/// this so quarantined lines stay replayable through any trace reader.
pub fn record_to_json(r: &TraceRecord) -> String {
    let mut out = String::with_capacity(256);
    encode_record(&mut out, r);
    out
}

/// Write a trace to any sink.
pub fn write_trace<W: Write>(trace: &Trace, sink: W) -> Result<(), CodecError> {
    let registry = obs::global();
    let mut span = registry.span_with("netsim_codec", &[("op", "write")]);
    let mut bytes = 0u64;
    let mut w = BufWriter::new(sink);
    let mut line = String::with_capacity(512);
    line.push_str("{\"format\":");
    json::write_str(&mut line, FORMAT_NAME);
    use std::fmt::Write as _;
    let _ = write!(line, ",\"version\":{FORMAT_VERSION},\"meta\":");
    encode_meta(&mut line, &trace.meta);
    line.push_str("}\n");
    w.write_all(line.as_bytes())?;
    bytes += line.len() as u64;
    for r in &trace.records {
        line.clear();
        encode_record(&mut line, r);
        line.push('\n');
        w.write_all(line.as_bytes())?;
        bytes += line.len() as u64;
    }
    w.flush()?;
    span.count("records", trace.records.len() as u64);
    span.count("bytes", bytes);
    registry
        .counter("netsim_records_written_total")
        .add(trace.records.len() as u64);
    registry.counter("netsim_bytes_written_total").add(bytes);
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn decode_meta(v: &Value<'_>) -> Result<TraceMeta, String> {
    Ok(TraceMeta {
        name: field_str(v, "name")?.to_owned(),
        duration_secs: field_f64(v, "duration_secs")?,
        subscribers: field_u64(v, "subscribers")? as usize,
        start_hour: field_u32(v, "start_hour")?,
        start_weekday: field_u32(v, "start_weekday")?,
    })
}

fn decode_method(v: &Value<'_>, key: &str) -> Result<Method, String> {
    match field(v, key)?.as_str() {
        Some("Get") => Ok(Method::Get),
        Some("Post") => Ok(Method::Post),
        Some("Head") => Ok(Method::Head),
        other => Err(format!("field `{key}` has unknown method {other:?}")),
    }
}

fn decode_http(v: &Value<'_>) -> Result<HttpTransaction, String> {
    let request = field(v, "request")?;
    let response = field(v, "response")?;
    Ok(HttpTransaction {
        ts: field_f64(v, "ts")?,
        client_ip: field_u32(v, "client_ip")?,
        server_ip: field_u32(v, "server_ip")?,
        server_port: field_u16(v, "server_port")?,
        method: decode_method(v, "method")?,
        request: RequestHeaders {
            host: field_str(request, "host")?.to_owned(),
            uri: field_str(request, "uri")?.to_owned(),
            referer: field_opt_str(request, "referer")?.map(str::to_owned),
            user_agent: field_opt_str(request, "user_agent")?.map(str::to_owned),
        },
        response: ResponseHeaders {
            status: field_u16(response, "status")?,
            content_type: field_opt_str(response, "content_type")?.map(str::to_owned),
            content_length: field_opt_u64(response, "content_length")?,
            location: field_opt_str(response, "location")?.map(str::to_owned),
        },
        tcp_handshake_ms: field_f64(v, "tcp_handshake_ms")?,
        http_handshake_ms: field_f64(v, "http_handshake_ms")?,
    })
}

fn decode_tls(v: &Value<'_>) -> Result<crate::record::TlsConnection, String> {
    Ok(crate::record::TlsConnection {
        ts: field_f64(v, "ts")?,
        client_ip: field_u32(v, "client_ip")?,
        server_ip: field_u32(v, "server_ip")?,
        server_port: field_u16(v, "server_port")?,
        bytes: field_u64(v, "bytes")?,
    })
}

pub(crate) fn decode_record(v: &Value<'_>) -> Result<TraceRecord, String> {
    match v {
        Value::Object(fields) if fields.len() == 1 => match fields[0].0.as_ref() {
            "Http" => Ok(TraceRecord::Http(decode_http(&fields[0].1)?)),
            "Https" => Ok(TraceRecord::Https(decode_tls(&fields[0].1)?)),
            other => Err(format!("unknown record variant {other:?}")),
        },
        _ => Err("record must be an object with exactly one variant key".to_string()),
    }
}

pub(crate) fn decode_header(line: &str) -> Result<TraceMeta, CodecError> {
    let v = json::parse(line.trim()).map_err(CodecError::BadHeader)?;
    let format = v
        .get("format")
        .and_then(Value::as_str)
        .ok_or_else(|| CodecError::BadHeader("missing field `format`".to_string()))?;
    if format != FORMAT_NAME {
        return Err(CodecError::BadHeader(format!(
            "unexpected format {format:?}"
        )));
    }
    let version = v
        .get("version")
        .and_then(Value::as_u32)
        .ok_or_else(|| CodecError::BadHeader("missing field `version`".to_string()))?;
    if version != FORMAT_VERSION {
        return Err(CodecError::Version(version));
    }
    let meta = v
        .get("meta")
        .ok_or_else(|| CodecError::BadHeader("missing field `meta`".to_string()))?;
    decode_meta(meta).map_err(CodecError::BadHeader)
}

/// Read a trace from any source, aborting on the first malformed line.
pub fn read_trace<R: Read>(source: R) -> Result<Trace, CodecError> {
    let registry = obs::global();
    let mut span = registry.span_with("netsim_codec", &[("op", "read_strict")]);
    let mut bytes = 0u64;
    let mut reader = BufReader::new(source);
    let mut first = String::new();
    reader.read_line(&mut first)?;
    if first.trim().is_empty() {
        return Err(CodecError::BadHeader("empty stream".to_string()));
    }
    bytes += first.len() as u64;
    let meta = decode_header(&first)?;
    let mut records = Vec::new();
    // One line buffer for the whole stream: `read_line` appends, so
    // clearing between iterations reuses the allocation instead of the
    // one-String-per-line churn of `BufRead::lines()`.
    let mut line = String::with_capacity(512);
    let mut lineno = 1usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        bytes += line.len() as u64;
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        let value = json::parse(text).map_err(|e| CodecError::BadRecord {
            line: lineno,
            error: e,
        })?;
        let rec = decode_record(&value).map_err(|e| CodecError::BadRecord {
            line: lineno,
            error: e,
        })?;
        records.push(rec);
    }
    span.count("records", records.len() as u64);
    span.count("bytes", bytes);
    let elapsed = span.end();
    registry
        .counter("netsim_records_read_total")
        .add(records.len() as u64);
    registry.counter("netsim_bytes_read_total").add(bytes);
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        registry
            .gauge("netsim_read_throughput_rps")
            .set(records.len() as f64 / secs);
        registry
            .gauge("netsim_read_throughput_bps")
            .set(bytes as f64 / secs);
    }
    Ok(Trace { meta, records })
}

// ---------------------------------------------------------------------------
// Lossy reading
// ---------------------------------------------------------------------------

/// Per-reason accounting of what a lossy read kept and dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Records successfully decoded.
    pub records_read: usize,
    /// Blank lines (not counted as skips; the strict reader tolerates
    /// them too).
    pub blank_lines: usize,
    /// Lines that were not valid JSON.
    pub skipped_bad_json: usize,
    /// Lines that parsed as JSON but did not decode as a trace record.
    pub skipped_bad_schema: usize,
    /// Lines containing invalid UTF-8.
    pub skipped_non_utf8: usize,
    /// Lines longer than [`MAX_LINE_BYTES`].
    pub skipped_oversize: usize,
    /// I/O errors encountered mid-stream (reading stops at the first).
    pub io_errors: usize,
    /// True when the header line was missing or corrupt and default
    /// metadata was substituted.
    pub header_recovered: bool,
}

impl CodecStats {
    /// Total record lines dropped, across all skip reasons.
    pub fn total_skipped(&self) -> usize {
        self.skipped_bad_json
            + self.skipped_bad_schema
            + self.skipped_non_utf8
            + self.skipped_oversize
    }

    /// Total non-blank record lines seen (kept + skipped).
    pub fn lines_seen(&self) -> usize {
        self.records_read + self.total_skipped()
    }

    /// Fold another reader's accounting into this one. Counters add;
    /// `header_recovered` ORs (the header exists once per stream, so at
    /// most one of the merged readers can have recovered it).
    ///
    /// [`ChunkReader`] reports per-chunk deltas; merging them in order
    /// gives the whole stream's accounting.
    pub fn merge(&mut self, other: &CodecStats) {
        self.records_read += other.records_read;
        self.blank_lines += other.blank_lines;
        self.skipped_bad_json += other.skipped_bad_json;
        self.skipped_bad_schema += other.skipped_bad_schema;
        self.skipped_non_utf8 += other.skipped_non_utf8;
        self.skipped_oversize += other.skipped_oversize;
        self.io_errors += other.io_errors;
        self.header_recovered |= other.header_recovered;
    }
}

impl std::fmt::Display for CodecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "read {} / skipped {} (json {}, schema {}, utf8 {}, oversize {})",
            self.records_read,
            self.total_skipped(),
            self.skipped_bad_json,
            self.skipped_bad_schema,
            self.skipped_non_utf8,
            self.skipped_oversize
        )?;
        if self.header_recovered {
            write!(f, ", header recovered")?;
        }
        if self.io_errors > 0 {
            write!(f, ", {} I/O errors", self.io_errors)?;
        }
        Ok(())
    }
}

/// Counter series a decode window carries, in registration order.
/// Checkpoint decoders map serialized names back onto this table.
pub const DECODE_COUNTERS: [&str; 4] = ["records", "http", "https", "bytes"];

/// The decode-side window schema: per-window record/protocol/byte series
/// keyed on each record's trace timestamp.
///
/// The watermark is infinite, so windowing here is **order-insensitive**:
/// partials merged with [`obs::WindowReport::merge`] equal the
/// whole-stream report regardless of where they were cut — the property
/// that lets the streaming pipeline checkpoint its decode windows and
/// merge them on resume.
#[derive(Debug)]
pub struct DecodeWindows {
    engine: obs::WindowEngine,
    c_records: obs::window::CounterId,
    c_http: obs::window::CounterId,
    c_https: obs::window::CounterId,
    c_bytes: obs::window::CounterId,
}

impl DecodeWindows {
    /// An engine over `width_secs` windows (an hour by default via
    /// [`DecodeWindows::hourly`]).
    pub fn new(width_secs: f64) -> DecodeWindows {
        let mut engine = obs::WindowEngine::new(obs::WindowConfig {
            width_secs,
            watermark_secs: f64::INFINITY,
        });
        let [c_records, c_http, c_https, c_bytes] =
            DECODE_COUNTERS.map(|name| engine.counter_series(name));
        DecodeWindows {
            engine,
            c_records,
            c_http,
            c_https,
            c_bytes,
        }
    }

    /// Hour-wide windows, matching the adscope series granularity.
    pub fn hourly() -> DecodeWindows {
        DecodeWindows::new(3600.0)
    }

    /// Window one decoded record by its trace timestamp.
    pub fn observe(&mut self, rec: &TraceRecord) {
        let ts = rec.ts();
        self.engine.count(ts, self.c_records, 1);
        match rec {
            TraceRecord::Http(tx) => {
                self.engine.count(ts, self.c_http, 1);
                self.engine
                    .count(ts, self.c_bytes, tx.response.content_length.unwrap_or(0));
            }
            TraceRecord::Https(conn) => {
                self.engine.count(ts, self.c_https, 1);
                self.engine.count(ts, self.c_bytes, conn.bytes);
            }
        }
    }

    /// Close all windows and return the report.
    pub fn finish(self) -> obs::WindowReport {
        self.engine.finish()
    }
}

/// Records a [`TraceReader`] decodes ahead per chunk.
const READ_AHEAD_RECORDS: usize = 1024;

/// A streaming, loss-tolerant trace reader: a record-at-a-time view of
/// [`ChunkReader`], the one lossy decoder.
///
/// Yields every record it can decode and resyncs at the next newline
/// after any line it cannot, tallying skips in [`CodecStats`]. A corrupt
/// or missing header is recovered with placeholder metadata (flagged in
/// the stats) rather than aborting: on a live monitor the records after
/// a damaged prologue are still worth having.
///
/// Throughput and resync metrics are recorded into the global [`obs`]
/// registry (`netsim_lossy_*`, `netsim_resync_total{reason=...}`) or the
/// one passed to [`TraceReader::with_registry`].
pub struct TraceReader<R: Read> {
    chunks: ChunkReader<R>,
    pending: std::vec::IntoIter<TraceRecord>,
    stats: CodecStats,
}

impl<R: Read> TraceReader<R> {
    /// Open a trace stream; only an I/O error on the header line is fatal.
    pub fn new(source: R) -> Result<TraceReader<R>, CodecError> {
        TraceReader::with_registry(source, obs::global())
    }

    /// Like [`TraceReader::new`], recording metrics into `registry`.
    pub fn with_registry(
        source: R,
        registry: &obs::Registry,
    ) -> Result<TraceReader<R>, CodecError> {
        Ok(TraceReader {
            chunks: ChunkReader::with_registry(source, READ_AHEAD_RECORDS, registry)?,
            pending: Vec::new().into_iter(),
            stats: CodecStats::default(),
        })
    }

    /// Trace metadata from the header (or the recovery placeholder).
    pub fn meta(&self) -> &TraceMeta {
        self.chunks.meta()
    }

    /// Accounting of every line decoded so far (which runs up to
    /// [`READ_AHEAD_RECORDS`] records ahead of the last one yielded).
    pub fn stats(&self) -> &CodecStats {
        &self.stats
    }

    /// Consume the reader, returning its final accounting.
    pub fn into_stats(self) -> CodecStats {
        self.stats
    }

    /// Next decodable record, skipping (and counting) corrupt lines.
    pub fn next_record(&mut self) -> Option<TraceRecord> {
        loop {
            if let Some(rec) = self.pending.next() {
                return Some(rec);
            }
            let chunk = self.chunks.next_chunk()?;
            self.stats.merge(&chunk.stats);
            self.pending = chunk.records.into_iter();
        }
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = TraceRecord;
    fn next(&mut self) -> Option<TraceRecord> {
        self.next_record()
    }
}

/// Read a trace leniently, collecting every decodable record plus the
/// skip accounting. Only an I/O failure on the header line returns `Err`.
pub fn read_trace_lossy<R: Read>(source: R) -> Result<(Trace, CodecStats), CodecError> {
    let mut reader = TraceReader::new(source)?;
    let records = reader.by_ref().collect();
    let meta = reader.meta().clone();
    Ok((Trace { meta, records }, reader.into_stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TlsConnection;

    fn sample_trace() -> Trace {
        Trace {
            meta: TraceMeta {
                name: "RBN-T".into(),
                duration_secs: 60.0,
                subscribers: 3,
                start_hour: 15,
                start_weekday: 1,
            },
            records: vec![TraceRecord::Https(TlsConnection {
                ts: 1.5,
                client_ip: 7,
                server_ip: 9,
                server_port: 443,
                bytes: 1234,
            })],
        }
    }

    fn http_trace(n: usize) -> Trace {
        let mut t = sample_trace();
        t.records = (0..n)
            .map(|i| {
                TraceRecord::Http(HttpTransaction {
                    ts: i as f64,
                    client_ip: 1,
                    server_ip: 2,
                    server_port: 80,
                    method: Method::Get,
                    request: RequestHeaders {
                        host: format!("host{i}.example"),
                        uri: "/x?q=\"quoted\"".to_string(),
                        referer: (i % 2 == 0).then(|| "http://ref.example/".to_string()),
                        user_agent: Some("UA/1.0 (λ)".to_string()),
                    },
                    response: ResponseHeaders {
                        status: 200,
                        content_type: Some("text/html".to_string()),
                        content_length: Some(1000 + i as u64),
                        location: None,
                    },
                    tcp_handshake_ms: 12.5,
                    http_handshake_ms: 80.25,
                })
            })
            .collect();
        t
    }

    #[test]
    fn roundtrip() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn roundtrip_http_records() {
        let trace = http_trace(5);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            read_trace(io::empty()),
            Err(CodecError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_wrong_format() {
        let bad = br#"{"format":"something-else","version":1,"meta":{"name":"x","duration_secs":1.0,"subscribers":1,"start_hour":0,"start_weekday":0}}"#;
        let mut data = bad.to_vec();
        data.push(b'\n');
        assert!(matches!(
            read_trace(data.as_slice()),
            Err(CodecError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let bad = br#"{"format":"annoyed-users-trace","version":99,"meta":{"name":"x","duration_secs":1.0,"subscribers":1,"start_hour":0,"start_weekday":0}}"#;
        let mut data = bad.to_vec();
        data.push(b'\n');
        assert!(matches!(
            read_trace(data.as_slice()),
            Err(CodecError::Version(99))
        ));
    }

    #[test]
    fn reports_bad_record_line() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        buf.extend_from_slice(b"{not json}\n");
        match read_trace(buf.as_slice()) {
            Err(CodecError::BadRecord { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected BadRecord, got {other:?}"),
        }
    }

    #[test]
    fn skips_blank_lines() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.records.len(), 1);
    }

    #[test]
    fn lossy_matches_strict_on_clean_input() {
        let trace = http_trace(20);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let strict = read_trace(buf.as_slice()).unwrap();
        let (lossy, stats) = read_trace_lossy(buf.as_slice()).unwrap();
        assert_eq!(strict, lossy);
        assert_eq!(stats.records_read, 20);
        assert_eq!(stats.total_skipped(), 0);
        assert!(!stats.header_recovered);
    }

    #[test]
    fn lossy_resyncs_after_corrupt_lines() {
        let trace = http_trace(10);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Corrupt record lines 2 and 7 (indexes 2 and 7 after the header)
        // three different ways, and add one invalid-UTF-8 line.
        lines[2] = lines[2][..lines[2].len() / 2].to_string(); // truncation
        lines[7] = "{\"Http\":{\"ts\":\"oops\"}}".to_string(); // schema break
        lines.push("!!! noise !!!".to_string());
        let mut bytes = lines.join("\n").into_bytes();
        bytes.extend_from_slice(b"\n\xff\xfe garbage\n");

        // Strict aborts at the first corrupt line (header is line 1, so
        // the truncated record at index 2 of the file is line 3)…
        assert!(matches!(
            read_trace(bytes.as_slice()),
            Err(CodecError::BadRecord { line: 3, .. })
        ));
        // …while lossy keeps everything else.
        let (out, stats) = read_trace_lossy(bytes.as_slice()).unwrap();
        assert_eq!(out.records.len(), 8);
        assert_eq!(stats.records_read, 8);
        assert_eq!(stats.skipped_bad_json, 2); // truncation + "!!! noise !!!"
        assert_eq!(stats.skipped_bad_schema, 1);
        assert_eq!(stats.skipped_non_utf8, 1);
        assert_eq!(stats.total_skipped(), 4);
        assert_eq!(out.meta, trace.meta);
    }

    #[test]
    fn lossy_recovers_from_corrupt_header() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        // Destroy the header line.
        let nl = buf.iter().position(|&b| b == b'\n').unwrap();
        for b in &mut buf[..nl] {
            *b = b'#';
        }
        let (out, stats) = read_trace_lossy(buf.as_slice()).unwrap();
        assert!(stats.header_recovered);
        assert_eq!(out.meta.name, "<recovered>");
        assert_eq!(out.records, trace.records);
    }

    #[test]
    fn lossy_handles_empty_stream() {
        let (out, stats) = read_trace_lossy(io::empty()).unwrap();
        assert!(out.records.is_empty());
        assert!(stats.header_recovered);
        assert_eq!(stats.lines_seen(), 0);
    }

    #[test]
    fn lossy_skips_oversize_lines() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        // A single giant line (no newline until the end).
        buf.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 10));
        buf.push(b'\n');
        let (out, stats) = read_trace_lossy(buf.as_slice()).unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(stats.skipped_oversize, 1);
    }

    #[test]
    fn streaming_reader_exposes_meta_and_stats() {
        let trace = http_trace(3);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.meta().name, "RBN-T");
        let n = reader.by_ref().count();
        assert_eq!(n, 3);
        assert_eq!(reader.stats().records_read, 3);
    }

    #[test]
    fn stats_display_is_informative() {
        let stats = CodecStats {
            records_read: 5,
            skipped_bad_json: 2,
            header_recovered: true,
            ..Default::default()
        };
        let s = stats.to_string();
        assert!(s.contains("read 5"));
        assert!(s.contains("header recovered"));
    }
}
