//! The persistent analysis service: a newline-delimited JSON protocol
//! over stdin/stdout or a unix socket, serving one warm
//! [`AnalysisSession`] to many clients.
//!
//! # Protocol (version [`SERVE_PROTOCOL_VERSION`])
//!
//! One request per line, one response line per request, in order:
//!
//! ```json
//! {"id": 1, "op": "analyze", "files": [{"name": "a.c", "text": "..."}]}
//! {"id": 2, "op": "ping"}
//! {"id": 3, "op": "stats"}
//! {"id": 4, "op": "shutdown"}
//! ```
//!
//! Every response carries `protocol_version`, the echoed `id` (string,
//! integer, boolean or null), and `ok`. An `analyze` response embeds the
//! versioned report document under `"report"` (see
//! [`crate::report::Report::to_json`]) and the request's incremental
//! counters under `"serve"`:
//!
//! ```json
//! {"protocol_version": 1, "id": 1, "ok": true, "op": "analyze",
//!  "report": {"schema_version": 1, "reports": [...]},
//!  "serve": {"roots": 3, "dirty_roots": 1, "clean_roots": 2,
//!            "changed_functions": 1, "warm_start": true}}
//! ```
//!
//! A `stats` response reports the running totals since the daemon
//! started. Failures (bad JSON, unknown op, compile errors) produce
//! `{"ok": false, "error": "..."}` and never kill the daemon; only
//! `shutdown` (or closing stdin in stdio mode) ends the serve loop.
//!
//! # Batch queue
//!
//! The unix-socket daemon ([`serve_unix`]) accepts many concurrent
//! connections; every request line is forwarded to a single worker thread
//! that owns the session, so requests are analyzed strictly in arrival
//! order against one warm cache — concurrent clients share every
//! previously computed root summary and validation verdict.

use crate::json::{quote, JsonValue};
use crate::session::{AnalysisRequest, AnalysisSession};
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Version of the request/response protocol. Bump on any incompatible
/// change; responses always carry it so clients can check.
pub const SERVE_PROTOCOL_VERSION: u64 = 1;

/// Hardening knobs for a serve loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Longest request line accepted, in bytes. An oversized frame is
    /// discarded up to its newline and answered with an error response —
    /// the connection (and the daemon) stay up, and framing re-synchronizes
    /// at the next line. `0` means unlimited.
    pub max_request_bytes: usize,
    /// Per-request reply deadline for the socket daemon, in milliseconds.
    /// A request that exceeds it gets a timeout error response while the
    /// worker finishes in the background (later requests queue behind it).
    /// `0` disables the deadline. Ignored by the stdio transport, which is
    /// single-threaded by design.
    pub request_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_request_bytes: 8 * 1024 * 1024,
            request_timeout_ms: 0,
        }
    }
}

/// One framed request line, read with a size bound.
enum Frame {
    /// End of stream (no more requests).
    Eof,
    /// A complete request line (without the newline).
    Line(String),
    /// A line longer than the bound; carries the discarded byte count.
    Oversized(usize),
}

/// Reads one newline-terminated frame without buffering more than `max`
/// bytes of it. Unlike `BufRead::read_line`, a hostile or buggy client
/// streaming an endless line cannot balloon daemon memory: once the bound
/// is crossed the remainder is consumed and dropped chunk-by-chunk until
/// the newline, keeping the stream synchronized for the next request.
fn read_frame<R: BufRead>(reader: &mut R, max: usize) -> io::Result<Frame> {
    let mut line: Vec<u8> = Vec::new();
    let mut dropped = false;
    let mut total = 0usize;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if total == 0 {
                Frame::Eof
            } else if dropped {
                Frame::Oversized(total)
            } else {
                Frame::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !dropped {
                    line.extend_from_slice(&buf[..pos]);
                }
                total += pos + 1;
                reader.consume(pos + 1);
                return Ok(if dropped || (max > 0 && line.len() > max) {
                    Frame::Oversized(total)
                } else {
                    Frame::Line(String::from_utf8_lossy(&line).into_owned())
                });
            }
            None => {
                let n = buf.len();
                total += n;
                if !dropped {
                    line.extend_from_slice(buf);
                    if max > 0 && line.len() > max {
                        dropped = true;
                        line = Vec::new();
                    }
                }
                reader.consume(n);
            }
        }
    }
}

/// Running totals across every request a serve loop has handled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeTotals {
    /// Requests handled (any op, including failed ones).
    pub requests: u64,
    /// `analyze` requests that completed successfully.
    pub analyzed: u64,
    /// Requests answered with `"ok": false`.
    pub errors: u64,
    /// Sum of dirty roots over all analyze requests.
    pub dirty_roots: u64,
    /// Sum of clean (cache-served) roots over all analyze requests.
    pub clean_roots: u64,
    /// Sum of changed functions over all analyze requests.
    pub changed_functions: u64,
}

/// Renders the scalar `id` a request carried (anything non-scalar echoes
/// as `null` — the protocol promises echo, not arbitrary re-serialization).
fn render_id(id: Option<&JsonValue>) -> String {
    match id {
        Some(JsonValue::Int(i)) => i.to_string(),
        Some(JsonValue::Str(s)) => quote(s),
        Some(JsonValue::Bool(b)) => b.to_string(),
        _ => "null".to_owned(),
    }
}

fn error_response(id: &str, message: &str) -> String {
    format!(
        "{{\"protocol_version\": {SERVE_PROTOCOL_VERSION}, \"id\": {id}, \"ok\": false, \"error\": {}}}",
        quote(message)
    )
}

/// Handles one request line. Returns the response line and whether the
/// serve loop should stop (a `shutdown` request).
pub fn handle_line(
    session: &mut AnalysisSession,
    line: &str,
    totals: &mut ServeTotals,
) -> (String, bool) {
    totals.requests += 1;
    let doc = match JsonValue::parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            totals.errors += 1;
            return (
                error_response("null", &format!("bad request JSON: {e}")),
                false,
            );
        }
    };
    let id = render_id(doc.get("id"));
    let op = doc.get("op").and_then(JsonValue::as_str).unwrap_or("");
    match op {
        "ping" => (
            format!(
                "{{\"protocol_version\": {SERVE_PROTOCOL_VERSION}, \"id\": {id}, \"ok\": true, \"op\": \"ping\"}}"
            ),
            false,
        ),
        "stats" => (
            format!(
                "{{\"protocol_version\": {SERVE_PROTOCOL_VERSION}, \"id\": {id}, \"ok\": true, \"op\": \"stats\", \
                 \"serve\": {{\"requests\": {}, \"analyzed\": {}, \"errors\": {}, \"dirty_roots\": {}, \
                 \"clean_roots\": {}, \"changed_functions\": {}}}}}",
                totals.requests,
                totals.analyzed,
                totals.errors,
                totals.dirty_roots,
                totals.clean_roots,
                totals.changed_functions
            ),
            false,
        ),
        "shutdown" => (
            format!(
                "{{\"protocol_version\": {SERVE_PROTOCOL_VERSION}, \"id\": {id}, \"ok\": true, \"op\": \"shutdown\"}}"
            ),
            true,
        ),
        "analyze" => {
            let mut request = AnalysisRequest::new();
            for item in doc
                .get("files")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[])
            {
                let name = item.get("name").and_then(JsonValue::as_str).unwrap_or("");
                let text = item.get("text").and_then(JsonValue::as_str).unwrap_or("");
                request = request.file(name, text);
            }
            match session.analyze(&request) {
                Ok(outcome) => {
                    let inc = outcome.incremental;
                    totals.analyzed += 1;
                    totals.dirty_roots += inc.dirty_roots;
                    totals.clean_roots += inc.clean_roots;
                    totals.changed_functions += inc.changed_functions;
                    (
                        format!(
                            "{{\"protocol_version\": {SERVE_PROTOCOL_VERSION}, \"id\": {id}, \"ok\": true, \"op\": \"analyze\", \
                             \"report\": {}, \
                             \"serve\": {{\"roots\": {}, \"dirty_roots\": {}, \"clean_roots\": {}, \
                             \"changed_functions\": {}, \"warm_start\": {}}}}}",
                            outcome.report.to_json(),
                            inc.roots,
                            inc.dirty_roots,
                            inc.clean_roots,
                            inc.changed_functions,
                            inc.warm_start
                        ),
                        false,
                    )
                }
                // `Internal` already reset the session's warm state; like
                // every other failure it is a response, not a daemon death.
                Err(e) => {
                    totals.errors += 1;
                    (error_response(&id, &e.to_string()), false)
                }
            }
        }
        other => {
            totals.errors += 1;
            (
                error_response(&id, &format!("unknown op `{other}` (expected analyze|ping|stats|shutdown)")),
                false,
            )
        }
    }
}

/// [`handle_line`] behind the worker's panic boundary: a panic escaping
/// the session (it has its own containment, so this is the last resort)
/// becomes an error response and a warm-state reset, never a dead loop.
fn handle_line_contained(
    session: &mut AnalysisSession,
    line: &str,
    totals: &mut ServeTotals,
) -> (String, bool) {
    match catch_unwind(AssertUnwindSafe(|| handle_line(session, line, totals))) {
        Ok(result) => result,
        Err(payload) => {
            session.reset_warm();
            totals.errors += 1;
            (
                error_response(
                    "null",
                    &format!("internal panic: {}", crate::driver::panic_reason(&*payload)),
                ),
                false,
            )
        }
    }
}

/// Renders the error response for a frame longer than the configured
/// [`ServeOptions::max_request_bytes`].
fn oversized_response(dropped: usize, max: usize) -> String {
    error_response(
        "null",
        &format!("request line of {dropped} bytes exceeds the {max}-byte limit"),
    )
}

/// Serves requests from `reader` to `writer` until `shutdown` or EOF —
/// the stdio transport, also what the in-process tests and benches drive.
/// Returns the accumulated totals. Uses [`ServeOptions::default`].
pub fn serve_loop<R: BufRead, W: Write>(
    session: &mut AnalysisSession,
    reader: R,
    writer: W,
) -> io::Result<ServeTotals> {
    serve_loop_with(session, reader, writer, ServeOptions::default())
}

/// [`serve_loop`] with explicit [`ServeOptions`].
pub fn serve_loop_with<R: BufRead, W: Write>(
    session: &mut AnalysisSession,
    mut reader: R,
    mut writer: W,
    options: ServeOptions,
) -> io::Result<ServeTotals> {
    let mut totals = ServeTotals::default();
    loop {
        let (response, quit) = match read_frame(&mut reader, options.max_request_bytes)? {
            Frame::Eof => break,
            Frame::Oversized(dropped) => {
                totals.requests += 1;
                totals.errors += 1;
                (
                    oversized_response(dropped, options.max_request_bytes),
                    false,
                )
            }
            Frame::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                handle_line_contained(session, &line, &mut totals)
            }
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if quit {
            break;
        }
    }
    Ok(totals)
}

/// The unix-socket daemon (linux/macOS only).
#[cfg(unix)]
pub mod unix {
    use super::*;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};

    struct Job {
        line: String,
        reply: mpsc::Sender<String>,
    }

    /// Binds `socket`, accepts connections until a `shutdown` request,
    /// and forwards every request line to one worker thread owning
    /// `session` (strict arrival order, shared warm cache). Returns the
    /// session (with its final telemetry) and the request totals. Uses
    /// [`ServeOptions::default`].
    pub fn serve_unix(
        session: AnalysisSession,
        socket: &Path,
    ) -> io::Result<(AnalysisSession, ServeTotals)> {
        serve_unix_with(session, socket, ServeOptions::default())
    }

    /// [`serve_unix`] with explicit [`ServeOptions`]: request frames are
    /// bounded per connection, and with a non-zero
    /// [`ServeOptions::request_timeout_ms`] a client whose request takes
    /// too long gets a timeout error while the worker finishes behind it.
    pub fn serve_unix_with(
        session: AnalysisSession,
        socket: &Path,
        options: ServeOptions,
    ) -> io::Result<(AnalysisSession, ServeTotals)> {
        let _ = std::fs::remove_file(socket);
        let listener = UnixListener::bind(socket)?;
        let (tx, rx) = mpsc::channel::<Job>();
        let shutdown = Arc::new(AtomicBool::new(false));

        let worker = {
            let shutdown = Arc::clone(&shutdown);
            let socket = socket.to_path_buf();
            let mut session = session;
            std::thread::spawn(move || {
                let mut totals = ServeTotals::default();
                while let Ok(job) = rx.recv() {
                    let (response, quit) =
                        handle_line_contained(&mut session, &job.line, &mut totals);
                    let _ = job.reply.send(response);
                    if quit {
                        shutdown.store(true, Ordering::SeqCst);
                        // Wake the accept loop so it can observe the flag.
                        let _ = UnixStream::connect(&socket);
                        break;
                    }
                }
                (session, totals)
            })
        };

        let mut conns = Vec::new();
        for conn in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let tx = tx.clone();
            conns.push(std::thread::spawn(move || {
                let mut reader = io::BufReader::new(match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => return,
                });
                let mut writer = stream;
                loop {
                    let response = match read_frame(&mut reader, options.max_request_bytes) {
                        Err(_) | Ok(Frame::Eof) => break,
                        Ok(Frame::Oversized(dropped)) => {
                            // Refused locally; the worker (and its totals)
                            // never see the frame, and the connection is
                            // already re-synchronized at the newline.
                            oversized_response(dropped, options.max_request_bytes)
                        }
                        Ok(Frame::Line(line)) => {
                            if line.trim().is_empty() {
                                continue;
                            }
                            let (reply_tx, reply_rx) = mpsc::channel();
                            if tx
                                .send(Job {
                                    line,
                                    reply: reply_tx,
                                })
                                .is_ok()
                            {
                                let reply = if options.request_timeout_ms > 0 {
                                    reply_rx
                                        .recv_timeout(std::time::Duration::from_millis(
                                            options.request_timeout_ms,
                                        ))
                                        .map_err(|e| match e {
                                            mpsc::RecvTimeoutError::Timeout => error_response(
                                                "null",
                                                &format!(
                                                    "request timed out after {} ms",
                                                    options.request_timeout_ms
                                                ),
                                            ),
                                            mpsc::RecvTimeoutError::Disconnected => {
                                                error_response("null", "daemon shut down")
                                            }
                                        })
                                } else {
                                    reply_rx
                                        .recv()
                                        .map_err(|_| error_response("null", "daemon shut down"))
                                };
                                match reply {
                                    Ok(r) | Err(r) => r,
                                }
                            } else {
                                error_response("null", "daemon shut down")
                            }
                        }
                    };
                    if writer
                        .write_all(response.as_bytes())
                        .and_then(|()| writer.write_all(b"\n"))
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        break;
                    }
                }
            }));
        }
        drop(tx);
        drop(listener);
        // Drain the connection threads so every in-flight response (the
        // shutdown acknowledgement in particular) reaches its client
        // before the daemon returns. Open connections end at client EOF;
        // any late request they send gets a "daemon shut down" error.
        for conn in conns {
            let _ = conn.join();
        }
        let _ = std::fs::remove_file(socket);
        worker
            .join()
            .map_err(|_| io::Error::other("serve worker panicked"))
    }

    /// Sends one request line to a daemon at `socket` and returns its
    /// response line — the `pata client` primitive.
    pub fn client_request(socket: &Path, line: &str) -> io::Result<String> {
        let mut stream = UnixStream::connect(socket)?;
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        let mut reader = io::BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response)?;
        Ok(response.trim_end().to_owned())
    }
}

#[cfg(unix)]
pub use unix::{client_request, serve_unix, serve_unix_with};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;

    fn session() -> AnalysisSession {
        AnalysisSession::new(AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        })
    }

    const SRC: &str = "int probe(int *p) { if (p == NULL) { } return *p; }";

    fn analyze_line(id: u64, name: &str, text: &str) -> String {
        format!(
            "{{\"id\": {id}, \"op\": \"analyze\", \"files\": [{{\"name\": {}, \"text\": {}}}]}}",
            quote(name),
            quote(text)
        )
    }

    #[test]
    fn stdio_round_trip_reports_and_stats() {
        let mut s = session();
        let input = format!(
            "{}\n{}\n{{\"id\": 3, \"op\": \"stats\"}}\n{{\"id\": 4, \"op\": \"shutdown\"}}\n",
            analyze_line(1, "t.c", SRC),
            analyze_line(2, "t.c", SRC),
        );
        let mut out = Vec::new();
        let totals = serve_loop(&mut s, input.as_bytes(), &mut out).unwrap();
        assert_eq!(totals.requests, 4);
        assert_eq!(totals.analyzed, 2);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 4);
        let first = JsonValue::parse(lines[0]).unwrap();
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(first.get("id").unwrap().as_u64(), Some(1));
        assert_eq!(
            first.get("protocol_version").unwrap().as_u64(),
            Some(SERVE_PROTOCOL_VERSION)
        );
        assert!(first.get("report").unwrap().get("reports").is_some());
        // The second identical request is served warm.
        let second = JsonValue::parse(lines[1]).unwrap();
        let serve = second.get("serve").unwrap();
        assert_eq!(serve.get("dirty_roots").unwrap().as_u64(), Some(0));
        assert_eq!(serve.get("warm_start").unwrap().as_bool(), Some(true));
        // Identical report bytes, cold vs warm.
        assert_eq!(
            format!("{:?}", first.get("report")),
            format!("{:?}", second.get("report"))
        );
        let stats = JsonValue::parse(lines[2]).unwrap();
        assert_eq!(
            stats
                .get("serve")
                .unwrap()
                .get("analyzed")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        let bye = JsonValue::parse(lines[3]).unwrap();
        assert_eq!(bye.get("op").unwrap().as_str(), Some("shutdown"));
    }

    #[test]
    fn bad_json_and_unknown_op_do_not_kill_the_loop() {
        let mut s = session();
        let input =
            "this is not json\n{\"id\": \"x\", \"op\": \"frobnicate\"}\n{\"op\": \"ping\"}\n";
        let mut out = Vec::new();
        let totals = serve_loop(&mut s, input.as_bytes(), &mut out).unwrap();
        assert_eq!(totals.requests, 3);
        assert_eq!(totals.errors, 2);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        let bad = JsonValue::parse(lines[0]).unwrap();
        assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));
        let unknown = JsonValue::parse(lines[1]).unwrap();
        assert_eq!(unknown.get("id").unwrap().as_str(), Some("x"));
        assert!(unknown
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("frobnicate"));
        let ping = JsonValue::parse(lines[2]).unwrap();
        assert_eq!(ping.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn oversized_frame_gets_error_and_loop_survives() {
        let mut s = session();
        let big = format!("{{\"op\": \"ping\", \"pad\": \"{}\"}}", "x".repeat(4096));
        let input = format!("{big}\n{{\"id\": 2, \"op\": \"ping\"}}\n");
        let mut out = Vec::new();
        let totals = serve_loop_with(
            &mut s,
            input.as_bytes(),
            &mut out,
            ServeOptions {
                max_request_bytes: 256,
                request_timeout_ms: 0,
            },
        )
        .unwrap();
        assert_eq!(totals.requests, 2);
        assert_eq!(totals.errors, 1);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        let refused = JsonValue::parse(lines[0]).unwrap();
        assert_eq!(refused.get("ok").unwrap().as_bool(), Some(false));
        assert!(refused
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("256-byte limit"));
        // Framing re-synchronized: the next request still works.
        let ping = JsonValue::parse(lines[1]).unwrap();
        assert_eq!(ping.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn oversized_frame_larger_than_bufreader_chunk() {
        let mut s = session();
        // Longer than BufReader's 8 KiB internal buffer: exercises the
        // chunked discard path of read_frame.
        let big = "y".repeat(64 * 1024);
        let input = format!("{big}\n{{\"op\": \"ping\"}}\n");
        let mut out = Vec::new();
        let totals = serve_loop_with(
            &mut s,
            io::BufReader::new(input.as_bytes()),
            &mut out,
            ServeOptions {
                max_request_bytes: 1024,
                request_timeout_ms: 0,
            },
        )
        .unwrap();
        assert_eq!(totals.errors, 1);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("65537 bytes"));
        assert!(lines[1].contains("\"ok\": true"));
    }

    #[test]
    fn session_panic_becomes_error_response_and_loop_survives() {
        use crate::faultinject::FaultPlan;
        use std::sync::Arc;
        let plan = Arc::new(FaultPlan::parse("session.analyze@1").unwrap());
        let mut s = AnalysisSession::new(
            AnalysisConfig::builder()
                .threads(1)
                .fault_plan(plan)
                .build()
                .unwrap(),
        );
        let input = format!(
            "{}\n{}\n",
            analyze_line(1, "t.c", SRC),
            analyze_line(2, "t.c", SRC)
        );
        let mut out = Vec::new();
        let totals = serve_loop(&mut s, input.as_bytes(), &mut out).unwrap();
        assert_eq!(totals.errors, 1);
        assert_eq!(totals.analyzed, 1);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        let first = JsonValue::parse(lines[0]).unwrap();
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(false));
        assert!(first
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("fault injected: session.analyze"));
        // The daemon answers the next request normally (cold restart).
        let second = JsonValue::parse(lines[1]).unwrap();
        assert_eq!(second.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn compile_error_is_an_error_response() {
        let mut s = session();
        let mut totals = ServeTotals::default();
        let (response, quit) =
            handle_line(&mut s, &analyze_line(9, "bad.c", "int f( {"), &mut totals);
        assert!(!quit);
        let doc = JsonValue::parse(&response).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(9));
    }

    /// Sends `frame` and then a ping: the frame gets an error response and
    /// the ping is still answered.
    fn refused_then_ping(frame: &str) -> String {
        let mut s = session();
        let mut totals = ServeTotals::default();
        let (response, quit) = handle_line(&mut s, frame, &mut totals);
        assert!(!quit);
        let doc = JsonValue::parse(&response).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        let (pong, _) = handle_line(&mut s, "{\"id\": 2, \"op\": \"ping\"}", &mut totals);
        let pong = JsonValue::parse(&pong).unwrap();
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
        doc.get("error").unwrap().as_str().unwrap().to_owned()
    }

    #[test]
    fn deeply_nested_source_is_an_error_response() {
        let depth = 20_000;
        let src = format!(
            "int f(int x) {{ return {}x{}; }}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let error = refused_then_ping(&analyze_line(1, "deep.c", &src));
        assert!(error.contains("nesting too deep"), "{error}");
    }

    #[test]
    fn deeply_nested_frame_is_an_error_response() {
        let frame = format!("{{\"op\": \"ping\", \"pad\": {}", "[".repeat(100_000));
        assert!(frame.len() > 100_000);
        let error = refused_then_ping(&frame);
        assert!(error.contains("nesting too deep"), "{error}");
    }

    #[cfg(unix)]
    #[test]
    fn unix_daemon_serves_concurrent_clients_and_shuts_down() {
        let dir = std::env::temp_dir().join(format!("pata-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("pata.sock");
        let s = session();
        let daemon = {
            let socket = socket.clone();
            std::thread::spawn(move || serve_unix(s, &socket).unwrap())
        };
        // Wait for the socket to appear.
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let first = client_request(&socket, &analyze_line(1, "t.c", SRC)).unwrap();
        // A second client shares the first client's warm cache.
        let second = client_request(&socket, &analyze_line(2, "t.c", SRC)).unwrap();
        let doc = JsonValue::parse(&second).unwrap();
        assert_eq!(
            doc.get("serve")
                .unwrap()
                .get("dirty_roots")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        let first_doc = JsonValue::parse(&first).unwrap();
        assert_eq!(
            format!("{:?}", first_doc.get("report")),
            format!("{:?}", doc.get("report"))
        );
        let bye = client_request(&socket, "{\"id\": 3, \"op\": \"shutdown\"}").unwrap();
        assert!(bye.contains("\"ok\": true"));
        let (_session, totals) = daemon.join().unwrap();
        assert_eq!(totals.analyzed, 2);
        assert!(!socket.exists(), "socket file cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
