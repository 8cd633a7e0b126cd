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
//!            "changed_functions": 1, "warm_start": true, "lowered_functions": 6,
//!            "parsed_files": 1}}
//! ```
//!
//! `parsed_files` counts the request's files the daemon parsed; every
//! other file had the same name and text in the previous request, and its
//! parsed form was reused (see [`crate::IncrementalStats::parsed_files`]).
//! `lowered_functions` counts the functions it lowered: all of them, or,
//! when the request names the previous request's files in the same order,
//! only the changed files' functions
//! (see [`crate::IncrementalStats::lowered_functions`]). A daemon
//! restarted over a store answers a request over the tree the store was
//! saved from with both at 0: it serves the store's records without
//! compiling.
//!
//! # Serving an edit
//!
//! A frame is read in one pass, in document order, without a tree
//! ([`crate::json::Reader`]); it is accepted, and refused with the same
//! message at the same byte, exactly as a tree parse would. A file whose
//! `name` comes before its `text` and equals the name of the file the
//! session kept at the same position has its text compared with the kept
//! text in escaped form: run by run, each escape against the next decoded
//! char, exactly and without a hash. An unchanged text is thus validated
//! but never decoded or copied; only a text that differs (or that cannot
//! be matched, such as one before its name) is decoded.
//!
//! A session that relowered in place keeps each reported finding's JSON
//! object with its P3 group. The response's report is written from those
//! fragments, and a finding is built again only when its group is new,
//! was settled again, or has a site or origin function that this request
//! lowered again (an inserted line moves every later function of its
//! file). The report is byte for byte the one a cold analysis renders.
//!
//! A `stats` response reports the running totals since the daemon
//! started. Failures (bad JSON, unknown op, compile errors) produce
//! `{"ok": false, "error": "..."}` and never kill the daemon; only
//! `shutdown` (or closing stdin in stdio mode) ends the serve loop.
//!
//! # Batch queue
//!
//! The unix-socket daemon ([`serve_unix`]) accepts many concurrent
//! connections; every request frame is forwarded to a single worker thread
//! that owns the session, so requests are analyzed strictly in arrival
//! order against one warm cache — concurrent clients share every
//! previously computed root summary and validation verdict. An oversized
//! frame goes to the worker too, which refuses it and counts the refusal
//! in its totals, as the stdio loop does.

use crate::json::{quote, JsonError, Reader};
use crate::session::{AnalysisSession, FrameFile};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

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
/// `None` at the end of the stream.
fn read_frame<R: BufRead>(reader: &mut R, max: usize) -> io::Result<Option<Frame>> {
    let mut line: Vec<u8> = Vec::new();
    let mut dropped = false;
    let mut total = 0usize;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if total == 0 {
                None
            } else if dropped {
                Some(Frame::Oversized(total))
            } else {
                Some(Frame::Line(frame_text(line)))
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !dropped {
                    line.extend_from_slice(&buf[..pos]);
                }
                total += pos + 1;
                reader.consume(pos + 1);
                return Ok(Some(if dropped || (max > 0 && line.len() > max) {
                    Frame::Oversized(total)
                } else {
                    Frame::Line(frame_text(line))
                }));
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

/// A frame's bytes as text: moved into the `String` when they are valid
/// UTF-8, and copied with U+FFFD for each invalid sequence only when not.
fn frame_text(line: Vec<u8>) -> String {
    String::from_utf8(line).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
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

/// A request frame as [`read_request`] reads it.
#[derive(Debug)]
struct Request<'a> {
    /// The `id` to echo, rendered: a string, an integer that fits `i64`
    /// or a boolean echoes as itself, anything else (or none) as `null`.
    id: String,
    /// The `op`; `""` when missing or not a string.
    op: Cow<'a, str>,
    /// The `files`, each with its `name` and `text` (`""` when missing or
    /// not a string; a file that is not an object has both empty). Empty
    /// when `files` is missing or not an array.
    files: Vec<FrameFile<'a>>,
}

/// Reads a request frame in one pass, in document order, without building
/// a tree. The keys `id`, `op` and `files` may come in any order; the
/// first of two equal keys wins, and any other key is skipped, but every
/// value must be well-formed, as must anything after the frame's object.
///
/// A file's `text` that follows its `name` is compared in its escaped
/// form with the text of `kept(i)`, the kept file at the same position `i`,
/// when that file has the same name: a match leaves the text undecoded
/// (`None`). Any other text is decoded.
fn read_request<'a, 'k>(
    line: &'a str,
    kept: impl Fn(usize) -> Option<(&'k str, &'k str)>,
) -> Result<Request<'a>, JsonError> {
    let mut r = Reader::new(line);
    let mut request = Request {
        id: "null".to_owned(),
        op: Cow::Borrowed(""),
        files: Vec::new(),
    };
    let (mut id, mut op, mut files) = (false, false, false);
    if r.begin_object()? {
        while let Some(key) = r.next_key()? {
            match &*key {
                "id" if !id => {
                    id = true;
                    request.id = match r.peek() {
                        Some(b'"') => r.str()?.map(|s| quote(&s)),
                        Some(b'-' | b'0'..=b'9') => r.int()?.map(|i| i.to_string()),
                        Some(b @ (b't' | b'f')) => {
                            r.skip_value()?;
                            Some((b == b't').to_string())
                        }
                        _ => {
                            r.skip_value()?;
                            None
                        }
                    }
                    .unwrap_or_else(|| "null".to_owned());
                }
                "op" if !op => {
                    op = true;
                    request.op = r.str()?.unwrap_or_default();
                }
                "files" if !files => {
                    files = true;
                    if r.begin_array()? {
                        while r.next_item()? {
                            let i = request.files.len();
                            request.files.push(read_file(&mut r, kept(i))?);
                        }
                    }
                }
                _ => r.skip_value()?,
            }
        }
    }
    r.finish()?;
    Ok(request)
}

/// Reads one item of a frame's `files` (see [`read_request`]); `kept` is
/// the name and text of the kept file at its position.
fn read_file<'a>(
    r: &mut Reader<'a>,
    kept: Option<(&str, &str)>,
) -> Result<FrameFile<'a>, JsonError> {
    let (mut name, mut text) = (None, None);
    if r.begin_object()? {
        while let Some(key) = r.next_key()? {
            match &*key {
                "name" if name.is_none() => name = Some(r.str()?.unwrap_or_default()),
                "text" if text.is_none() => {
                    let same_name =
                        kept.filter(|&(kept_name, _)| name.as_deref() == Some(kept_name));
                    text = Some(match same_name {
                        Some((_, kept_text)) if r.string_is(kept_text) => None,
                        _ => Some(r.str()?.unwrap_or_default()),
                    });
                }
                _ => r.skip_value()?,
            }
        }
    }
    Ok(FrameFile {
        name: name.unwrap_or_default(),
        text: text.unwrap_or(Some(Cow::Borrowed(""))),
    })
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
    let start = Instant::now();
    let request = match read_request(line, |i| session.kept_file(i)) {
        Ok(request) => request,
        Err(e) => {
            totals.errors += 1;
            return (
                error_response("null", &format!("bad request JSON: {e}")),
                false,
            );
        }
    };
    let frame_ns = start.elapsed().as_nanos() as u64;
    let id = &request.id;
    match &*request.op {
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
            let mut out = format!(
                "{{\"protocol_version\": {SERVE_PROTOCOL_VERSION}, \"id\": {id}, \"ok\": true, \"op\": \"analyze\", \
                 \"report\": "
            );
            match session.analyze_served(&request.files, &mut out) {
                Ok((inc, render_ns)) => {
                    let wrap = Instant::now();
                    totals.analyzed += 1;
                    totals.dirty_roots += inc.dirty_roots;
                    totals.clean_roots += inc.clean_roots;
                    totals.changed_functions += inc.changed_functions;
                    let _ = write!(
                        out,
                        ", \"serve\": {{\"roots\": {}, \"dirty_roots\": {}, \"clean_roots\": {}, \
                         \"changed_functions\": {}, \"warm_start\": {}, \"lowered_functions\": {}, \
                         \"parsed_files\": {}}}}}",
                        inc.roots,
                        inc.dirty_roots,
                        inc.clean_roots,
                        inc.changed_functions,
                        inc.warm_start,
                        inc.lowered_functions,
                        inc.parsed_files
                    );
                    let render_ns = render_ns + wrap.elapsed().as_nanos() as u64;
                    session.telemetry().record_direct(|sink| {
                        sink.record_ns("driver.serve.frame", frame_ns);
                        sink.record_ns("driver.serve.render", render_ns);
                    });
                    (out, false)
                }
                // `Internal` already reset the session's warm state; like
                // every other failure it is a response, not a daemon death.
                Err(e) => {
                    totals.errors += 1;
                    (error_response(id, &e.to_string()), false)
                }
            }
        }
        other => {
            totals.errors += 1;
            (
                error_response(id, &format!("unknown op `{other}` (expected analyze|ping|stats|shutdown)")),
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

/// Answers one frame: a request line through [`handle_line`] behind the
/// panic boundary, or the refusal of a line longer than `max` bytes, which
/// counts as a failed request.
fn answer_frame(
    session: &mut AnalysisSession,
    frame: Frame,
    max: usize,
    totals: &mut ServeTotals,
) -> (String, bool) {
    match frame {
        Frame::Line(line) => handle_line_contained(session, &line, totals),
        Frame::Oversized(dropped) => {
            totals.requests += 1;
            totals.errors += 1;
            let message = format!("request line of {dropped} bytes exceeds the {max}-byte limit");
            (error_response("null", &message), false)
        }
    }
}

/// The frame loop both transports run: reads frames of at most `max`
/// bytes from `reader` until EOF, skips blank lines, and writes the
/// response line `answer` gives each, until it asks to stop.
fn frame_loop<R: BufRead, W: Write>(
    mut reader: R,
    mut writer: W,
    max: usize,
    mut answer: impl FnMut(Frame) -> (String, bool),
) -> io::Result<()> {
    while let Some(frame) = read_frame(&mut reader, max)? {
        if matches!(&frame, Frame::Line(line) if line.trim().is_empty()) {
            continue;
        }
        let (response, quit) = answer(frame);
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if quit {
            break;
        }
    }
    Ok(())
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
    reader: R,
    writer: W,
    options: ServeOptions,
) -> io::Result<ServeTotals> {
    let mut totals = ServeTotals::default();
    let max = options.max_request_bytes;
    frame_loop(reader, writer, max, |frame| {
        answer_frame(session, frame, max, &mut totals)
    })?;
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
    use std::time::Duration;

    struct Job {
        frame: Frame,
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
                    let (response, quit) = answer_frame(
                        &mut session,
                        job.frame,
                        options.max_request_bytes,
                        &mut totals,
                    );
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
                let reader = io::BufReader::new(match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => return,
                });
                let max = options.max_request_bytes;
                // A read or write error ends the connection, like EOF.
                let _ = frame_loop(reader, stream, max, |frame| {
                    let (reply, reply_rx) = mpsc::channel();
                    if tx.send(Job { frame, reply }).is_err() {
                        return (error_response("null", "daemon shut down"), false);
                    }
                    let response = if options.request_timeout_ms > 0 {
                        let timeout = Duration::from_millis(options.request_timeout_ms);
                        reply_rx.recv_timeout(timeout).map_err(|e| match e {
                            mpsc::RecvTimeoutError::Timeout => {
                                format!("request timed out after {} ms", options.request_timeout_ms)
                            }
                            mpsc::RecvTimeoutError::Disconnected => "daemon shut down".to_owned(),
                        })
                    } else {
                        reply_rx.recv().map_err(|_| "daemon shut down".to_owned())
                    };
                    let response = response.unwrap_or_else(|e| error_response("null", &e));
                    (response, false)
                });
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
mod tree_request;

#[cfg(test)]
mod frame_mutation;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::json::JsonValue;
    use crate::session::AnalysisRequest;

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
    fn frames_with_invalid_utf8_read_as_lossy_text() {
        let valid = "{\"op\": \"ping\", \"n\": \"é中\"}".as_bytes().to_vec();
        let mut invalid = valid.clone();
        invalid.insert(3, 0xff);
        invalid.extend_from_slice(&[0xe4, 0xb8]); // a truncated sequence
        for bytes in [valid, invalid] {
            let mut input = bytes.clone();
            input.push(b'\n');
            let Some(Frame::Line(text)) = read_frame(&mut input.as_slice(), 0).unwrap() else {
                panic!("a frame");
            };
            assert_eq!(text, String::from_utf8_lossy(&bytes));
        }
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

    #[test]
    fn missing_or_non_string_file_fields_become_empty() {
        let frame = format!(
            "{{\"op\": \"analyze\", \"files\": [{{\"name\": \"a.c\", \"text\": {}}}, \
             {{\"text\": \"int x;\"}}, {{\"name\": 7, \"text\": null}}, 3]}}",
            quote(SRC)
        );
        let request = tree_request::resolve(read_request(&frame, |_| None).unwrap(), |_| None);
        assert_eq!(tree_request::oracle(&frame), Ok(request.clone()));
        let request = request.2;
        let expected = AnalysisRequest::new()
            .file("a.c", SRC)
            .file("", "int x;")
            .file("", "")
            .file("", "");
        assert_eq!(request, expected);
        // The same frame analyzes: the nameless files are empty units.
        let mut totals = ServeTotals::default();
        let (response, _) = handle_line(&mut session(), &frame, &mut totals);
        let doc = JsonValue::parse(&response).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true), "{response}");
        let serve = doc.get("serve").unwrap();
        assert_eq!(serve.get("roots").unwrap().as_u64(), Some(1));
        // A `files` that is not an array is an empty request.
        for files in ["5", "{}", "null"] {
            let frame = format!("{{\"op\": \"analyze\", \"files\": {files}}}");
            let request = read_request(&frame, |_| None).unwrap();
            assert!(request.files.is_empty(), "{frame}");
        }
    }

    #[test]
    fn analyze_response_counts_parsed_files() {
        let mut s = session();
        let mut totals = ServeTotals::default();
        let parsed = |s: &mut AnalysisSession, totals: &mut ServeTotals, frame: &str| {
            let (response, _) = handle_line(s, frame, totals);
            // The fields follow `warm_start`; `parsed_files` closes the
            // serve object.
            let tail = &response[response.find("\"warm_start\"").unwrap()..];
            assert!(tail.contains(", \"parsed_files\": "), "{response}");
            assert!(tail.ends_with("}}"), "{response}");
            let doc = JsonValue::parse(&response).unwrap();
            doc.get("serve")
                .unwrap()
                .get("parsed_files")
                .unwrap()
                .as_u64()
        };
        assert_eq!(
            parsed(&mut s, &mut totals, &analyze_line(1, "t.c", SRC)),
            Some(1)
        );
        assert_eq!(
            parsed(&mut s, &mut totals, &analyze_line(2, "t.c", SRC)),
            Some(0)
        );
        let edited = SRC.replace("return *p;", "return *p + 1;");
        assert_eq!(
            parsed(&mut s, &mut totals, &analyze_line(3, "t.c", &edited)),
            Some(1)
        );
    }

    #[test]
    fn analyze_response_counts_lowered_functions() {
        let mut s = session();
        let mut totals = ServeTotals::default();
        let helper = "int helper(int x) { return x + 1; }";
        let frame = |id: u64, files: &[(&str, &str)]| {
            let files: Vec<String> = files
                .iter()
                .map(|(name, text)| {
                    format!("{{\"name\": {}, \"text\": {}}}", quote(name), quote(text))
                })
                .collect();
            format!(
                "{{\"id\": {id}, \"op\": \"analyze\", \"files\": [{}]}}",
                files.join(", ")
            )
        };
        let mut lowered = |files: &[(&str, &str)]| {
            let (response, _) = handle_line(&mut s, &frame(1, files), &mut totals);
            let doc = JsonValue::parse(&response).unwrap();
            let serve = doc.get("serve").expect("an analyze response");
            serve.get("lowered_functions").unwrap().as_u64().unwrap()
        };
        let edited = SRC.replace("return *p;", "return *p + 1;");
        assert_eq!(lowered(&[("a.c", SRC), ("b.c", helper)]), 2);
        assert_eq!(lowered(&[("a.c", SRC), ("b.c", helper)]), 0);
        // An edit lowers its file again, in place.
        assert_eq!(lowered(&[("a.c", &edited), ("b.c", helper)]), 1);
        // A new file changes the file list: everything is lowered.
        let c = "int third(void) { return 3; }";
        assert_eq!(lowered(&[("a.c", &edited), ("b.c", helper), ("c.c", c)]), 3);
    }

    /// A served `analyze` request records its frame read (the escaped-form
    /// comparison included) and its rendering as spans of their own, next
    /// to the session's stages; the store save keeps its name.
    #[test]
    fn served_requests_record_frame_and_render_spans() {
        let dir = std::env::temp_dir().join(format!("pata-serve-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = AnalysisConfig {
            threads: 1,
            telemetry: true,
            ..AnalysisConfig::default()
        };
        let mut s = AnalysisSession::open(config, dir.join("store.json"));
        let mut totals = ServeTotals::default();
        let edited = SRC.replace("return *p;", "return *p + 1;");
        for (id, text) in [(1, SRC), (2, &*edited), (3, &*edited)] {
            handle_line(&mut s, &analyze_line(id, "t.c", text), &mut totals);
        }
        handle_line(&mut s, "{\"op\": \"ping\"}", &mut totals);
        let snapshot = s.telemetry().snapshot();
        let count = |name: &str| snapshot.histogram(name).map_or(0, |h| h.count);
        for name in [
            "driver.serve.frame",
            "driver.serve.parse",
            "driver.serve.lower",
            "stage.filter",
            "driver.serve.render",
        ] {
            assert_eq!(count(name), 3, "{name}");
        }
        // The identical third request leaves the store as it is.
        assert_eq!(count("driver.serve.store_save"), 2);
        let _ = std::fs::remove_dir_all(&dir);
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

    /// The socket daemon counts a refused oversized frame like any failed
    /// request, as the stdio loop does.
    #[cfg(unix)]
    #[test]
    fn unix_daemon_counts_an_oversized_frame() {
        let options = ServeOptions {
            max_request_bytes: 256,
            request_timeout_ms: 0,
        };
        let dir = std::env::temp_dir().join(format!("pata-serve-big-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("pata.sock");
        let s = session();
        let daemon = {
            let socket = socket.clone();
            std::thread::spawn(move || serve_unix_with(s, &socket, options).unwrap())
        };
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let big = format!("{{\"op\": \"ping\", \"pad\": \"{}\"}}", "x".repeat(4096));
        let refused = client_request(&socket, &big).unwrap();
        assert!(refused.contains("256-byte limit"), "{refused}");
        let stats = client_request(&socket, "{\"op\": \"stats\"}").unwrap();
        let doc = JsonValue::parse(&stats).unwrap();
        let serve = doc.get("serve").unwrap();
        assert_eq!(serve.get("requests").unwrap().as_u64(), Some(2), "{stats}");
        assert_eq!(serve.get("errors").unwrap().as_u64(), Some(1), "{stats}");
        client_request(&socket, "{\"op\": \"shutdown\"}").unwrap();
        let (_session, totals) = daemon.join().unwrap();
        assert_eq!((totals.requests, totals.errors), (3, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
