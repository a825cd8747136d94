//! The daemon: accept loop, request dispatch, counters, checkpoint cadence.
//!
//! Each connection gets its own thread, but every request is dispatched
//! under one state lock — the parallel engine already saturates the machine
//! for a single learn, so running two learns concurrently would fight over
//! cores and interleave nondeterministically. Serialized dispatch keeps
//! answers deterministic while letting any number of clients stay
//! connected (an idle connection never blocks another client's request).

use crate::json::Json;
use crate::proto::{
    err_response, ok_response, read_frame, write_frame, ErrorCode, FrameError, PROTOCOL_VERSION,
};
use crate::request::{self, DesignSpec, JobKey, RunOptions};
use crate::state::{CheckpointSummary, LearnOutcome, LearnResult, ServeState};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// A TCP address, e.g. `127.0.0.1:7411`.
    Tcp(String),
    /// A Unix-domain socket path (Unix targets only).
    Unix(PathBuf),
}

/// Daemon configuration (`veloct serve` flags; see `docs/PRODUCTION.md`).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub bind: Bind,
    /// Persistence root, or `None` for a memory-only daemon.
    pub state_dir: Option<PathBuf>,
    /// Default engine threads for requests that do not specify `threads`:
    /// at most 256, the bound on the frame field ([`Server::bind`] refuses
    /// more); 0 = all available cores, up to the same bound.
    pub threads: usize,
    /// Auto-checkpoint after every N successful learn/verify requests
    /// (0 = only on explicit `checkpoint` and on `shutdown`).
    pub checkpoint_every: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:7411".to_string()),
            state_dir: None,
            threads: 0,
            checkpoint_every: 0,
        }
    }
}

/// Request counters mirrored into the `status` response, so operators (and
/// tests) can read them without enabling tracing. Each field has a
/// `serve.*` trace counter twin; `docs/MONITORING.md` maps both to the
/// operational question they answer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounters {
    /// Frames dispatched (any op, either outcome).
    pub requests: u64,
    /// Frames answered `ok:false`.
    pub errors: u64,
    /// `learn` requests served.
    pub learns: u64,
    /// `verify` requests served.
    pub verifies: u64,
    /// Learn/verify runs answered entirely from warm state: memo seeded,
    /// zero SMT queries issued.
    pub warm_hits: u64,
    /// Checkpoints written (explicit, cadence-driven, and shutdown).
    pub checkpoints: u64,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

/// Everything the connection threads share, behind one lock.
struct Inner {
    config: ServerConfig,
    /// `threads` of a frame that does not carry it.
    default_threads: usize,
    state: ServeState,
    counters: ServerCounters,
    started: Instant,
    since_checkpoint: usize,
    shutdown: bool,
    /// Bound TCP address, used to self-connect and wake the accept loop on
    /// shutdown.
    local_addr: Option<std::net::SocketAddr>,
}

/// A warm verification daemon bound to a socket.
pub struct Server {
    listener: Listener,
    inner: Arc<Mutex<Inner>>,
    local_addr: Option<std::net::SocketAddr>,
}

impl Server {
    /// Binds the socket and restores warm state from the state directory
    /// (if any). Returns the server plus restore warnings for logging.
    pub fn bind(config: ServerConfig) -> std::io::Result<(Server, Vec<String>)> {
        // A learn frame without `threads` takes this value, and every
        // thread is a spawn.
        let default_threads = request::default_threads(config.threads)
            .map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))?;
        let (listener, local_addr) = match &config.bind {
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let a = l.local_addr()?;
                (Listener::Tcp(l), Some(a))
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                // A stale socket file from a previous run blocks bind.
                let _ = std::fs::remove_file(path);
                (
                    Listener::Unix(std::os::unix::net::UnixListener::bind(path)?),
                    None,
                )
            }
            #[cfg(not(unix))]
            Bind::Unix(_) => {
                return Err(std::io::Error::other(
                    "unix sockets are not supported on this target",
                ))
            }
        };
        let mut state = ServeState::new(config.state_dir.clone());
        let (summary, warnings) = state.restore();
        hh_trace::event!("serve", "serve.boot");
        let mut notes = warnings;
        if summary.jobs > 0 {
            notes.push(format!(
                "restored {} design(s), {} job(s), {} memo entr(ies)",
                summary.designs, summary.jobs, summary.solutions
            ));
        }
        let inner = Inner {
            config,
            default_threads,
            state,
            counters: ServerCounters::default(),
            started: Instant::now(),
            since_checkpoint: 0,
            shutdown: false,
            local_addr,
        };
        Ok((
            Server {
                listener,
                inner: Arc::new(Mutex::new(inner)),
                local_addr,
            },
            notes,
        ))
    }

    /// The bound TCP address (useful after binding to port 0).
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.local_addr
    }

    /// Accepts connections until a `shutdown` request arrives, spawning one
    /// thread per connection. The final checkpoint is written by the
    /// `shutdown` handler *before* its response frame, so a client that saw
    /// the acknowledgement can rely on the state directory being current.
    pub fn run(self) -> std::io::Result<ServerCounters> {
        let bind = {
            let inner = self.inner.lock().unwrap();
            inner.config.bind.clone()
        };
        loop {
            match &self.listener {
                Listener::Tcp(l) => {
                    let (stream, _) = l.accept()?;
                    if self.inner.lock().unwrap().shutdown {
                        break;
                    }
                    // Learn responses can lag requests by minutes; never
                    // let the OS batch half-frames.
                    stream.set_nodelay(true).ok();
                    let inner = Arc::clone(&self.inner);
                    std::thread::spawn(move || serve_connection(stream, inner));
                }
                #[cfg(unix)]
                Listener::Unix(l) => {
                    let (stream, _) = l.accept()?;
                    if self.inner.lock().unwrap().shutdown {
                        break;
                    }
                    let inner = Arc::clone(&self.inner);
                    std::thread::spawn(move || serve_connection(stream, inner));
                }
            }
        }
        if let Bind::Unix(path) = &bind {
            let _ = std::fs::remove_file(path);
        }
        let counters = self.inner.lock().unwrap().counters;
        Ok(counters)
    }
}

/// Serves one connection to completion. Requests are handled one frame at a
/// time; the state lock is taken per request, not per connection. Every
/// answered frame counts once in `requests` (and `serve.request`), a bad
/// one in `errors` too.
fn serve_connection(mut stream: impl Read + Write, inner: Arc<Mutex<Inner>>) {
    loop {
        let frame = read_frame(&mut stream);
        if let Err(FrameError::Eof) = frame {
            return;
        }
        let (resp, shutdown) = {
            let mut g = inner.lock().unwrap();
            g.counters.requests += 1;
            hh_trace::counter!("serve", "serve.request", 1);
            let (resp, shutdown) = match &frame {
                Ok(frame) => g.dispatch(frame),
                Err(FrameError::BadJson(msg)) => {
                    (err_response(0, "", ErrorCode::BadJson, msg), false)
                }
                Err(e) => (
                    err_response(0, "", ErrorCode::BadJson, &e.to_string()),
                    false,
                ),
            };
            if resp.get("ok") == Some(&Json::Bool(false)) {
                g.counters.errors += 1;
                hh_trace::counter!("serve", "serve.error", 1);
            }
            if shutdown {
                g.shutdown = true;
            }
            (resp, shutdown)
        };
        // After a too-large or cut-off frame the stream position is
        // unknown, so the connection cannot continue; a bad-json frame
        // leaves the framing intact.
        let lost_framing = matches!(frame, Err(FrameError::TooLarge(_) | FrameError::Io(_)));
        if write_frame(&mut stream, &resp).is_err() || lost_framing {
            return;
        }
        if shutdown {
            wake_acceptor(&inner);
            return;
        }
    }
}

/// Wakes the blocking accept loop after shutdown by making (and dropping) a
/// throwaway connection to our own listener.
fn wake_acceptor(inner: &Arc<Mutex<Inner>>) {
    let (addr, bind) = {
        let g = inner.lock().unwrap();
        (g.local_addr, g.config.bind.clone())
    };
    match bind {
        Bind::Tcp(_) => {
            if let Some(a) = addr {
                let _ = std::net::TcpStream::connect(a);
            }
        }
        #[cfg(unix)]
        Bind::Unix(path) => {
            let _ = std::os::unix::net::UnixStream::connect(path);
        }
        #[cfg(not(unix))]
        Bind::Unix(_) => {}
    }
}

impl Inner {
    /// Dispatches one request frame; returns the response and whether the
    /// daemon should shut down.
    fn dispatch(&mut self, frame: &Json) -> (Json, bool) {
        let id = frame.get("id").and_then(Json::as_i64).unwrap_or(0);
        let op = frame
            .get("op")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        match frame.get("v").and_then(Json::as_i64) {
            Some(v) if v == PROTOCOL_VERSION => {}
            got => {
                let msg = match got {
                    Some(v) => format!("protocol version {v} != {PROTOCOL_VERSION}"),
                    None => "missing protocol version field v".to_string(),
                };
                return (err_response(id, &op, ErrorCode::BadVersion, &msg), false);
            }
        }
        match op.as_str() {
            "learn" | "verify" => {
                let verify = op == "verify";
                let resp = match self.handle_learn(frame, verify) {
                    Ok(fields) => {
                        if verify {
                            self.counters.verifies += 1;
                        } else {
                            self.counters.learns += 1;
                        }
                        self.since_checkpoint += 1;
                        if self.config.checkpoint_every > 0
                            && self.since_checkpoint >= self.config.checkpoint_every
                        {
                            let _ = self.checkpoint_now();
                        }
                        ok_response(id, &op, fields)
                    }
                    Err((code, msg)) => err_response(id, &op, code, &msg),
                };
                (resp, false)
            }
            "status" => (ok_response(id, &op, self.status_fields()), false),
            "flush" => {
                let scope = frame.get("scope").and_then(Json::as_str).unwrap_or("memo");
                let design = frame.get("design").and_then(Json::as_str);
                let resp = match self.state.flush(scope, design) {
                    Ok((designs, jobs, entries)) => {
                        hh_trace::counter!("serve", "serve.flush", 1);
                        ok_response(
                            id,
                            &op,
                            vec![
                                ("designs_dropped", Json::Int(designs as i64)),
                                ("jobs_cleared", Json::Int(jobs as i64)),
                                ("entries_dropped", Json::Int(entries as i64)),
                            ],
                        )
                    }
                    Err((code, msg)) => err_response(id, &op, code, &msg),
                };
                (resp, false)
            }
            "checkpoint" => {
                let resp = match self.checkpoint_now() {
                    Ok(s) => ok_response(
                        id,
                        &op,
                        vec![
                            ("designs", Json::Int(s.designs as i64)),
                            ("jobs", Json::Int(s.jobs as i64)),
                            ("solutions", Json::Int(s.solutions as i64)),
                        ],
                    ),
                    Err(e) => err_response(id, &op, ErrorCode::Internal, &e.to_string()),
                };
                (resp, false)
            }
            "shutdown" => {
                // Checkpoint before acknowledging: a client that saw the ok
                // may immediately restart the daemon from the state dir.
                let resp = match self.checkpoint_now() {
                    Ok(_) => {
                        hh_trace::event!("serve", "serve.shutdown");
                        ok_response(id, &op, vec![])
                    }
                    Err(e) => err_response(id, &op, ErrorCode::Internal, &e.to_string()),
                };
                (resp, true)
            }
            other => (
                err_response(
                    id,
                    other,
                    ErrorCode::BadRequest,
                    &format!("unknown op {other:?}"),
                ),
                false,
            ),
        }
    }

    fn handle_learn(
        &mut self,
        frame: &Json,
        verify: bool,
    ) -> Result<Vec<(&'static str, Json)>, (ErrorCode, String)> {
        let design_json = frame
            .get("design")
            .ok_or((ErrorCode::BadRequest, "design is required".to_string()))?;
        let spec = DesignSpec::from_json(design_json)?;
        let key = JobKey::from_json(frame)?;
        let opts = RunOptions::from_json(frame, self.default_threads, verify)?;
        let started = Instant::now();
        let outcome = self.state.learn(spec, key, opts)?;
        if outcome.counters.memo_seeded > 0 && outcome.counters.smt_queries == 0 {
            self.counters.warm_hits += 1;
        }
        Ok(outcome_fields(
            &outcome,
            started.elapsed().as_millis() as i64,
        ))
    }

    fn checkpoint_now(&mut self) -> std::io::Result<CheckpointSummary> {
        let s = self.state.checkpoint()?;
        self.counters.checkpoints += 1;
        self.since_checkpoint = 0;
        Ok(s)
    }

    fn status_fields(&self) -> Vec<(&'static str, Json)> {
        let c = &self.counters;
        let mut designs = Vec::new();
        let mut names: Vec<&String> = self.state.designs.keys().collect();
        names.sort();
        for name in names {
            let entry = &self.state.designs[name];
            let mut jobs = Vec::new();
            let mut ids: Vec<&String> = entry.jobs.keys().collect();
            ids.sort();
            for id in ids {
                let job = &entry.jobs[id];
                let cache = job.cache.stats();
                jobs.push(Json::obj(vec![
                    ("id", Json::Str(id.clone())),
                    ("key", Json::Str(job.key.key_string())),
                    ("proved", Json::Bool(job.invariant.is_some())),
                    ("solutions", Json::Int(job.solutions.len() as i64)),
                    ("num_examples", Json::Int(job.num_examples as i64)),
                    ("cache_hits", Json::Int(cache.hits as i64)),
                    ("cache_misses", Json::Int(cache.misses as i64)),
                ]));
            }
            designs.push(Json::obj(vec![
                ("name", Json::Str(name.to_string())),
                (
                    "fingerprint",
                    Json::Str(format!("{:016x}", entry.fingerprint)),
                ),
                ("jobs", Json::Arr(jobs)),
            ]));
        }
        vec![
            (
                "uptime_ms",
                Json::Int(self.started.elapsed().as_millis() as i64),
            ),
            ("requests", Json::Int(c.requests as i64)),
            ("errors", Json::Int(c.errors as i64)),
            ("learns", Json::Int(c.learns as i64)),
            ("verifies", Json::Int(c.verifies as i64)),
            ("warm_hits", Json::Int(c.warm_hits as i64)),
            ("checkpoints", Json::Int(c.checkpoints as i64)),
            (
                "state_dir",
                match &self.config.state_dir {
                    Some(d) => Json::Str(d.display().to_string()),
                    None => Json::Null,
                },
            ),
            ("designs", Json::Arr(designs)),
        ]
    }
}

/// Serializes a [`LearnOutcome`] into response fields (SERVE.md §3.3).
fn outcome_fields(outcome: &LearnOutcome, elapsed_ms: i64) -> Vec<(&'static str, Json)> {
    let c = &outcome.counters;
    let (result, diverged_at) = match outcome.result {
        LearnResult::Proved => ("proved", Json::Null),
        LearnResult::Unprovable => ("unprovable", Json::Null),
        LearnResult::Diverged(cycle) => ("diverged", Json::Int(cycle as i64)),
    };
    vec![
        ("result", Json::Str(result.to_string())),
        ("diverged_at", diverged_at),
        (
            "invariant",
            Json::Arr(outcome.invariant.iter().cloned().map(Json::Str).collect()),
        ),
        ("invariant_size", Json::Int(outcome.invariant.len() as i64)),
        ("num_examples", Json::Int(outcome.num_examples as i64)),
        ("memo_seeded", Json::Int(c.memo_seeded as i64)),
        ("memo_reused", Json::Int(c.memo_reused as i64)),
        ("invalidated", Json::Int(c.invalidated as i64)),
        ("relearned", Json::Int(c.relearned as i64)),
        ("smt_queries", Json::Int(c.smt_queries as i64)),
        ("cache_hits", Json::Int(c.cache_hits as i64)),
        ("cache_misses", Json::Int(c.cache_misses as i64)),
        (
            "warm_hit",
            Json::Bool(c.memo_seeded > 0 && c.smt_queries == 0),
        ),
        (
            "certificate",
            match &outcome.certificate {
                Some(p) => Json::Str(p.display().to_string()),
                None => Json::Null,
            },
        ),
        ("elapsed_ms", Json::Int(elapsed_ms)),
    ]
}
