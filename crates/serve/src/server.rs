//! The connection engine: admission, readiness, workers, drain.
//!
//! Threads on Linux:
//!
//! - **acceptor** — blocking `accept`. Over [`ServeConfig::max_conns`]
//!   live connections it sheds the newcomer with an immediate `429` and
//!   closes — explicit backpressure instead of an unbounded queue.
//!   Admitted sockets get read/write timeouts and are registered with the
//!   poller one-shot.
//! - **poll** — `epoll_wait` loop. A readable connection is *taken out*
//!   of the shared table and pushed onto the bounded ready queue; the
//!   one-shot registration guarantees no second event can arrive while a
//!   worker owns the socket.
//! - **workers** — pop a ready connection, read one request (socket
//!   timeouts bound slow clients), dispatch through [`api::handle`],
//!   then either continue with pipelined bytes already buffered or
//!   re-arm the socket and put it back in the table.
//!
//! Shutdown drains gracefully: the flag flips, the acceptor is unblocked
//! by a self-connect, the poll thread by a wake pipe, and workers finish
//! every request already on the ready queue before exiting; idle
//! keep-alive connections are then closed.
//!
//! Non-Linux targets fall back to one thread per connection with the
//! same admission, timeout and drain behavior.

use crate::api::{self, AppState};
use crate::http::{self, HttpError};
use crate::tenant::TenantGov;
use ats_core::Error;
use ats_harness::Session;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
use crate::poll::Poller;
#[cfg(target_os = "linux")]
use std::os::fd::AsRawFd;

/// Token reserved for the shutdown wake channel.
#[cfg(target_os = "linux")]
const WAKE_TOKEN: u64 = u64::MAX;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Live-connection ceiling; newcomers past it are shed with 429.
    pub max_conns: usize,
    /// Request worker threads (`0` = auto).
    pub workers: usize,
    /// Per-tenant in-flight request cap.
    pub tenant_inflight: usize,
    /// Socket read/write timeout bounding one request exchange.
    pub request_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_conns: 2048,
            workers: 0,
            tenant_inflight: 256,
            request_timeout: Duration::from_secs(10),
        }
    }
}

fn default_workers() -> usize {
    thread::available_parallelism()
        .map_or(4, |n| n.get() * 4)
        .clamp(4, 64)
}

/// One admitted connection and its buffered pipeline bytes.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    leftover: Vec<u8>,
}

#[derive(Debug)]
struct Inner {
    state: AppState,
    max_conns: usize,
    shutdown: AtomicBool,
    /// Live (admitted, not yet closed) connections.
    live: AtomicUsize,
    /// Connections currently on the ready queue or inside a worker.
    inflight: AtomicUsize,
    /// Idle connections parked in the poller, keyed by fd token.
    conns: Mutex<HashMap<u64, Conn>>,
    ready: Mutex<VecDeque<Conn>>,
    ready_cv: Condvar,
    #[cfg(target_os = "linux")]
    poller: Poller,
    #[cfg(target_os = "linux")]
    waker: Mutex<std::os::unix::net::UnixStream>,
}

impl Inner {
    fn obs(&self) -> Option<&ats_obs::Handle> {
        self.state.session.obs()
    }

    fn close_conn(&self, conn: Conn) {
        drop(conn);
        let live = self.live.fetch_sub(1, Ordering::SeqCst) - 1;
        if let Some(h) = self.obs() {
            h.serve.connections.set(live as u64);
        }
    }
}

/// A running service; keep it alive for as long as the server should
/// accept requests, then call [`ServerHandle::shutdown`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session requests execute under.
    pub fn session(&self) -> &Session {
        &self.inner.state.session
    }

    /// Live connections right now.
    pub fn live_connections(&self) -> usize {
        self.inner.live.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop accepting, finish every request already
    /// admitted to the ready queue, close idle keep-alive connections,
    /// join all service threads.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept().
        let _ = TcpStream::connect(self.addr);
        // Unblock the poll thread's epoll_wait().
        #[cfg(target_os = "linux")]
        {
            use io::Write;
            let _ = self.inner.waker.lock().unwrap().write_all(b"w");
        }
        self.inner.ready_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Whatever is still parked was idle; close it.
        let parked: Vec<Conn> = self
            .inner
            .conns
            .lock()
            .unwrap()
            .drain()
            .map(|(_, c)| c)
            .collect();
        for conn in parked {
            self.inner.close_conn(conn);
        }
    }
}

/// Bind, spawn the service threads, return the handle.
pub fn start(session: Session, config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let gov = TenantGov::new(config.tenant_inflight);
    let state = AppState::new(session, gov);
    let workers = if config.workers == 0 {
        default_workers()
    } else {
        config.workers
    };
    let timeout = config.request_timeout;

    #[cfg(target_os = "linux")]
    {
        widen_backlog(&listener, config.max_conns)?;
        let poller = Poller::new()?;
        let (wake_r, wake_w) = std::os::unix::net::UnixStream::pair()?;
        wake_r.set_nonblocking(true)?;
        poller.add_level(wake_r.as_raw_fd(), WAKE_TOKEN)?;
        let inner = Arc::new(Inner {
            state,
            max_conns: config.max_conns.max(1),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            poller,
            waker: Mutex::new(wake_w),
        });
        let mut threads = Vec::with_capacity(workers + 2);
        let p = Arc::clone(&inner);
        threads.push(
            thread::Builder::new()
                .name("ats-serve-poll".into())
                .spawn(move || poll_loop(&p, wake_r))?,
        );
        for i in 0..workers {
            let w = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name(format!("ats-serve-worker-{i}"))
                    .spawn(move || worker_loop(&w))?,
            );
        }
        let a = Arc::clone(&inner);
        threads.push(
            thread::Builder::new()
                .name("ats-serve-accept".into())
                .spawn(move || accept_loop(&a, &listener, timeout))?,
        );
        Ok(ServerHandle {
            addr,
            inner,
            threads,
        })
    }

    #[cfg(not(target_os = "linux"))]
    {
        let _ = workers;
        let inner = Arc::new(Inner {
            state,
            max_conns: config.max_conns.max(1),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
        });
        let a = Arc::clone(&inner);
        let threads = vec![thread::Builder::new()
            .name("ats-serve-accept".into())
            .spawn(move || accept_blocking(&a, &listener, timeout))?];
        Ok(ServerHandle {
            addr,
            inner,
            threads,
        })
    }
}

#[cfg(target_os = "linux")]
unsafe extern "C" {
    fn listen(fd: i32, backlog: i32) -> i32;
}

/// Listen again with a backlog of `max_conns` (std listens with 128; the
/// kernel caps the value at `somaxconn`), so a burst of up to `max_conns`
/// clients waits in the accept queue instead of losing SYNs that the
/// clients retransmit only a second later.
#[cfg(target_os = "linux")]
fn widen_backlog(listener: &TcpListener, max_conns: usize) -> io::Result<()> {
    let backlog = i32::try_from(max_conns.max(1)).unwrap_or(i32::MAX);
    // SAFETY: `listen` reads only its two integer arguments, and the fd
    // is the listener's, which the borrow keeps open during the call.
    if unsafe { listen(listener.as_raw_fd(), backlog) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Answer a shed connection with 429 and close it (short write timeout —
/// a stalled peer must not stall admission).
fn shed(inner: &Inner, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let err = Error::request("server is at its connection capacity");
    let body = crate::wire::error_body(&err);
    let _ = http::write_response(
        &mut stream,
        429,
        "application/json",
        &[],
        body.as_bytes(),
        false,
    );
    if let Some(h) = inner.obs() {
        h.serve.shed.inc();
    }
}

fn admit(inner: &Inner, stream: &TcpStream, timeout: Duration) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let live = inner.live.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(h) = inner.obs() {
        h.serve.connections.set(live as u64);
    }
    Ok(())
}

#[cfg(target_os = "linux")]
fn accept_loop(inner: &Inner, listener: &TcpListener, timeout: Duration) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if inner.live.load(Ordering::SeqCst) >= inner.max_conns {
            shed(inner, stream);
            continue;
        }
        if admit(inner, &stream, timeout).is_err() {
            continue;
        }
        let token = stream.as_raw_fd() as u64;
        inner.conns.lock().unwrap().insert(
            token,
            Conn {
                stream,
                leftover: Vec::new(),
            },
        );
        // Register after inserting so an instantly-readable socket finds
        // its table entry; the fd is valid for EPOLL_CTL_ADD because the
        // table now owns the stream.
        let fd = token as i32;
        if inner.poller.add_oneshot(fd, token).is_err() {
            if let Some(conn) = inner.conns.lock().unwrap().remove(&token) {
                inner.close_conn(conn);
            }
        }
    }
}

#[cfg(target_os = "linux")]
fn poll_loop(inner: &Inner, _wake_keepalive: std::os::unix::net::UnixStream) {
    let mut events = Vec::new();
    loop {
        events.clear();
        if inner.poller.wait(&mut events, -1).is_err() {
            return;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            // Workers drain what is already queued; unclaimed events are
            // idle connections, closed by ServerHandle::shutdown.
            inner.ready_cv.notify_all();
            return;
        }
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                continue;
            }
            let conn = inner.conns.lock().unwrap().remove(&ev.token);
            let Some(conn) = conn else { continue };
            let inflight = inner.inflight.fetch_add(1, Ordering::SeqCst) + 1;
            if let Some(h) = inner.obs() {
                h.serve.inflight_max.set_max(inflight as u64);
            }
            inner.ready.lock().unwrap().push_back(conn);
            inner.ready_cv.notify_one();
        }
    }
}

#[cfg(target_os = "linux")]
fn worker_loop(inner: &Inner) {
    loop {
        let conn = {
            let mut q = inner.ready.lock().unwrap();
            loop {
                if let Some(c) = q.pop_front() {
                    break Some(c);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = inner.ready_cv.wait(q).unwrap();
            }
        };
        let Some(conn) = conn else { return };
        drive(inner, conn);
        inner.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serve requests on one ready connection until its buffered bytes are
/// exhausted, then park it back in the poller (or close it).
#[cfg(target_os = "linux")]
fn drive(inner: &Inner, mut conn: Conn) {
    loop {
        match serve_one(inner, &mut conn) {
            Outcome::Close => return inner.close_conn(conn),
            Outcome::Continue => continue,
            Outcome::Park => return park(inner, conn),
        }
    }
}

#[cfg(target_os = "linux")]
fn park(inner: &Inner, conn: Conn) {
    let fd = conn.stream.as_raw_fd();
    let token = fd as u64;
    inner.conns.lock().unwrap().insert(token, conn);
    if inner.poller.rearm(fd, token).is_err() {
        if let Some(conn) = inner.conns.lock().unwrap().remove(&token) {
            inner.close_conn(conn);
        }
    }
}

enum Outcome {
    /// Another full request head is already buffered — serve it now.
    Continue,
    /// Wait for more bytes (re-arm in the poller on Linux).
    Park,
    Close,
}

/// Read and answer exactly one request (or one framing error) on `conn`.
fn serve_one(inner: &Inner, conn: &mut Conn) -> Outcome {
    match http::read_request(&mut conn.stream, &mut conn.leftover) {
        Ok(req) => {
            if let Some(h) = inner.obs() {
                h.serve.requests.inc();
            }
            let started = Instant::now();
            let keep = api::handle(&inner.state, &req, &mut conn.stream).unwrap_or(false);
            if let Some(h) = inner.obs() {
                h.serve
                    .request_time
                    .observe_ns(started.elapsed().as_nanos() as u64);
            }
            if !keep || inner.shutdown.load(Ordering::SeqCst) {
                Outcome::Close
            } else if http::find_head_end(&conn.leftover).is_some() {
                Outcome::Continue
            } else {
                Outcome::Park
            }
        }
        Err(HttpError::Eof) => Outcome::Close,
        Err(HttpError::Timeout) => {
            let _ = api::error_response(
                &inner.state,
                &mut conn.stream,
                408,
                &Error::request("request did not arrive within the timeout"),
                false,
            );
            Outcome::Close
        }
        Err(HttpError::BadRequest(msg)) => {
            let _ = api::error_response(
                &inner.state,
                &mut conn.stream,
                400,
                &Error::request(msg),
                false,
            );
            Outcome::Close
        }
        Err(HttpError::TooLarge(msg)) => {
            let _ = api::error_response(
                &inner.state,
                &mut conn.stream,
                413,
                &Error::request(msg),
                false,
            );
            Outcome::Close
        }
        Err(HttpError::Io(_)) => Outcome::Close,
    }
}

/// Fallback engine: one thread per connection, same admission and drain
/// semantics, no poller.
#[cfg(not(target_os = "linux"))]
fn accept_blocking(inner: &Arc<Inner>, listener: &TcpListener, timeout: Duration) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if inner.live.load(Ordering::SeqCst) >= inner.max_conns {
            shed(inner, stream);
            continue;
        }
        if admit(inner, &stream, timeout).is_err() {
            continue;
        }
        let inner = Arc::clone(inner);
        let _ = thread::Builder::new()
            .name("ats-serve-conn".into())
            .spawn(move || {
                let mut conn = Conn {
                    stream,
                    leftover: Vec::new(),
                };
                loop {
                    match serve_one(&inner, &mut conn) {
                        Outcome::Close => return inner.close_conn(conn),
                        Outcome::Continue | Outcome::Park => {
                            if inner.shutdown.load(Ordering::SeqCst) {
                                return inner.close_conn(conn);
                            }
                        }
                    }
                }
            });
    }
}
