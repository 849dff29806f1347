//! TCP front-end wrapping the [`Engine`]: an acceptor thread plus client
//! readers, speaking the length-prefixed frame protocol of
//! [`crate::proto`].
//!
//! Two reader topologies share one request-dispatch path:
//!
//! * **Thread-per-connection** (the default) — one blocking reader
//!   thread per client, simple and fair at small client counts.
//! * **Poll-based multiplexing** ([`ServerOptions::mux`]) — *one* reader
//!   thread services every client socket via `poll(2)` (the
//!   [`crate::sys`] shim), so client counts can outgrow the thread
//!   budget. Sockets are non-blocking; inbound bytes accumulate in a
//!   per-connection buffer from which complete frames are peeled.
//!
//! The acceptor never blocks on query execution: a request either lands
//! in the client's bounded queue or is rejected immediately with a typed
//! error by [`EngineHandle::submit`]. Responses are written by whichever
//! thread produced them (a lane for query results, the reader for
//! control requests) under a per-client writer lock, so a query result
//! and a `Stats` reply never interleave mid-frame; the lock recovers
//! from poisoning ([`crate::engine`]'s fault-containment argument), and
//! the writer rides out `WouldBlock` on the mux path's non-blocking
//! sockets by waiting for `POLLOUT`.
//!
//! Shutdown wakes the blocked `accept(2)` by shutting down the listening
//! socket itself — the previous design connected to its own port, which
//! raced real clients (the wake-up could be consumed by a concurrent
//! connect, leaving the acceptor blocked, or admit a client post-drain).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use df_obs::{Path, Tracer};

use crate::engine::{Engine, EngineHandle};
use crate::proto::{encode_frame, read_frame, Request, Response, ServeError, MAX_FRAME};
#[cfg(unix)]
use crate::sys;

/// How long the mux reader sleeps in `poll(2)` before re-checking for
/// newly accepted clients and the stopping flag.
const MUX_POLL_MS: i32 = 25;

/// Front-end topology options for [`Server::start_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerOptions {
    /// Service all client sockets from one poll-based reader thread
    /// instead of one blocking thread per connection (Unix only).
    pub mux: bool,
}

/// The write half of one client connection. Frames are written whole
/// under the surrounding mutex; on a non-blocking socket (mux mode) a
/// short write parks on `POLLOUT` until the send buffer drains.
struct ClientWriter {
    stream: TcpStream,
}

impl ClientWriter {
    /// Write one whole frame ([`encode_frame`]), riding out partial writes.
    fn send_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        let mut off = 0;
        while off < frame.len() {
            match self.stream.write(&frame[off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                #[cfg(unix)]
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    sys::wait_writable(self.stream.as_raw_fd())?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// State shared by the acceptor, the reader threads, and shutdown.
struct ServerShared {
    handle: EngineHandle,
    trace: Option<Arc<Tracer>>,
    stopping: AtomicBool,
    addr: SocketAddr,
    /// A dup of the acceptor's listener (same open file description),
    /// kept so shutdown can fail a blocked `accept()` without racing the
    /// acceptor thread's own handle.
    listener: TcpListener,
}

/// Encode `response` as one frame. A reply too large to frame is replaced
/// by a [`ServeError::TooLarge`] error for the same request id: the client
/// learns why, and the stream stays in step (a truncated or wrapped length
/// prefix would desynchronize every later frame on the connection).
fn response_frame(response: &Response) -> Vec<u8> {
    let payload = response.encode();
    encode_frame(&payload).unwrap_or_else(|_| {
        let id = match response {
            Response::Result(r) => r.id,
            Response::Error { id, .. } => *id,
            Response::Stats(_) | Response::Relations(_) | Response::Ok => 0,
        };
        let error = ServeError::TooLarge {
            bytes: payload.len() as u64,
        };
        encode_frame(&Response::Error { id, error }.encode()).expect("an error reply fits a frame")
    })
}

impl ServerShared {
    /// Encode and write one response frame, tallying outbound bytes.
    /// Write errors mean the client vanished; the reader thread will
    /// notice on its side, so they are swallowed here.
    fn send(&self, writer: &Mutex<ClientWriter>, client: usize, response: &Response) {
        let frame = response_frame(response);
        let payload_len = (frame.len() - 4) as u64;
        self.handle
            .stats()
            .bytes_out
            .fetch_add(payload_len, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.transfer(Path::ClientOut, client as u32, payload_len);
        }
        // Poison recovery: a panicking writer leaves at worst a torn
        // frame on one client's socket (that client's reader then drops
        // the connection); other threads keep answering their clients.
        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.send_frame(&frame);
    }

    /// Begin server shutdown: stop admitting, wake the acceptor, let the
    /// dispatcher drain what is queued.
    fn begin_shutdown(&self) {
        self.handle.shutdown();
        if self.stopping.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        // Fail the blocked `accept()` by shutting down the listening
        // socket — race-free, unlike the old self-connect wake-up (a
        // real client could consume the wake, or the connect could fail
        // and leave the acceptor blocked forever).
        #[cfg(unix)]
        let _ = sys::shutdown_socket(self.listener.as_raw_fd());
        #[cfg(not(unix))]
        let _ = TcpStream::connect(self.addr);
    }

    /// Decode and dispatch one inbound frame payload for `client`,
    /// answering on `writer`. Shared by both reader topologies.
    fn handle_payload(
        self: &Arc<Self>,
        client: usize,
        writer: &Arc<Mutex<ClientWriter>>,
        payload: &[u8],
    ) {
        self.handle
            .stats()
            .bytes_in
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.transfer(Path::ClientIn, client as u32, payload.len() as u64);
        }
        let request = match Request::decode(payload) {
            Ok(r) => r,
            Err(e) => {
                // Framing is still intact (length prefix), so answer the
                // malformed request and keep serving the connection.
                self.send(
                    writer,
                    client,
                    &Response::Error {
                        id: 0,
                        error: ServeError::Protocol {
                            detail: e.to_string(),
                        },
                    },
                );
                return;
            }
        };
        match request {
            Request::Query {
                id,
                priority,
                optimize,
                text,
            } => {
                let cb_shared = Arc::clone(self);
                let cb_writer = Arc::clone(writer);
                self.handle.submit(
                    client,
                    id,
                    priority,
                    optimize,
                    text,
                    Box::new(move |response| cb_shared.send(&cb_writer, client, &response)),
                );
            }
            Request::InstallView { id, name, text } => {
                let cb_shared = Arc::clone(self);
                let cb_writer = Arc::clone(writer);
                self.handle.install_view(
                    client,
                    id,
                    name,
                    text,
                    Box::new(move |response| cb_shared.send(&cb_writer, client, &response)),
                );
            }
            Request::DropView { id, name } => {
                let cb_shared = Arc::clone(self);
                let cb_writer = Arc::clone(writer);
                self.handle.drop_view(
                    client,
                    id,
                    name,
                    Box::new(move |response| cb_shared.send(&cb_writer, client, &response)),
                );
            }
            Request::ReadView { id, name } => {
                let cb_shared = Arc::clone(self);
                let cb_writer = Arc::clone(writer);
                self.handle.read_view(
                    client,
                    id,
                    name,
                    Box::new(move |response| cb_shared.send(&cb_writer, client, &response)),
                );
            }
            Request::Stats => {
                let rows = self.handle.stats().rows();
                self.send(writer, client, &Response::Stats(rows));
            }
            Request::Relations => {
                let rows = self.handle.relations();
                self.send(writer, client, &Response::Relations(rows));
            }
            Request::Ping => {
                self.send(writer, client, &Response::Ok);
            }
            Request::Shutdown => {
                self.send(writer, client, &Response::Ok);
                self.begin_shutdown();
            }
        }
    }
}

/// A running df-serve instance: engine dispatcher + acceptor + client
/// readers. Dropping the struct does not stop it; call [`Server::join`]
/// after a shutdown request, or [`Server::shutdown`] to initiate one.
pub struct Server {
    shared: Arc<ServerShared>,
    acceptor: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Start serving `engine` on `listener` with one blocking reader
    /// thread per connection. The listener may be bound to port 0;
    /// [`Server::local_addr`] reports the resolved address.
    ///
    /// # Errors
    /// Propagates listener address lookup failures.
    pub fn start(listener: TcpListener, engine: Engine) -> io::Result<Server> {
        Server::start_with(listener, engine, ServerOptions::default())
    }

    /// [`Server::start`] with an explicit front-end topology.
    ///
    /// # Errors
    /// Propagates listener address/dup failures; rejects
    /// [`ServerOptions::mux`] on non-Unix platforms.
    pub fn start_with(
        listener: TcpListener,
        engine: Engine,
        options: ServerOptions,
    ) -> io::Result<Server> {
        if options.mux && cfg!(not(unix)) {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "--mux requires poll(2) (unix only)",
            ));
        }
        let shared = Arc::new(ServerShared {
            handle: engine.handle(),
            trace: engine.trace(),
            stopping: AtomicBool::new(false),
            addr: listener.local_addr()?,
            listener: listener.try_clone()?,
        });
        let dispatcher = thread::Builder::new()
            .name("serve-dispatch".into())
            .spawn(move || engine.run())
            .expect("spawn dispatcher");
        let mux_tx = if options.mux {
            let (tx, rx) = std::sync::mpsc::channel();
            let shared = Arc::clone(&shared);
            // Detached like the per-client readers: exits when the
            // acceptor is gone and the last client hangs up.
            let _ = thread::Builder::new()
                .name("serve-mux".into())
                .spawn(move || mux_loop(&rx, &shared));
            Some(tx)
        } else {
            None
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared, mux_tx))
                .expect("spawn acceptor")
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A submission-side handle to the engine (stats, shutdown).
    pub fn handle(&self) -> EngineHandle {
        self.shared.handle.clone()
    }

    /// Initiate shutdown from the host process (equivalent to a client
    /// sending [`Request::Shutdown`]).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the acceptor and dispatcher to exit. Reader threads for
    /// still-connected clients are detached; they exit when their client
    /// hangs up or on the next request (answered `ShuttingDown`).
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    mux_tx: Option<Sender<MuxConn>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // `begin_shutdown` shut the listening socket down, or a
                // transient per-connection error (ECONNABORTED) fired.
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stopping.load(Ordering::SeqCst) {
            // A client racing shutdown; drop it unserved.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        // Results are latency-sensitive small frames; never let Nagle
        // batch them behind the peer's delayed ACK.
        stream.set_nodelay(true).ok();
        let client = shared.handle.register_client();
        match &mux_tx {
            Some(tx) => {
                // Hand the socket to the mux reader. Non-blocking: the
                // reader and any writer (lane fan-out) share the file
                // description, so neither may ever block in the kernel.
                if stream.set_nonblocking(true).is_err() {
                    shared.handle.close_client(client);
                    continue;
                }
                match MuxConn::new(stream, client) {
                    Some(conn) => {
                        if tx.send(conn).is_err() {
                            shared.handle.close_client(client);
                        }
                    }
                    None => shared.handle.close_client(client),
                }
            }
            None => {
                let shared = Arc::clone(shared);
                // Detached on purpose: the thread exits when the client
                // hangs up.
                let _ = thread::Builder::new()
                    .name(format!("serve-client-{client}"))
                    .spawn(move || client_loop(stream, client, &shared));
            }
        }
    }
}

/// One reader thread: decode frames, dispatch requests, reply. Exits on
/// client EOF or an unreadable stream.
fn client_loop(stream: TcpStream, client: usize, shared: &Arc<ServerShared>) {
    let writer = match stream.try_clone() {
        Ok(stream) => Arc::new(Mutex::new(ClientWriter { stream })),
        Err(_) => {
            shared.handle.close_client(client);
            return;
        }
    };
    let mut reader = io::BufReader::new(stream);
    // Clean EOF and a torn connection end the loop alike: either way the
    // client is gone and its queued work is dropped.
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        shared.handle_payload(client, &writer, &payload);
    }
    shared.handle.close_client(client);
}

// ------------------------------------------------------------------- mux

/// One multiplexed connection: the non-blocking read half plus the
/// frame-reassembly buffer, and the shared write half.
struct MuxConn {
    stream: TcpStream,
    client: usize,
    writer: Arc<Mutex<ClientWriter>>,
    /// Inbound bytes not yet forming a complete frame.
    inbound: VecDeque<u8>,
}

impl MuxConn {
    fn new(stream: TcpStream, client: usize) -> Option<MuxConn> {
        let writer = stream.try_clone().ok()?;
        Some(MuxConn {
            stream,
            client,
            writer: Arc::new(Mutex::new(ClientWriter { stream: writer })),
            inbound: VecDeque::new(),
        })
    }

    /// Pop one complete frame payload off the head of `inbound`.
    /// `Err(())` means the peer sent an oversized length prefix — the
    /// connection is unrecoverable (framing is lost).
    fn take_frame(&mut self) -> Result<Option<Vec<u8>>, ()> {
        if self.inbound.len() < 4 {
            return Ok(None);
        }
        let mut len = [0u8; 4];
        for (i, b) in self.inbound.iter().take(4).enumerate() {
            len[i] = *b;
        }
        let len = u32::from_be_bytes(len) as usize;
        if len > MAX_FRAME {
            return Err(());
        }
        if self.inbound.len() < 4 + len {
            return Ok(None);
        }
        self.inbound.drain(..4);
        Ok(Some(self.inbound.drain(..len).collect()))
    }
}

/// The single mux reader: `poll(2)` over every connected client, drain
/// readable sockets, peel complete frames, dispatch. Exits once the
/// acceptor is gone (shutdown) and the last client has hung up.
#[cfg_attr(not(unix), allow(unused_variables, unreachable_code))]
fn mux_loop(rx: &Receiver<MuxConn>, shared: &Arc<ServerShared>) {
    #[cfg(not(unix))]
    return; // start_with rejects mux off-unix; nothing to do.
    #[cfg(unix)]
    {
        let mut conns: Vec<MuxConn> = Vec::new();
        let mut acceptor_gone = false;
        loop {
            // Admit newly accepted clients without blocking the served ones.
            loop {
                match rx.try_recv() {
                    Ok(conn) => {
                        shared
                            .handle
                            .stats()
                            .mux_clients
                            .fetch_add(1, Ordering::Relaxed);
                        conns.push(conn);
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        acceptor_gone = true;
                        break;
                    }
                }
            }
            if conns.is_empty() {
                if acceptor_gone {
                    return;
                }
                // Idle: park on the channel instead of spinning in poll.
                match rx.recv_timeout(Duration::from_millis(MUX_POLL_MS as u64)) {
                    Ok(conn) => {
                        shared
                            .handle
                            .stats()
                            .mux_clients
                            .fetch_add(1, Ordering::Relaxed);
                        conns.push(conn);
                    }
                    Err(_) => continue,
                }
            }
            let mut fds: Vec<sys::PollFd> = conns
                .iter()
                .map(|c| sys::PollFd::new(c.stream.as_raw_fd(), sys::POLLIN))
                .collect();
            let ready = match sys::poll_fds(&mut fds, MUX_POLL_MS) {
                Ok(n) => n,
                Err(_) => continue,
            };
            if ready == 0 {
                continue;
            }
            let mut closed: Vec<usize> = Vec::new();
            for (i, pfd) in fds.iter().enumerate() {
                if pfd.revents == 0 {
                    continue;
                }
                if !drain_mux_conn(&mut conns[i], shared) {
                    closed.push(i);
                }
            }
            // Remove back-to-front so earlier indices stay valid.
            for &i in closed.iter().rev() {
                let conn = conns.swap_remove(i);
                shared.handle.close_client(conn.client);
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
    }
}

/// Drain every byte currently readable on `conn`, dispatching complete
/// frames. Returns `false` once the connection is finished (EOF, error,
/// or lost framing).
fn drain_mux_conn(conn: &mut MuxConn, shared: &Arc<ServerShared>) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    let open = loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => break false, // EOF
            Ok(n) => conn.inbound.extend(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break false,
        }
    };
    loop {
        match conn.take_frame() {
            Ok(Some(payload)) => shared.handle_payload(conn.client, &conn.writer, &payload),
            Ok(None) => break,
            Err(()) => return false,
        }
    }
    open
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_reply_becomes_too_large_and_the_stream_stays_in_step() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let mut writer = ClientWriter { stream };
        // A reply whose payload exceeds MAX_FRAME, then an ordinary one on
        // the same connection, read on another thread so neither write
        // can wait on a full socket buffer.
        let huge = Response::Error {
            id: 7,
            error: ServeError::Parse {
                detail: "x".repeat(MAX_FRAME),
            },
        };
        let reader = thread::spawn(move || {
            let mut next = || {
                let payload = read_frame(&mut client).expect("read").expect("frame");
                Response::decode(&payload).expect("decodes")
            };
            (next(), next())
        });
        writer.send_frame(&response_frame(&huge)).expect("send");
        writer
            .send_frame(&response_frame(&Response::Ok))
            .expect("send");
        let (first, second) = reader.join().expect("reader");
        match first {
            Response::Error {
                id: 7,
                error: ServeError::TooLarge { bytes },
            } => assert!(bytes > MAX_FRAME as u64, "{bytes}"),
            other => panic!("expected TooLarge for id 7, got {other:?}"),
        }
        assert_eq!(second, Response::Ok, "the next frame is intact");
    }
}
