//! The listener core shared by the PDU server and the HTTP sidecar.
//!
//! One accept thread blocks in `accept` and hands each connection to a
//! bounded [`BoundedQueue`]; a fixed worker pool blocks in
//! [`BoundedQueue::pop`] and serves connections one at a time. Nothing
//! on this path polls:
//!
//! * a connection wakes the accept thread, and the push wakes one
//!   worker, so a dial waits on no timer;
//! * when the queue is full the connection is shed at the door by the
//!   [`Service`] (`Error{Busy}` on the PDU server, `503` on the HTTP
//!   sidecar) instead of queueing without bound;
//! * [`ListenerCore::shutdown`] raises the shutdown flag and then wakes
//!   the blocked `accept` by dialling the listener's own address (an
//!   unspecified bind address is dialled on loopback). The accept
//!   thread checks the flag after every return from `accept`, so the
//!   wake-up connection is dropped, never served. Closing the queue then
//!   wakes every idle worker; queued connections are still served
//!   first (graceful drain);
//! * the accept thread sleeps only to back off after an accept error
//!   that is not about one connection (fd exhaustion and the like).
//!
//! A worker that is serving a live connection when shutdown starts
//! leaves at its service's next socket-read timeout tick (for the PDU
//! server, [`crate::WireConfig::read_timeout`]); waking those reads is
//! not done here.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::pool::{BoundedQueue, PushError};

/// Pause after an accept error that is not about a single connection
/// (for example `EMFILE`), so a persistent failure cannot spin the
/// accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Bound on the shutdown wake-up dial.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// What a listener core does with the connections it accepts. Every
/// method runs on a core thread and must never panic on client
/// misbehaviour.
pub(crate) trait Service: Send + Sync + 'static {
    /// Called on the accept thread for every accepted connection,
    /// before it is queued or shed.
    fn accepted(&self) {}

    /// The queue is full: tell the client and close (runs on the accept
    /// thread, so it must not wait on the client for long).
    fn shed(&self, stream: TcpStream);

    /// Serve one connection to completion (runs on a worker).
    fn serve(&self, stream: TcpStream);
}

/// The accepted-connection queue and the shutdown flag of one core,
/// shared with its service so it can answer `pmcd.queue.depth` and stop
/// a live connection at its next read tick.
pub(crate) struct Backlog {
    queue: BoundedQueue<TcpStream>,
    shutdown: AtomicBool,
}

impl Backlog {
    /// A backlog holding at most `pending` connections (minimum 1).
    pub(crate) fn new(pending: usize) -> Arc<Self> {
        Arc::new(Backlog {
            queue: BoundedQueue::new(pending),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Connections waiting for a free worker.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// True once [`ListenerCore::shutdown`] has started.
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// An accept thread plus a worker pool over one bound `TcpListener`.
pub(crate) struct ListenerCore {
    local_addr: SocketAddr,
    backlog: Arc<Backlog>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ListenerCore {
    /// Start `workers` worker threads and the accept thread on
    /// `listener`. Threads are named `<name>-worker-<i>` and
    /// `<name>-accept`.
    pub(crate) fn spawn<S: Service>(
        listener: TcpListener,
        backlog: Arc<Backlog>,
        service: Arc<S>,
        workers: usize,
        name: &str,
    ) -> std::io::Result<Self> {
        let mut core = ListenerCore {
            local_addr: listener.local_addr()?,
            backlog,
            accept_thread: None,
            workers: Vec::with_capacity(workers),
        };
        for i in 0..workers {
            let backlog = Arc::clone(&core.backlog);
            let service = Arc::clone(&service);
            // Partial construction: on error `core` drops here, which
            // joins the workers already spawned.
            core.workers.push(
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || {
                        while let Some(stream) = backlog.queue.pop() {
                            service.serve(stream);
                        }
                    })?,
            );
        }
        let backlog = Arc::clone(&core.backlog);
        core.accept_thread = Some(
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(&listener, &backlog, &*service))?,
        );
        Ok(core)
    }

    /// The bound address.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, serve what is already queued, join every thread.
    /// Idempotent; also runs on drop.
    pub(crate) fn shutdown(&mut self) {
        self.backlog.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept_thread.take() {
            // One completed dial is enough: it makes the blocked accept
            // return, and the loop then sees the flag. A failed dial
            // (say, no free descriptor for the socket) is retried until
            // the thread has left.
            let wake = wake_addr(self.local_addr);
            while !accept.is_finished() {
                if TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_ok() {
                    break;
                }
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
            let _ = accept.join();
        }
        // Nothing produces any more; closing wakes idle workers, which
        // drain the backlog and then exit.
        self.backlog.queue.close();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ListenerCore {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The address a shutdown dials to wake its own accept: the bound
/// address, with an unspecified IP replaced by loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop<S: Service>(listener: &TcpListener, backlog: &Backlog, service: &S) {
    loop {
        let accepted = listener.accept();
        if backlog.is_shutting_down() {
            return; // drops the wake-up dial (or a late client) unserved
        }
        match accepted {
            Ok((stream, _peer)) => {
                service.accepted();
                match backlog.queue.try_push(stream) {
                    Ok(()) => {}
                    Err(PushError::Full(stream)) => service.shed(stream),
                    Err(PushError::Closed(_)) => return,
                }
            }
            // Failures of one connection (reset before it was accepted,
            // a signal): the listener itself is fine, accept again.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Shutdown timing on both bind addresses is tested through
    // `PmcdServer` and `ScrapeListener`; the IPv6 mapping only here.
    #[test]
    fn wake_address_maps_unspecified_to_loopback() {
        let v4: SocketAddr = "0.0.0.0:4000".parse().expect("v4");
        assert_eq!(wake_addr(v4), "127.0.0.1:4000".parse().expect("v4 lo"));
        let v6: SocketAddr = "[::]:4000".parse().expect("v6");
        assert_eq!(wake_addr(v6), "[::1]:4000".parse().expect("v6 lo"));
        let bound: SocketAddr = "127.0.0.2:9".parse().expect("bound");
        assert_eq!(wake_addr(bound), bound);
    }
}
