//! The multi-session server: bounded accept loop, admission, drain.
//!
//! One accept thread blocks in `accept()`. Each connection gets
//! a handshake (HELLO + CONFIG), an admission decision against the
//! cluster fixed point over the *live* resident set
//! ([`crate::admit::Admission`]), and — if admitted — a session thread
//! running the full ODR pipeline ([`crate::session::run_session`]).
//! Rejected clients receive a REJECT naming the violated bound, exactly
//! the reason the simulator's placement engine would give.
//!
//! Shutdown is graceful: [`ServerHandle::shutdown`] sets the stop flag
//! and wakes the accept loop with a connection to its own listener (the
//! loop discards whatever it accepts once the flag is set); the loop
//! then signals every live session (their readers poll the shared stop
//! flag), waits for each to drain its buffers and send its
//! [`DepartureReport`] + BYE, then closes the telemetry stream and
//! returns the [`ServeReport`] with every departure on record. The
//! session that completes [`ServeConfig::exit_after`] stops the server
//! the same way.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use odr_cluster::{Resident, Slo};
use odr_core::{OdrError, OdrResult};
use odr_pipeline::colocation::ServerCapacity;
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

use crate::admit::{session_load, Admission};
use crate::session::{handshake, run_session};
use crate::telemetry::Telemetry;
use crate::wire::{write_message, AcceptInfo, DepartureReport, Message};

/// Longest a stop request waits for its wake-up connection to the
/// listener. The connection is to this host's own loopback and completes
/// in the kernel; it can only stall while the backlog is full, and then
/// the accept loop is returning connections and sees the flag anyway.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Drain period of the telemetry stream.
const TELEMETRY_PERIOD: Duration = Duration::from_millis(250);

/// Sets the stop flag and wakes the accept loop out of `accept()` with a
/// connection to `addr`, its own listener.
fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    // A listener bound to the wildcard address is reached over loopback.
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let _ = TcpStream::connect_timeout(&SocketAddr::new(ip, addr.port()), WAKE_TIMEOUT);
}

/// Locks a mutex, recovering from poison: the state is plain data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Server configuration: the workload model admission prices sessions
/// with, the capacity/SLO envelope, and operational knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Hard cap on concurrently resident sessions, independent of the
    /// SLO fixed point (bounds thread fan-out).
    pub max_sessions: usize,
    /// Scenario whose calibrated stage/memory models price admission.
    pub scenario: Scenario,
    /// Node capacity the colocation fixed point solves against.
    pub capacity: ServerCapacity,
    /// Per-session quality bounds every resident must keep.
    pub slo: Slo,
    /// Capture per-session observability rings.
    pub obs: bool,
    /// Stream captured events as JSONL to this path while serving.
    pub telemetry: Option<PathBuf>,
    /// Stop accepting and drain once this many sessions have departed
    /// (smoke tests and benches); `None` serves until `shutdown`.
    pub exit_after: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_sessions: 8,
            scenario: Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
            capacity: ServerCapacity::default(),
            slo: Slo::default(),
            obs: false,
            telemetry: None,
            exit_after: None,
        }
    }
}

/// Final accounting for one serving run.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Sessions admitted over the server's lifetime.
    pub admitted: u64,
    /// Connections refused (admission or session cap).
    pub rejected: u64,
    /// Departure reports in completion order.
    pub departures: Vec<DepartureReport>,
}

/// State shared between the accept loop and connection threads.
struct SharedState {
    residents: Mutex<Vec<Resident>>,
    departures: Mutex<Vec<DepartureReport>>,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    next_session: AtomicU32,
}

/// The serving surface. [`Server::bind`] starts the accept loop and
/// returns a handle; the server itself is just the entry point.
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    ///
    /// # Errors
    ///
    /// [`OdrError::Io`] when the listener cannot be bound or configured,
    /// or when the telemetry file cannot be created.
    pub fn bind(addr: &str, cfg: ServeConfig) -> OdrResult<ServerHandle> {
        let listener = TcpListener::bind(addr).map_err(|e| OdrError::io(addr, e))?;
        let local = listener.local_addr().map_err(|e| OdrError::io(addr, e))?;
        let telemetry = match &cfg.telemetry {
            Some(path) => Some(Arc::new(Telemetry::spawn(path, TELEMETRY_PERIOD)?)),
            None => None,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || accept_loop(listener, local, cfg, telemetry, stop))
        };
        Ok(ServerHandle {
            addr: local,
            stop,
            accept: Some(accept),
        })
    }
}

/// Handle to a running server: its bound address and lifecycle control.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<OdrResult<ServeReport>>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains every live session, and returns the
    /// final report.
    ///
    /// # Errors
    ///
    /// [`OdrError::Thread`] if the accept loop panicked; any error the
    /// loop itself surfaced (e.g. telemetry I/O).
    pub fn shutdown(mut self) -> OdrResult<ServeReport> {
        request_stop(&self.stop, self.addr);
        self.join_inner()
    }

    /// Waits for the server to finish on its own, which it only does
    /// once [`ServeConfig::exit_after`] sessions have departed. Without
    /// `exit_after` nothing ever stops the server and this never returns:
    /// use [`ServerHandle::shutdown`].
    ///
    /// # Errors
    ///
    /// As [`ServerHandle::shutdown`].
    pub fn join(mut self) -> OdrResult<ServeReport> {
        self.join_inner()
    }

    fn join_inner(&mut self) -> OdrResult<ServeReport> {
        match self.accept.take().map(JoinHandle::join) {
            Some(Ok(outcome)) => outcome,
            Some(Err(_)) => Err(OdrError::thread("accept", "panicked")),
            None => Err(OdrError::thread("accept", "already joined")),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(accept) = self.accept.take() {
            request_stop(&self.stop, self.addr);
            let _ = accept.join();
        }
    }
}

/// The accept loop body: accept, admit, spawn, reap; then drain.
fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    cfg: ServeConfig,
    telemetry: Option<Arc<Telemetry>>,
    stop: Arc<AtomicBool>,
) -> OdrResult<ServeReport> {
    let admission = Arc::new(Admission::new(&cfg.scenario, cfg.capacity, cfg.slo));
    let shared = Arc::new(SharedState {
        residents: Mutex::new(Vec::new()),
        departures: Mutex::new(Vec::new()),
        admitted: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        next_session: AtomicU32::new(0),
    });
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    // Whoever sets the stop flag connects afterwards, so a set flag is
    // seen here either before blocking or on the connection that follows.
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            // The wake-up connection of a stop request, or a client that
            // raced it: the server is closing either way.
            Ok(_) if stop.load(Ordering::SeqCst) => break,
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                let admission = Arc::clone(&admission);
                let telemetry = telemetry.clone();
                let stop = Arc::clone(&stop);
                let scenario = cfg.scenario;
                let max_sessions = cfg.max_sessions;
                let exit_after = cfg.exit_after;
                let obs = cfg.obs;
                workers.push(thread::spawn(move || {
                    let departed = serve_connection(
                        stream,
                        &scenario,
                        max_sessions,
                        obs,
                        &shared,
                        &admission,
                        telemetry.as_deref(),
                        &stop,
                    );
                    if departed {
                        let completed = shared.completed.fetch_add(1, Ordering::Relaxed) + 1;
                        if exit_after.is_some_and(|n| completed >= n) {
                            request_stop(&stop, addr);
                        }
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                stop.store(true, Ordering::Relaxed);
                for worker in workers {
                    let _ = worker.join();
                }
                return Err(OdrError::io("listener", e));
            }
        }
        // Reap departed sessions at every arrival, so a long-lived
        // server's handle list stays proportional to its live set.
        workers.retain(|w| !w.is_finished());
    }
    // Graceful drain: the stop flag is set and every live session's
    // reader polls it; wait for the departures.
    for worker in workers {
        let _ = worker.join();
    }
    if let Some(tele) = telemetry {
        match Arc::try_unwrap(tele) {
            // Common case: every worker joined, we hold the last handle
            // and can surface final-flush I/O errors.
            Ok(tele) => tele.close()?,
            // A handle is still out there; its Drop performs the final
            // flush (errors cannot be surfaced on that path).
            Err(shared) => drop(shared),
        }
    }
    let report = ServeReport {
        admitted: shared.admitted.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
        departures: lock(&shared.departures).clone(),
    };
    Ok(report)
}

/// One connection: handshake, admission, session, departure bookkeeping.
/// Returns whether a session was admitted (and has now departed).
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    mut stream: TcpStream,
    scenario: &Scenario,
    max_sessions: usize,
    obs: bool,
    shared: &SharedState,
    admission: &Admission,
    telemetry: Option<&Telemetry>,
    stop: &Arc<AtomicBool>,
) -> bool {
    let cfg = match handshake(&mut stream) {
        Ok(cfg) => cfg,
        Err(_) => {
            // Never spoke the protocol; not an admission rejection.
            let _ = stream.shutdown(Shutdown::Both);
            return false;
        }
    };
    let candidate = session_load(scenario, cfg.regulation);
    // Admission decision under the resident lock: the fixed point must
    // price the candidate against the set that will actually be resident.
    let decision = {
        let mut residents = lock(&shared.residents);
        if residents.len() >= max_sessions {
            Err(OdrError::admission(format!(
                "server at session cap {max_sessions}"
            )))
        } else {
            admission.check(&residents, &candidate).map(|state| {
                let session = shared.next_session.fetch_add(1, Ordering::Relaxed);
                residents.push(Resident {
                    session,
                    load: candidate,
                });
                AcceptInfo {
                    session,
                    residents: residents.len() as u32,
                    slowdown: state.slowdown,
                    predicted_fps: state.predicted_fps(&candidate),
                    predicted_mtp_ms: state.predicted_mtp_ms(&candidate),
                }
            })
        }
    };
    let info = match decision {
        Ok(info) => info,
        Err(e) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            let _ = write_message(
                &mut stream,
                &Message::Reject {
                    reason: e.to_string(),
                },
            );
            let _ = stream.shutdown(Shutdown::Both);
            return false;
        }
    };
    shared.admitted.fetch_add(1, Ordering::Relaxed);
    let session = info.session;
    let departed = write_message(&mut stream, &Message::Accept(info))
        .and_then(|()| run_session(stream, session, cfg, Arc::clone(stop), obs, telemetry));
    lock(&shared.residents).retain(|r| r.session != session);
    if let Ok(report) = departed {
        lock(&shared.departures).push(report);
    }
    true
}
