//! Live observability streaming.
//!
//! The simulator exports its trace once, at the end of a run. A server
//! cannot: sessions come and go and the process may serve for hours, so
//! the obs layer streams instead — a telemetry worker periodically
//! drains every registered session recorder ([`Recorder::drain_into`],
//! the incremental API added for this) and appends the events as JSONL
//! to a file. Lines are rendered by the same
//! [`odr_obs::write_events_jsonl`] renderer the one-shot exporter uses,
//! so a streamed trace concatenates to byte-for-byte what a shutdown
//! export of the same events would have produced.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use odr_core::{OdrError, OdrResult};
use odr_obs::{write_events_jsonl, Drained, Recorder};

/// Locks a mutex, recovering from poison: the registry holds plain data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    recorders: Mutex<Vec<Arc<dyn Recorder>>>,
    stop: AtomicBool,
}

impl Shared {
    /// Drains every registered recorder and appends the batch as JSONL;
    /// a recorder whose session is gone leaves the registry with its last
    /// events. Returns the number of events written.
    fn flush(&self, file: &mut File, path: &Path) -> OdrResult<usize> {
        let mut batch = Drained::default();
        lock(&self.recorders).retain(|rec| {
            // Sole owner before the drain: nothing can record into this
            // ring any more, so the drain below takes all there will be.
            let departed = Arc::strong_count(rec) == 1;
            rec.drain_into(&mut batch);
            !departed
        });
        if batch.events.is_empty() {
            return Ok(0);
        }
        // Stable output: batches interleave events from many per-session
        // rings; sort by timestamp like ObsReport::from_drained does.
        batch.events.sort_by_key(|e| e.ts_ns);
        let mut out = String::new();
        write_events_jsonl(&mut out, &batch.events);
        file.write_all(out.as_bytes())
            .map_err(|e| OdrError::io(path.display().to_string(), e))?;
        Ok(batch.events.len())
    }
}

/// A background JSONL telemetry stream. Sessions register their
/// recorders; the worker drains them on a fixed period and once more at
/// [`Telemetry::close`].
pub struct Telemetry {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<OdrResult<()>>>,
}

impl Telemetry {
    /// Creates (truncating) the JSONL file at `path` and starts the
    /// drain worker with the given period.
    ///
    /// # Errors
    ///
    /// [`OdrError::Io`] when the file cannot be created.
    pub fn spawn(path: impl Into<PathBuf>, period: Duration) -> OdrResult<Telemetry> {
        let path = path.into();
        let mut file =
            File::create(&path).map_err(|e| OdrError::io(path.display().to_string(), e))?;
        let shared = Arc::new(Shared {
            recorders: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        #[expect(clippy::disallowed_methods, reason = "a flusher thread on wall time")]
        let worker = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || -> OdrResult<()> {
                while !shared.stop.load(Ordering::Relaxed) {
                    thread::sleep(period);
                    shared.flush(&mut file, &path)?;
                }
                // Final drain: everything recorded after the last tick.
                shared.flush(&mut file, &path)?;
                file.flush()
                    .map_err(|e| OdrError::io(path.display().to_string(), e))?;
                Ok(())
            })
        };
        Ok(Telemetry {
            shared,
            worker: Some(worker),
        })
    }

    /// Registers a recorder for periodic draining. It stays registered
    /// for as long as anyone else holds it: the first drain after the
    /// session dropped its handles takes the ring's last events and
    /// lets it go, so a long-lived server holds rings for resident
    /// sessions only.
    pub(crate) fn register(&self, recorder: Arc<dyn Recorder>) {
        lock(&self.shared.recorders).push(recorder);
    }

    /// Stops the worker, performs the final drain, and closes the file.
    ///
    /// # Errors
    ///
    /// [`OdrError::Io`] if any append failed, [`OdrError::Thread`] if
    /// the worker panicked.
    pub fn close(mut self) -> OdrResult<()> {
        self.shared.stop.store(true, Ordering::Relaxed);
        match self.worker.take().map(JoinHandle::join) {
            Some(Ok(outcome)) => outcome,
            Some(Err(_)) => Err(OdrError::thread("telemetry", "panicked")),
            None => Ok(()),
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_obs::{names, track, Event, RingRecorder};

    #[test]
    fn streamed_events_land_in_the_file() {
        let dir = std::env::temp_dir().join(format!("odr-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("live.jsonl");
        let tele = Telemetry::spawn(&path, Duration::from_millis(5)).expect("spawn");
        let rec: Arc<RingRecorder> = Arc::new(RingRecorder::default());
        tele.register(Arc::clone(&rec) as Arc<dyn Recorder>);
        for ts in 0..10 {
            rec.record(Event::instant(ts, track::CLIENT, names::PRESENT));
        }
        thread::sleep(Duration::from_millis(30));
        for ts in 10..20 {
            rec.record(Event::instant(ts, track::CLIENT, names::PRESENT));
        }
        tele.close().expect("close");
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 20, "{text}");
        assert!(lines[0].contains("\"ts_ns\":0"));
        assert!(lines[19].contains("\"ts_ns\":19"));
        // Byte-identical to a one-shot render of the same events.
        let mut expect = String::new();
        let events: Vec<Event> = (0..20)
            .map(|ts| Event::instant(ts, track::CLIENT, names::PRESENT))
            .collect();
        write_events_jsonl(&mut expect, &events);
        assert_eq!(text, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_lets_go_of_departed_sessions_after_their_last_events() {
        let dir = std::env::temp_dir().join(format!("odr-telemetry-prune-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("prune.jsonl");
        let mut file = File::create(&path).expect("create");
        let departed: Arc<RingRecorder> = Arc::new(RingRecorder::default());
        let resident: Arc<RingRecorder> = Arc::new(RingRecorder::default());
        let shared = Shared {
            recorders: Mutex::new(vec![
                Arc::clone(&departed) as Arc<dyn Recorder>,
                Arc::clone(&resident) as Arc<dyn Recorder>,
            ]),
            stop: AtomicBool::new(false),
        };
        for ts in 0..3 {
            departed.record(Event::instant(ts, track::CLIENT, names::PRESENT));
        }
        resident.record(Event::instant(3, track::CLIENT, names::PRESENT));
        drop(departed);
        assert_eq!(shared.flush(&mut file, &path).expect("flush"), 4);
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 4, "{text}");
        let left = lock(&shared.recorders);
        assert_eq!(left.len(), 1, "the departed session's ring is gone");
        let resident = resident as Arc<dyn Recorder>;
        assert!(Arc::ptr_eq(&left[0], &resident), "the resident one stays");
        drop(left);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A real session on a loopback socket with capture on: the stage
    /// threads record into the rings the session registered, the worker
    /// streams them to the file, and the first flush after the departure
    /// lets the rings go.
    #[test]
    fn a_served_session_streams_its_stage_events_and_leaves_the_registry() {
        use crate::wire::{read_message, write_message, InputEvent, Message, SessionConfig};
        use std::net::{TcpListener, TcpStream};

        let path =
            std::env::temp_dir().join(format!("odr-telemetry-served-{}.jsonl", std::process::id()));
        let tele = Telemetry::spawn(&path, Duration::from_millis(20)).expect("spawn");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // The client paces itself by the stream, not by a clock: an input
        // half an interval after every fourth frame, when the renderer is
        // waiting for room, BYE after a second's worth at 60 FPS.
        let client = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            for frame in 1..=60u64 {
                match read_message(&mut stream).expect("frame") {
                    Some(Message::Frame { .. }) => {}
                    other => panic!("expected FRAME, got {other:?}"),
                }
                if frame % 4 == 0 {
                    thread::sleep(Duration::from_millis(8));
                    let input = InputEvent {
                        id: frame,
                        client_ts_ns: 0,
                    };
                    write_message(&mut stream, &Message::Input(input)).expect("input");
                }
            }
            write_message(&mut stream, &Message::Bye).expect("bye");
            while !matches!(
                read_message(&mut stream).expect("farewell"),
                Some(Message::Bye) | None
            ) {}
        });
        let (stream, _) = listener.accept().expect("accept");
        let session = SessionConfig {
            width: 160,
            height: 96,
            ..SessionConfig::default() // ODR60
        };
        let stop = Arc::new(AtomicBool::new(false));
        let report =
            crate::session::run_session(stream, 0, session, stop, Some(&tele)).expect("session");
        client.join().expect("client");
        let shared = Arc::clone(&tele.shared);
        tele.close().expect("close");
        assert!(
            lock(&shared.recorders).is_empty(),
            "a departed session's rings are still registered"
        );

        let text = std::fs::read_to_string(&path).expect("read");
        let count = |track: &str, kind: &str, name: &str| {
            let needle = format!("\"track\":\"{track}\",\"kind\":\"{kind}\",\"name\":\"{name}\"");
            text.lines().filter(|line| line.contains(&needle)).count() as u64
        };
        // Every frame the stages counted left a begin/end pair.
        for (track, span, frames) in [
            ("app", names::RENDER, report.frames_rendered),
            ("proxy", names::ENCODE, report.frames_encoded),
        ] {
            assert!(frames >= 60, "{report:?}");
            assert_eq!(count(track, "begin", span), frames, "{span} begins");
            assert_eq!(count(track, "end", span), frames, "{span} ends");
        }
        // Algorithm 1 decided once per frame, and delayed most of them.
        assert!(count("regulator", "instant", names::REG_DELAY) > 0);
        assert!(count("regulator", "counter", names::REG_ACC_DELAY) > 0);
        // On-demand rendering: the renderer waited for room in Mul-Buf1,
        // the writer for frames in Mul-Buf2.
        for (track, wait) in [("buf1", names::WAIT_SPACE), ("buf2", names::WAIT_DATA)] {
            let begun = count(track, "begin", wait);
            assert!(begun > 0, "no {wait} on {track}");
            assert_eq!(count(track, "end", wait), begun, "{wait} on {track}");
        }
        // PriorityFrame: inputs were answered, and at least one made the
        // stale frame in Mul-Buf1 obsolete, flushed by its answer.
        assert!(report.priority_frames > 0, "{report:?}");
        assert!(count("buf1", "instant", names::SWAP_FLUSH) > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn close_is_clean_with_no_recorders() {
        let dir = std::env::temp_dir().join(format!("odr-telemetry-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("empty.jsonl");
        let tele = Telemetry::spawn(&path, Duration::from_millis(1)).expect("spawn");
        thread::sleep(Duration::from_millis(5));
        tele.close().expect("close");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
